"""Typed-program to IL lowering: initializer data is materialized and frozen.

Range loops were already unrolled during analysis and @ignore blocks never
leave the parser's pragma list, so the structural work here is freezing every
declared initializer into literal arrays under the run seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from machlite.frontend.syntax import DType, InitSpec, VarKind
from machlite.frontend.semantic import GridConfig, TypedProgram, VarInfo
from machlite.memwords import np_dtype


@dataclass
class ILVar:
    name: str
    kind: VarKind
    dtype: DType
    shape: tuple[int, ...]        # declared shape; LS carries the grid shape
    init: np.ndarray | None       # frozen literal data, None if uninitialized
    output: bool

    @property
    def mem_shape(self) -> tuple[int, ...]:
        if self.kind is VarKind.LA:
            return self.shape[2:]
        return ()


@dataclass
class ILProgram:
    grid: GridConfig
    variables: dict[str, ILVar]
    stmts: tuple
    order: tuple[str, ...]


def _full_shape(info: VarInfo, grid: GridConfig) -> tuple[int, ...]:
    d = info.decl
    if d.kind is VarKind.GS or d.kind is VarKind.ULS:
        return ()
    if d.kind is VarKind.GA:
        return d.shape
    if d.kind is VarKind.LS:
        return (grid.nx, grid.ny)
    return d.shape


def materialize_init(init: InitSpec, shape: tuple[int, ...], dtype: DType,
                     seed: int, var_index: int) -> np.ndarray:
    nd = np_dtype(dtype)
    if init.form == "zeros":
        return np.zeros(shape, nd)
    if init.form == "constant":
        return np.full(shape, init.value, nd) if shape else nd(init.value)
    if init.form == "literal":
        flat = np.array(init.values, nd)
        return flat.reshape(shape) if shape else nd(init.values[0])
    rng = np.random.default_rng([seed, var_index])
    if init.form == "rand":
        out = rng.random(shape if shape else (), dtype=np.float32)
        return out.astype(nd) if dtype is not DType.F32 else out
    if init.form == "randint":
        return rng.integers(init.lo, init.hi, shape if shape else (), dtype=np.int16).astype(nd)
    raise ValueError(f"unknown init form {init.form!r}")


def lower_to_il(typed: TypedProgram, seed: int = 0) -> ILProgram:
    variables: dict[str, ILVar] = {}
    for idx, name in enumerate(typed.order):
        info = typed.variables[name]
        d = info.decl
        shape = _full_shape(info, typed.grid)
        init = None
        if info.init is not None:
            init = materialize_init(info.init, shape, d.dtype, seed, idx)
        variables[name] = ILVar(name, d.kind, d.dtype, shape, init, d.output)
    return ILProgram(typed.grid, variables, typed.stmts, typed.order)
