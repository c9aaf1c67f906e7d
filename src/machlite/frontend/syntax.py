"""Syntax tree for mach-lite programs.

Locations never participate in equality, so two parses of the same program
text laid out differently give structurally identical trees.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from machlite.diagnostics import Loc


class VarKind(enum.Enum):
    GS = "gs"      # single scalar on the controller
    GA = "ga"      # controller-resident array, element-addressable
    LS = "ls"      # one scalar per worker
    ULS = "uls"    # uniform local scalar, address known to the controller
    LA = "la"      # dense tensor distributed over the worker grid


class DType(enum.Enum):
    F32 = "f32"
    I16 = "i16"

    @property
    def words(self) -> int:
        return 2 if self is DType.F32 else 1


_NOLOC = Loc(0, 0)


def _loc_field():
    return field(default=_NOLOC, compare=False, repr=False)


@dataclass(frozen=True)
class InitSpec:
    """Declared initial contents: zeros, a constant, seeded random, or literals."""

    form: str  # "zeros" | "constant" | "rand" | "randint" | "literal"
    value: float = 0.0
    is_int: bool = False  # constant written as an integer literal
    lo: int = 0
    hi: int = 0
    values: tuple[float, ...] = ()
    ints: tuple[bool, ...] = ()  # literal: whether each value was written as an integer


@dataclass(frozen=True)
class TensorDecl:
    name: str
    kind: VarKind
    shape: tuple[int, ...]
    dtype: DType
    init: InitSpec | None = None
    output: bool = True  # tmp-declared variables may be reclaimed after last use
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class AxisSlice:
    """One surface slice axis: start:stop:step, a bare index, or a name as stop."""

    start: int | None = None
    stop: int | str | None = None
    step: int | None = None
    index: int | None = None  # set for the bare-integer form

    @staticmethod
    def full() -> "AxisSlice":
        return AxisSlice()


@dataclass(frozen=True)
class Ref:
    name: str
    axes: tuple[AxisSlice, ...] | None = None  # None: written without brackets
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Lit:
    value: float
    is_int: bool
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Take:
    src: Ref
    idx: Ref
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class GatherMul:
    src: Ref
    idx: Ref
    other: Ref
    loc: Loc = _loc_field()


Expr = "Ref | Lit | BinOp | Take | GatherMul"


@dataclass(frozen=True)
class Assign:
    dst: Ref
    op: str  # "=" "+=" "-=" "*=" "/="
    expr: object
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class DeviceFor:
    var: str
    iterable: Ref  # a GA reference
    body: tuple
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class RangeFor:
    var: str
    extent: int
    body: tuple
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class ExitIf:
    lhs: object  # Ref | Lit
    cmp: str
    rhs: object
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Reduce:
    src: Ref
    target: str
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Shift:
    dst: Ref
    src: Ref
    axis: str  # "row" | "col"
    offset: int  # +1 | -1
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Put:
    dst: Ref
    idx: Ref
    src: Ref
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Pragma:
    kind: str  # "host" | "ignore"
    host_inits: tuple = ()   # (name, InitSpec) pairs for @host
    body: tuple = ()         # statements for @ignore
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class SourceProgram:
    decls: tuple[TensorDecl, ...]
    stmts: tuple
    pragmas: tuple[Pragma, ...] = ()

