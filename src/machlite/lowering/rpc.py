"""Remote-procedure definitions and argument-word encoding.

Every distinct (operation, dtype, operand encoding) signature becomes one RPC.
The control vector carries dense RPC ids; the argument vector carries 16-bit
words the kernels consume.  Operand encodings, one token per operand:

  ai   immediate value (dtype width in words)
  as   scalar address: [addr]
  ar   full contiguous vector: [base]; element count is the shared length
  aw1  rank-1 window: [base, start, len]
  aw2  rank-2 window: [base, dim1, start0, len0, start1, len1]
  ad1  rank-1 window, dynamic stop: [base, start, extent]
  ad2  rank-2 window, dynamic stop on the last axis: [base, dim1, start0, len0, start1, extent1]

Kernels with an `ad` operand take one extra trailing word: the address of the
per-worker length scalar.  Masked kernels take a mask address plus a shared
static length.  Workers resolve every address against their own memory, so a
single broadcast serves the whole field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frontend.syntax import DType
from ..memwords import encode_words, np_dtype

TOKEN_WORDS = {"as": 1, "ar": 1, "aw1": 3, "ad1": 3, "aw2": 6, "ad2": 6}

# kinds with a mask word and a shared length word
MASKED_KINDS = {"map", "gather", "gather_mul", "scatter"}


@dataclass(frozen=True)
class OperandSpec:
    token: str                  # ai/as/ar/aw1/aw2/ad1/ad2
    words: int

    @property
    def dyn(self) -> bool:
        return self.token in ("ad1", "ad2")

    @property
    def vector(self) -> bool:
        return self.token in ("ar", "aw1", "aw2", "ad1", "ad2")


@dataclass(frozen=True)
class RpcDef:
    name: str
    rid: int
    kind: str                   # map | gather | gather_mul | scatter | shift
                                # | reduce_send | reduce_bcast | exit stubs use kind
    op: str                     # add/sub/mul/div/copy/fill or '' for protocol kinds
    dtype: str                  # 'f32' | 'i16'
    srcs: tuple                 # OperandSpec per source operand
    dst: OperandSpec | None
    target: str = ""            # reduce_send: 'uls' | 'gs'
    arity: int = 0

    @property
    def has_dyn(self) -> bool:
        ops = self.srcs + ((self.dst,) if self.dst else ())
        return any(o.dyn for o in ops if isinstance(o, OperandSpec))


def operand_spec(ml, access, *, sized: bool) -> OperandSpec:
    """Encoding for one vector or scalar operand.

    sized forces an explicit window even for full contiguous storage, for
    kernels whose source extent differs from the iteration length.
    """
    if not ml.mem_shape:
        return OperandSpec("as", 1)
    axes = access.mem if access is not None and access.mem else None
    rank = len(ml.mem_shape)
    if axes is None:
        if not sized:
            return OperandSpec("ar", 1)
        tok = "aw1" if rank == 1 else "aw2"
        return OperandSpec(tok, TOKEN_WORDS[tok])
    dyn = any(ax.stop is None for ax in axes)
    full = (not dyn and all(ax.start == 0 and ax.stop == ax.extent for ax in axes))
    if full and not sized:
        return OperandSpec("ar", 1)
    if rank == 1:
        tok = "ad1" if dyn else "aw1"
    else:
        tok = "ad2" if dyn else "aw2"
    return OperandSpec(tok, TOKEN_WORDS[tok])


def operand_words(spec: OperandSpec, ml, access, plan) -> list[int]:
    base = plan.address_words(ml.id) if ml.placement == "worker" else None
    assert base is not None, "vector operands live in worker memory"
    if spec.token == "as":
        return [base]
    if spec.token == "ar":
        return [base]
    rank = len(ml.mem_shape)
    axes = access.mem if access is not None and access.mem else None
    if axes is None:
        starts = [0] * rank
        lens = list(ml.mem_shape)
    else:
        starts = [ax.start for ax in axes]
        lens = [(ax.extent if ax.stop is None else ax.stop - ax.start) for ax in axes]
    if spec.token in ("aw1", "ad1"):
        return [base, starts[0], lens[0]]
    dim1 = ml.mem_shape[1]
    return [base, dim1, starts[0], lens[0], starts[1], lens[1]]


def imm_words(value, dt: DType) -> list[int]:
    arr = np.asarray(value, dtype=np_dtype(dt))
    return [int(w) for w in encode_words(arr.reshape(()), dt)]


def rpc_name(kind: str, op: str, dt: str, src_specs, dst_spec, target: str = "") -> str:
    toks = [s.token for s in src_specs]
    if kind == "map":
        stem = "_".join(toks) + f"_{op}_{dt}"
        if dst_spec.token != "ar":
            stem += f"_to_{dst_spec.token}"
        return stem
    if kind in ("gather", "gather_mul", "scatter"):
        return "_".join(toks) + f"_{kind}_{dt}" + (
            f"_to_{dst_spec.token}" if dst_spec.token != "ar" else "")
    if kind == "shift":
        return f"{toks[0]}_{dst_spec.token}_shift_{dt}"
    if kind == "reduce_send":
        return f"{toks[0]}_reduce_send_{dt}_{target}"
    if kind == "reduce_bcast":
        return f"reduce_bcast_{dt}"
    raise ValueError(kind)


class RpcTable:
    """Interned RPC definitions with dense ids in first-use order."""

    def __init__(self):
        self.by_name: dict[str, RpcDef] = {}
        self.defs: list[RpcDef] = []

    def intern(self, kind, op, dt, srcs, dst, target="", arity=0) -> RpcDef:
        name = rpc_name(kind, op, dt, srcs, dst, target)
        hit = self.by_name.get(name)
        if hit is not None:
            return hit
        d = RpcDef(name, len(self.defs), kind, op, dt, tuple(srcs), dst, target, arity)
        self.by_name[name] = d
        self.defs.append(d)
        return d
