"""Remote-procedure definitions and their argument frames.

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

An RPC's argument frame, the named words one task takes, is declared once in
`RpcDef.frame`; tasks are encoded by `encode_frame`, decoded by the worker
through `decode_frame` and listed field by field.  Workers resolve every
address against their own memory, so a single broadcast serves the whole field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..frontend.syntax import DType
from ..memwords import encode_words, np_dtype

TOKEN_WORDS = {"as": 1, "ar": 1, "aw1": 3, "ad1": 3, "aw2": 6, "ad2": 6}


@dataclass(frozen=True)
class OperandSpec:
    token: str                  # ai/as/ar/aw1/aw2/ad1/ad2
    words: int

    @property
    def dyn(self) -> bool:
        return self.token in ("ad1", "ad2")


WORD = OperandSpec("ai", 1)     # a one-word i16 value
ADDR = OperandSpec("as", 1)     # the address of a scalar in worker memory

# the fields each kind takes after its operands: the address of the worker
# mask and the static length it runs over; a shift's length, step and
# worker region
MASKED = (("mask", ADDR), ("len", WORD))
KIND_FIELDS = {
    "map": MASKED, "gather": MASKED, "gather_mul": MASKED, "scatter": MASKED,
    "shift": tuple((name, WORD) for name in ("len", "dx", "dy", "x0", "x1", "y0", "y1")),
    "reduce_send": (("mask", ADDR),),
    "reduce_bcast": (),
}


@dataclass(frozen=True)
class RpcDef:
    name: str
    rid: int
    kind: str                   # a key of KIND_FIELDS
    op: str                     # add/sub/mul/div/copy/fill or '' for protocol kinds
    dtype: str                  # 'f32' | 'i16'
    srcs: tuple                 # OperandSpec per source operand
    dst: OperandSpec | None
    target: str = ""            # reduce_send: 'uls' | 'gs'
    # the argument frame, name -> (OperandSpec, slice of the task's words)
    # in word order: one field per operand (src0..srcN, dst), the kind's
    # fields, then dyn_stop, the per-worker stop's address, if an operand has one
    frame: dict = field(init=False, repr=False, compare=False)
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = [(f"src{k}", s) for k, s in enumerate(self.srcs)]
        if self.dst is not None:
            fields.append(("dst", self.dst))
        fields += KIND_FIELDS[self.kind]
        if any(spec.dyn for _, spec in fields):
            fields.append(("dyn_stop", ADDR))
        frame, at = {}, 0
        for name, spec in fields:
            frame[name] = (spec, slice(at, at + spec.words))
            at += spec.words
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "arity", at)


def encode_frame(rd: RpcDef, **fields) -> list[int]:
    """The words of one task of `rd`: every field of its frame in order,
    each given as exactly its width in words, and no other field."""
    if fields.keys() != rd.frame.keys():
        raise ValueError(f"{rd.name}: fields {sorted(fields)}, frame {list(rd.frame)}")
    words: list[int] = []
    for name, (spec, _) in rd.frame.items():
        if len(fields[name]) != spec.words:
            raise ValueError(f"{rd.name}: field {name} has {len(fields[name])} words, "
                             f"not {spec.words}")
        words.extend(fields[name])
    return words


def decode_frame(rd: RpcDef, words) -> dict:
    """The fields of one task of `rd`: name -> its words."""
    return {name: words[s] for name, (_, s) in rd.frame.items()}


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
    if spec.token in ("as", "ar"):
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

    def intern(self, kind, op, dt, srcs, dst, target="") -> RpcDef:
        name = rpc_name(kind, op, dt, srcs, dst, target)
        hit = self.by_name.get(name)
        if hit is not None:
            return hit
        d = RpcDef(name, len(self.defs), kind, op, dt, tuple(srcs), dst, target)
        self.by_name[name] = d
        self.defs.append(d)
        return d
