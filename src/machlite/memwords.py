"""Word semantics shared by the image builder, the reference interpreter and
the simulator kernels: the numpy dtype of each DSL dtype (`np_dtype`), the
16-bit ALU (`alu`), compare ops (`CMPS`) and reduction fold (`fold_sum`)
both backends evaluate with, 16-bit word codecs, and the data mapping of a
logical array into word images.

f32 values occupy two consecutive words, low word first.  All per-element
orders are C-order over the declared memory axes.

The data mapping: a worker variable's logical array has shape
`(nx, ny, *mem_shape)` and tile (x, y) holds `arr[x, y]` in C order at its
planned word address; a controller variable's array sits at its address in
the one controller image.  `store_words` and `load_words` are the only code
that applies this rule; the reference store, the initial image builder and
the simulator readout all go through them.
"""
from __future__ import annotations

import numpy as np

from machlite.frontend.syntax import DType

CMPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def np_dtype(dt: DType):
    return np.float32 if dt is DType.F32 else np.int16


def alu(op: str, dt: DType, a, b=None):
    """The 16-bit ALU both backends share: i16 wraps, division truncates
    toward zero with x/0 defined as 0."""
    nd = np_dtype(dt)
    a = np.asarray(a, dtype=nd)
    if op in ("copy", "fill"):
        return a
    b = np.asarray(b, dtype=nd)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        assert op == "div", op
        if dt is DType.F32:
            return a / b
        q = np.where(b == 0, np.int64(0),
                     np.trunc(a.astype(np.int64) / np.where(b == 0, 1, b)))
        return q.astype(np.int16)


def fold_sum(vals, dt: DType):
    """The reduction fold both backends share: f32 adds in order, rounding
    to float32 at every step; i16 wraps."""
    vals = np.asarray(vals, dtype=np_dtype(dt)).reshape(-1)
    if dt is DType.F32:
        acc = np.float32(0.0)
        for v in vals:
            acc = np.float32(acc + v)
        return acc
    return vals.astype(np.int64).sum().astype(np.int16)


def encode_words(arr: np.ndarray, dtype: DType) -> np.ndarray:
    """Flatten a value array into its uint16 word image."""
    if dtype is DType.F32:
        return np.ascontiguousarray(arr, dtype="<f4").view("<u2").reshape(-1)
    return np.ascontiguousarray(arr, dtype="<i2").view("<u2").reshape(-1)


def decode_words(words: np.ndarray, dtype: DType, shape=()) -> np.ndarray:
    w = np.ascontiguousarray(words, dtype="<u2")
    if dtype is DType.F32:
        return w.view("<f4").reshape(shape)
    return w.view("<i2").reshape(shape)


def store_words(image: np.ndarray, addr: int, size: int, arr, dt: DType) -> None:
    """Write a logical array into `image[..., addr:addr + size]`.

    The leading axes of `image` index tiles (none for the controller image,
    `(nx, ny)` for worker images); each tile gets its block of `arr`.
    """
    image[..., addr:addr + size] = \
        encode_words(arr, dt).reshape(image.shape[:-1] + (size,))


def load_words(image: np.ndarray, addr: int, size: int, dt: DType,
               shape) -> np.ndarray:
    """The logical array stored at `addr`, as a fresh copy of the words:
    callers mutate what they load and write it back."""
    return decode_words(image[..., addr:addr + size].copy(), dt, shape)


def initial_array(init, dt: DType, shape) -> np.ndarray:
    """A declared initializer at the variable's stored shape; a scalar
    (`uls`) spreads to every worker."""
    return np.broadcast_to(np.asarray(init, dtype=np_dtype(dt)), shape).copy()
