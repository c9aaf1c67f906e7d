"""Word semantics shared by the loader, the reference interpreter and the
simulator kernels: the numpy dtype of each DSL dtype (`np_dtype`), the
16-bit ALU (`alu`) and compare ops (`CMPS`) both backends evaluate with,
16-bit word codecs, and window addressing.

f32 values occupy two consecutive words, low word first.  All per-element
orders are C-order over the declared memory axes.
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


def element_offsets(mem_shape: tuple[int, ...], mem_axes, words_per_elem: int,
                    dyn_stop: int | None = None) -> list[int]:
    """Word offsets of each window element within a per-PE block.

    mem_axes are (start, stop) pairs; a None stop takes dyn_stop (the last
    axis only).  Offsets follow C-order enumeration of the window.
    """
    strides = []
    acc = words_per_elem
    for extent in reversed(mem_shape):
        strides.append(acc)
        acc *= extent
    strides.reverse()
    ranges = []
    for i, (start, stop) in enumerate(mem_axes):
        if stop is None:
            stop = dyn_stop
        ranges.append(range(start, stop))
    out = [0]
    for r, s in zip(ranges, strides):
        out = [base + j * s for base in out for j in r]
    return out
