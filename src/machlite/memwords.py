"""Word semantics shared by the image builder, the reference interpreter and
the simulator kernels: the numpy dtype of each DSL dtype (`np_dtype`), the
16-bit ALU (`alu`), compare ops (`CMPS`) and reduction fold (`fold_sum`)
both backends evaluate with, 16-bit word codecs, the word memory that holds
only the planned words (`WordMemory`), the data mapping of a logical array
into it (`word_view`), and the initial state: declared initializers frozen
under the run seed (`materialize_init`) and the images both backends start
from (`initial_images`).

Each VM operation's rule on one PE's data is written here once, and both
backends call it: the gather move (`gather`, with `gather_mul`'s wrapping
product) and the scatter move (`scatter`: every source read before any
write, the last write wins); the index check (`check_index`) and the
dynamic-stop check (`check_stop`), the only code that words those two
located faults; and the shift pairing (`shift_ends`): which PEs of a
region send and which receive.

f32 values occupy two consecutive words, low word first.  All per-element
orders are C-order over the declared memory axes.

The data mapping: a worker variable's logical array has shape
`(nx, ny, *mem_shape)` and tile (x, y) holds `arr[x, y]` in C order at its
planned word address; a controller variable's array sits at its address in
the one controller image.  A worker image holds only the words the plan
places: each variable's span and each mask word, merged into maximal runs.
A word outside every planned span does not exist, and reaching it raises;
the gaps the planner's bank alignment leaves take no memory.  `word_view`
is the only code that applies this rule; the initial image builder, the
planned reference run, the simulator kernels (which read and write every
operand through a view of their tile's image) and the simulator readout all
go through it.  Addresses are absolute: the controller image is one span
over a whole tile's `WORKER_WORDS`, and its planned variables sit above the
code.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from machlite.diagnostics import SimFault
from machlite.frontend.syntax import DType, InitSpec

WORKER_WORDS = 24_576          # 48 KB of 16-bit words per tile

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


def check_stop(stop: int, start: int, extent: int, x: int, y: int) -> int:
    """`stop`, once it is a dynamic stop in `[start, extent]` on PE (x, y)."""
    if not start <= stop <= extent:
        raise SimFault(f"dynamic stop {stop} outside [{start}, {extent}] "
                       f"for axis of extent {extent} at PE ({x}, {y})")
    return stop


def check_index(op: str, idx, size: int, x: int, y: int) -> None:
    """Fault at the first index of `idx` outside the window of `size`
    elements that `op` (`gather`, `gather_mul` or `scatter`) indexes on
    PE (x, y)."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    bad = np.flatnonzero((idx < 0) | (idx >= size))
    if bad.size:
        k = int(bad[0])
        kind = "scatter" if op == "scatter" else "gather"
        raise SimFault(f"{kind} index {idx[k]} outside window of {size} "
                       f"elements at PE ({x}, {y}), element {k}")


def gather(src, idx, mul=None) -> np.ndarray:
    """`src[idx[k]]` (times `mul[k]`, wrapping in i16) for every k, flat."""
    out = np.asarray(src).reshape(-1)[np.asarray(idx, dtype=np.int64).reshape(-1)]
    if mul is None:
        return out
    with np.errstate(over="ignore"):
        return out * np.asarray(mul).reshape(-1)


def scatter(dst, idx, src) -> None:
    """`dst.flat[idx[k]] = src[k]` for every k: every source is read before
    any write, and the last write wins."""
    idx = np.asarray(idx).reshape(-1).tolist()
    last = dict(zip(idx, range(len(idx))))
    out = dst.flatten()
    out[list(last)] = np.asarray(src).reshape(-1)[list(last.values())]
    dst[...] = out.reshape(dst.shape)


def shift_ends(x: int, y: int, dx: int, dy: int, x0: int, x1: int, y0: int,
               y1: int) -> tuple[bool, bool]:
    """(sends, receives) of PE (x, y) in a shift by (dx, dy) over the PEs
    [x0, x1) x [y0, y1): a PE sends to (x + dx, y + dy) and receives from
    (x - dx, y - dy) when both ends are in the region."""
    ins = [x0 <= x + k * dx < x1 and y0 <= y + k * dy < y1 for k in (0, 1, -1)]
    return ins[0] and ins[1], ins[0] and ins[2]


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


class WordMemory:
    """Word memory that holds only planned words: one zeroed `"<u2"` block
    per maximal run of the spans it was made from, spans that touch or
    overlap merged, each block with the leading tile axes `lead` (`(nx, ny)`
    for worker memory, none for one tile's or the controller's)."""

    __slots__ = ("starts", "ends", "blocks")

    def __init__(self, lead: tuple, spans):
        """`spans` yields `(address, size_words)` per planned span."""
        runs: list[list[int]] = []
        for addr, size in sorted(spans):
            if runs and addr <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], addr + size)
            else:
                runs.append([addr, addr + size])
        self.starts = [a for a, _ in runs]
        self.ends = [b for _, b in runs]
        self.blocks = [np.zeros((*lead, b - a), dtype="<u2") for a, b in runs]

    def tile(self, x: int, y: int) -> "WordMemory":
        """Tile (x, y)'s words, as live views of these blocks."""
        t = WordMemory.__new__(WordMemory)
        t.starts, t.ends = self.starts, self.ends
        t.blocks = [b[x, y] for b in self.blocks]
        return t

    def words(self, addr: int, size: int) -> np.ndarray:
        """The `size` words from `addr` on, as a live view of the block
        that holds them all; a word outside every span raises."""
        i = bisect_right(self.starts, addr) - 1
        if i < 0 or addr + size > self.ends[i]:
            raise IndexError(f"words {addr}..{addr + size - 1} are not all "
                             f"in one planned span")
        lo = addr - self.starts[i]
        return self.blocks[i][..., lo:lo + size]


def word_view(image: WordMemory, addr: int, size: int, dt: DType,
              shape) -> np.ndarray:
    """The logical array stored in words `addr:addr + size` of `image`, as
    a live view of those words: writing the view writes the image.

    The leading axes of `image` index tiles (none for the controller image
    or one tile's, `(nx, ny)` for worker images); each tile holds its block
    of the array, contiguously.  The words are `"<u2"`, so the view is
    exact on any host byte order.
    """
    return image.words(addr, size).view(
        "<f4" if dt is DType.F32 else "<i2").reshape(shape)


def materialize_init(init: InitSpec, shape: tuple[int, ...], dtype: DType,
                     seed: int, var_index: int) -> np.ndarray:
    """A declared initializer as a frozen array of the declared `shape`
    (a scalar for `()`); `rand` and `randint` draw from
    `default_rng([seed, var_index])`."""
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
        out = rng.random(shape, dtype=np.float32)
        return out.astype(nd) if dtype is not DType.F32 else out
    if init.form == "randint":
        return rng.integers(init.lo, init.hi, shape, dtype=np.int16).astype(nd)
    raise ValueError(f"unknown init form {init.form!r}")


def initial_images(nx: int, ny: int, spans, inits):
    """The (worker, controller) images a run starts from: zeroed, with
    every initializer stored at its address.

    `spans` yields `(address, size_words)` per planned worker span: the
    worker image holds those words on each of the `nx` x `ny` tiles, and
    no other.  `inits` yields `(space, address, size_words, dtype, shape,
    init)` per initialized variable: its space (`"worker"` or
    `"controller"`), its absolute word address and per-tile size, its
    logical `shape` and its frozen initializer, which a scalar (`uls`)
    spreads to every worker.  The controller image is one span of
    `WORKER_WORDS`.
    """
    worker = WordMemory((nx, ny), spans)
    ctrl = WordMemory((), [(0, WORKER_WORDS)])
    for space, addr, size, dt, shape, init in inits:
        word_view(ctrl if space == "controller" else worker, addr, size, dt,
                  shape)[...] = init
    return worker, ctrl
