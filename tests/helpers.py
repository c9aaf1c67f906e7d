"""Shared fixtures-free helpers for the test suite."""
from __future__ import annotations

import numpy as np

from machlite import irg
from machlite.frontend import GridConfig, analyze, parse


# several workers of a 4x4 grid hold an index out of range: (source, the
# least fault by (x, y), then element, which both backends report)
MANY_FAULTS = (
    "la a[4,4,4] i16 = randint(0, 5)\nla b[4,4,4] f32 = rand\n"
    "b[:, :, :] = take(b[:, :, :], a[:, :, :])\n",
    "gather index 4 outside window of 4 elements at PE (0, 0), element 1")


def typed_of(src: str, nx: int = 4, ny: int = 4):
    prog, diags = parse(src)
    assert not diags, diags
    typed, diags = analyze(prog, GridConfig(nx, ny))
    assert typed is not None, diags
    return typed


def graph_of(src: str, nx: int = 4, ny: int = 4, seed: int = 0) -> irg.IRGraph:
    return compiled(src, nx, ny, seed)[1]


def compiled(src: str, nx: int = 4, ny: int = 4, seed: int = 0):
    """(inits, graph) pair: the frozen init array of each initialized
    variable by name, and the IR graph built from them."""
    typed = typed_of(src, nx, ny)
    inits = irg.frozen_inits(typed, seed)
    g = irg.build(typed, inits)
    assert irg.validate(g) == []
    return inits, g


def dense(image, shape) -> np.ndarray:
    """A `memwords.WordMemory` as one `"<u2"` array of `shape`, zero outside
    its spans: the layout of the dense image that the word memory replaced.
    Tests only; no run reads it."""
    out = np.zeros(shape, dtype="<u2")
    for start, end, block in zip(image.starts, image.ends, image.blocks):
        out[..., start:end] = block
    return out


LISTING1 = """\
la myLA[10,10,10] f32 = rand
ga myGA[10] f32 = rand
gs myGS f32 = 0.0
uls mySum f32 = 0.0

for a in myGA {
    myGS += a
    exit_if myGS > 100.0
    myLA[1:4, 3:5, 1:2] += myLA[1:4, 3:5, 8:9]
}

reduce(myLA, mySum)
"""


# DSL forms that neither programs/ nor the fuzzer produce
FORMS = {
    "take_in_expression": (
        "la a[4,4,8] i16 = randint(0, 8)\nla b[4,4,8] i16 = randint(0, 9)\n"
        "la c[4,4,8] i16 = randint(0, 9)\nc = take(b, a) + c\n"),
    "nested_temporaries": (
        "la a[4,4,8] f32 = rand\nla b[4,4,8] f32 = rand\nla c[4,4,8] f32 = rand\n"
        "c = (a + b) * a - c\n"),
    "ga_element_load": (
        "la a[4,4,8] f32 = rand\nga g[3] f32 = rand\ngs s f32 = 0.0\n"
        "s = g[1]\na *= g[2]\n"),
    "per_worker_scalar": (
        "la a[4,4,8] f32 = rand\nls p f32 = rand\nls q f32 = rand\nq = p * p + q\n"),
    "fill_and_copy": (
        "la a[4,4,8] f32 = rand\nuls u f32 = 2.5\nls q f32 = rand\nq = u\na = 3.0\n"),
    "range_loop": "la a[4,4,8] f32 = rand\nfor i in range(3) {\n    a += 1.0\n}\n",
    "reduce_into_uninitialized_gs": (
        "la b[4,4,8] f32 = rand\ngs t f32\nreduce(b, t)\n"),
    "reduce_into_uninitialized_uls": (
        "la b[4,4,8] f32 = rand\nuls u f32\nla c[4,4,8] f32 = rand\n"
        "reduce(b, u)\nc *= u\n"),
    # every source element is read before any element is written
    "put_aliased_source": (
        "la a[4,4,8] f32 = rand\nla i[4,4,4] i16 = randint(0, 4)\n"
        "put(a[:, :, 2:6], i, a[:, :, 0:4])\n"),
    "copy_overlapping_windows": (
        "la a[4,4,8] f32 = rand\na[:, :, 0:7] = a[:, :, 1:8]\n"
        "a[:, :, 1:8] = a[:, :, 0:7]\n"),
    # the expression temporary holds the dynamic window
    "dynamic_stop_expression": (
        "la a[4,4,8] f32 = rand\nla b[4,4,8] f32 = rand\nla c[4,4,8] f32 = rand\n"
        "ls nn i16 = 5\na[:, :, 0:nn] = b[:, :, 0:nn] + c[:, :, 0:nn] * 2.0\n"),
    "dynamic_stop_expression_rank4": (
        "la a[4,4,4,8] f32 = rand\nla b[4,4,4,8] f32 = rand\n"
        "la c[4,4,4,8] f32 = rand\nls nn i16 = 5\n"
        "a[:, :, 0:2, 1:nn] = b[:, :, 0:2, 1:nn] + c[:, :, 0:2, 1:nn] * 2.0\n"),
    # a shift whose destination overlaps its source: every worker sends the
    # words it held before the shift
    "shift_in_place": "la A[4,4,2] f32 = rand\nshift(A, A, col, 1)\n",
    "shift_overlapping_windows": (
        "la A[4,4,6] i16 = randint(0, 9)\n"
        "shift(A[:, :, 1:5], A[:, :, 0:4], row, -1)\n"),
    "shift_overlapping_windows_rank4": (
        "la A[4,4,3,5] f32 = rand\n"
        "shift(A[:, :, 0:3, 1:5], A[:, :, 0:3, 0:4], row, 1)\n"),
}
