"""Reference interpreter semantics, checked against direct numpy math."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import LISTING1, compiled, graph_of
from machlite import refinterp
from machlite.diagnostics import SimFault
from machlite.memplan import plan


def test_elementwise_chain_bit_exact():
    src = """\
la A[4,4,8] f32 = rand
la B[4,4,8] f32 = rand
la D[4,4,8] f32 = rand
out la E[4,4,8] f32
E = (A + B) * D
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    want = (i["A"].astype(np.float32) + i["B"]) * i["D"]
    assert np.array_equal(res.by_name(g, "E"), want)
    assert want.dtype == np.float32


def test_strided_slice_window():
    src = """\
la A[4,4,8] f32 = rand
la B[4,4,8] f32 = rand
A[0:4:2, 1:4:2, 2:5] += B[0:4:2, 1:4:2, 0:3]
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    want = i["A"].copy()
    want[0:4:2, 1:4:2, 2:5] = want[0:4:2, 1:4:2, 2:5] + i["B"][0:4:2, 1:4:2, 0:3]
    assert np.array_equal(res.by_name(g, "A"), want)


def test_pescalar_and_gs_broadcast():
    src = """\
la A[4,4,6] f32 = rand
ls s f32 = rand
gs c f32 = 2.5
out la E[4,4,6] f32
E = A * s + c
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    want = (i["A"] * i["s"][:, :, None] + np.float32(2.5)).astype(np.float32)
    assert np.array_equal(res.by_name(g, "E"), want)


def test_loop_accumulate_and_break():
    src = """\
ga G[8] f32 = rand
gs acc f32 = 0.0
la A[4,4,2] f32 = zeros
for v in G {
    acc += v
    exit_if acc > 1.5
    A += 1.0
}
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    ga = i["G"]
    acc = np.float32(0.0)
    adds = 0
    trips = 0
    for v in ga:
        trips += 1
        acc = np.float32(acc + v)
        if acc > 1.5:
            break
        adds += 1
    assert res.by_name(g, "acc") == acc
    assert np.all(res.by_name(g, "A") == np.float32(adds))
    loop_id = next(n.id for n in g.nodes if n.op_name == "loop")
    assert res.loop_trips == {loop_id: trips}


def test_reduce_f32_sequential_order():
    src = """\
la A[4,4,8] f32 = rand
gs total f32 = 0.0
reduce(A[1:3, 0:4:2, 2:6], total)
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    a = i["A"]
    acc = np.float32(0.0)
    for x in range(1, 3):
        for y in range(0, 4, 2):
            for v in a[x, y, 2:6]:
                acc = np.float32(acc + v)
    assert res.by_name(g, "total") == acc


def test_reduce_i16_wraps_and_uls_target():
    src = """\
la A[4,4,9] i16 = randint(-2000, 2000)
uls t i16 = 0
reduce(A, t)
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    want = np.int64(i["A"].astype(np.int64).sum()).astype(np.int16)
    out = res.by_name(g, "t")
    assert out.shape == (4, 4)
    assert np.all(out == want)
    # the result reaches every worker, and i16 reduction is not tainted
    assert g.by_name["t"] not in res.tainted


def test_shift_row_and_col():
    src = """\
la A[4,4,3] f32 = rand
la B[4,4,3] f32 = rand
shift(B[0:3, 1:4, :], A[0:3, 1:4, :], row, 1)
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    want = i["B"].copy()
    # receiving worker (x, y) takes the value from (x-1, y) within the region
    for x in range(0, 3):
        for y in range(1, 4):
            if 0 <= x - 1 < 3:
                want[x, y] = i["A"][x - 1, y]
    assert np.array_equal(res.by_name(g, "B"), want)

    src2 = """\
ls a f32 = rand
ls b f32 = rand
shift(b, a, col, -1)
"""
    i2, g2 = compiled(src2)
    res2 = refinterp.run(g2)
    want2 = i2["b"].copy()
    for x in range(4):
        for y in range(4):
            if 0 <= y + 1 < 4:
                want2[x, y] = i2["a"][x, y + 1]
    assert np.array_equal(res2.by_name(g2, "b"), want2)


def test_shift_same_variable_in_place():
    src = """\
la A[4,4,2] f32 = rand
shift(A, A, col, 1)
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    a = i["A"]
    want = a.copy()
    want[:, 1:] = a[:, :-1]  # y=0 keeps its previous contents
    assert np.array_equal(res.by_name(g, "A"), want)


def test_gather_scatter_gather_mul():
    src = """\
la S[4,4,8] f32 = rand
la I[4,4,5] i16 = randint(0, 8)
la M[4,4,5] f32 = rand
out la E[4,4,5] f32
la D[4,4,8] f32 = rand
E = take(S, I)
E = gather_mul(S, I, M)
put(D, I, M)
"""
    i, g = compiled(src)
    res = refinterp.run(g)
    take_want = np.empty((4, 4, 5), np.float32)
    gm_want = np.empty((4, 4, 5), np.float32)
    put_want = i["D"].copy()
    for x in range(4):
        for y in range(4):
            idx = i["I"][x, y]
            take_want[x, y] = i["S"][x, y][idx]
            gm_want[x, y] = (i["S"][x, y][idx] * i["M"][x, y]).astype(np.float32)
            for k, j in enumerate(idx):
                put_want[x, y, j] = i["M"][x, y, k]
    assert np.array_equal(res.by_name(g, "E"), gm_want)
    assert np.array_equal(res.by_name(g, "D"), put_want)


def test_gather_out_of_range_faults():
    src = """\
la S[2,2,4] f32 = rand
la I[2,2,2] i16 = [0, 9, 0, 1, 0, 1, 0, 1]
out la E[2,2,2] f32
E = take(S, I)
"""
    g = graph_of(src, 2, 2)
    with pytest.raises(SimFault) as err:
        refinterp.run(g)
    assert str(err.value) == \
        "gather index 9 outside window of 4 elements at PE (0, 0), element 1"


def test_dynamic_stop_per_worker():
    src = """\
la A[2,2,8] f32 = rand
la B[2,2,8] f32 = rand
ls n i16 = [2, 5, 0, 8]
A[:, :, 0:n] = B[:, :, 0:n] * 2.0
"""
    i, g = compiled(src, 2, 2)
    res = refinterp.run(g)
    want = i["A"].copy()
    for x in range(2):
        for y in range(2):
            ln = int(i["n"][x, y])
            want[x, y, :ln] = i["B"][x, y, :ln] * np.float32(2.0)
    assert np.array_equal(res.by_name(g, "A"), want)


def test_dynamic_stop_out_of_range_faults():
    src = """\
la A[2,2,4] f32 = rand
la B[2,2,4] f32 = rand
ls n i16 = [2, 9, 1, 0]
A[:, :, 0:n] = B[:, :, 0:n]
"""
    g = graph_of(src, 2, 2)
    with pytest.raises(SimFault, match="dynamic stop 9"):
        refinterp.run(g)


def test_integer_division_truncates_and_zero_is_zero():
    src = """\
la A[2,2,2] i16 = [-7, 7, -7, 7, -7, 7, -7, 7]
la B[2,2,2] i16 = [2, 0, 2, 0, 2, 0, 2, 0]
out la Q[2,2,2] i16
Q = A / B
"""
    g = graph_of(src, 2, 2)
    res = refinterp.run(g)
    assert np.array_equal(res.by_name(g, "Q")[0, 0], np.array([-3, 0], np.int16))


def test_taint_propagation():
    src = """\
la A[4,4,4] f32 = rand
gs t f32 = 0.0
out la B[4,4,4] f32
la C[4,4,4] i16 = randint(0, 5)
uls u i16 = 0
reduce(A, t)
B = A + t
reduce(C, u)
"""
    g = graph_of(src)
    tainted = refinterp.reduce_taint(g)
    assert g.by_name["t"] in tainted
    assert g.by_name["B"] in tainted
    assert g.by_name["A"] not in tainted
    assert g.by_name["u"] not in tainted


def test_planned_replay_matches_symbolic():
    for src, dims in [
        (LISTING1, (10, 10)),
        ("""\
tmp la A[4,4,16] f32 = rand
out la B[4,4,16] f32
tmp la C[4,4,16] f32
gs s f32 = 0.0
B = A * 2.0
C = B + A
B = C * C
reduce(B[:, :, 0:3], s)
""", (4, 4)),
    ]:
        g = graph_of(src, *dims)
        a = refinterp.run(g)
        b = refinterp.run(g, plan(g))
        assert refinterp.diff_results(g, a, b) == [], src


def test_overlapping_plan_corrupts_the_planned_run():
    # the planned run reads and writes the planned words, so a plan that
    # puts two live variables on one block shows against the symbolic run
    g = graph_of("out la A[4,4,8] f32 = rand\nout la B[4,4,8] f32\nB = A * 2.0\n")
    good = plan(g)
    a, b = g.by_name["A"], g.by_name["B"]
    bad = dataclasses.replace(good, entries={
        **good.entries, b: dataclasses.replace(good.entries[b], offset=good.entries[a].offset)})
    sym, got = refinterp.run(g), refinterp.run(g, bad)
    assert refinterp.diff_results(g, sym, refinterp.run(g, good)) == []
    assert [m.split(":")[0] for m in refinterp.diff_results(g, sym, got)] == ["A"]
    assert np.array_equal(got.values[a], sym.values[b])
    assert np.array_equal(got.values[b], sym.values[b])


def test_diff_reports_mismatch():
    g = graph_of("out la E[4,4,2] f32\nE = 1.0\n")
    a = refinterp.run(g)
    b = refinterp.run(g)
    b.values[g.by_name["E"]] = b.values[g.by_name["E"]].copy()
    b.values[g.by_name["E"]][1, 2, 0] = 7.0
    msgs = refinterp.diff_results(g, a, b)
    assert len(msgs) == 1 and "E" in msgs[0] and "(1, 2, 0)" in msgs[0]


NAN_SRC = """\
la A[2,2,4] f32 = zeros
out la B[2,2,4] f32
gs s f32 = 0.0
B = A / A
reduce(B, s)
"""


def nan_results():
    """Two reference results of NAN_SRC, whose B and s are NaN, the second
    with copied values that a test may change."""
    g = graph_of(NAN_SRC, 2, 2)
    a, b = refinterp.run(g), refinterp.run(g, plan(g))
    b.values = {k: v.copy() for k, v in b.values.items()}
    B, s = g.by_name["B"], g.by_name["s"]
    assert np.isnan(a.values[B]).all() and np.isnan(a.values[s])
    assert s in a.tainted and B not in a.tainted
    return g, a, b, B, s


def test_diff_nan_on_both_sides_agrees():
    # B compares exactly, the reduction result s to tolerance
    g, a, b, _, _ = nan_results()
    assert refinterp.diff_results(g, a, b) == []


def test_diff_nan_against_a_number_is_a_mismatch():
    g, a, b, B, s = nan_results()
    b.values[B][1, 0, 3] = 1.0
    b.values[s][()] = 1.0
    msgs = refinterp.diff_results(g, a, b)
    assert [m.split(":")[0] for m in msgs] == ["B", "s"]


def test_diff_worst_index_skips_equal_positions():
    g, a, b, B, _ = nan_results()
    # NaN and inf on both sides are equal there; only (1, 1, 2) differs
    a.values[B][0] = np.inf
    b.values[B][0] = np.inf
    a.values[B][1, 1, 2] = -np.inf
    b.values[B][1, 1, 2] = 0.0
    assert refinterp.diff_results(g, a, b) == [
        "B: values differ, worst at (1, 1, 2): -inf vs 0.0"]
    b.values[B][1, 1, 2] = -np.inf
    b.values[B][1, 0, 3] = 1.0
    assert refinterp.diff_results(g, a, b) == [
        "B: values differ, worst at (1, 0, 3): nan vs 1.0"]
