"""Planner tests: liveness intervals, best-fit placement, reuse, capacity."""
from __future__ import annotations

import pytest

import oracles
from genmem import random_graph
from helpers import LISTING1, graph_of
from machlite import memplan
from machlite.memplan import CapacityError, FreeList, lifespans, plan


def test_listing1_lifespans():
    g = graph_of(LISTING1, 10, 10)
    names = {g.memlocs[m].name: m for m in g.memlocs}
    spans = lifespans(g)
    # retained variables live 0..11; loop counter spans the loop; the
    # iterator temp is written and read within one iteration
    assert spans[names["myLA"]] == (0, 11)
    assert spans[names["myGA"]] == (0, 11)
    assert spans[names["myGS"]] == (0, 11)
    assert spans[names["mySum"]] == (0, 11)
    assert spans[names["%t0"]] == (3, 10)
    assert spans[names["%t1"]] == (7, 8)


def test_listing1_offsets_and_base_address():
    g = graph_of(LISTING1, 10, 10)
    names = {g.memlocs[m].name: m for m in g.memlocs}
    mp = plan(g)
    assert mp.entries[names["myLA"]].offset == 0
    assert mp.entries[names["myLA"]].alignment == memplan.BANK_WORDS
    assert mp.entries[names["mySum"]].offset == 20
    assert mp.entries[names["myGA"]].offset == 0
    assert mp.entries[names["myGS"]].offset == 20
    assert mp.entries[names["%t0"]].offset == 22      # i16 counter, word-aligned
    assert mp.entries[names["%t1"]].offset == 24      # f32 needs an even word
    assert mp.footprint == {"worker": 22, "controller": 26}
    # the first controller entry lands at byte address 0x5fe0
    assert 2 * mp.address_words(names["myGA"]) == 0x5FE0
    assert mp.address_words(names["myLA"]) == 0


def test_tmp_slot_reuse():
    src = """\
tmp la A[4,4,64] f32 = rand
out la B[4,4,64] f32
tmp la C[4,4,64] f32
B = A * 2.0
C = B + 1.0
B = C * C
"""
    g = graph_of(src)
    names = {g.memlocs[m].name: m for m in g.memlocs}
    spans = lifespans(g)
    assert spans[names["A"]] == (0, 0)
    assert spans[names["C"]] == (1, 2)
    mp = plan(g)
    # C lands back in A's freed bank-aligned slot
    assert mp.entries[names["A"]].offset == 0
    assert mp.entries[names["C"]].offset == 0
    assert mp.entries[names["B"]].offset == memplan.BANK_WORDS


def test_loop_body_reference_widens_tmp():
    src = """\
tmp la A[4,4,8] f32 = rand
ga G[3] f32 = rand
out la B[4,4,8] f32
B = A + 0.0
for v in G {
    B += A
}
"""
    g = graph_of(src)
    names = {g.memlocs[m].name: m for m in g.memlocs}
    loop = next(n for n in g.nodes if n.op_name == "loop")
    from machlite.irg import subgraph_span
    _, loop_end = subgraph_span(loop)
    assert lifespans(g)[names["A"]] == (0, loop_end)


def test_single_allocation_too_large():
    src = "la A[2,2,13000] f32 = rand\n"
    g = graph_of(src, 2, 2)
    with pytest.raises(CapacityError) as ei:
        plan(g)
    assert ei.value.space == "worker"
    assert ei.value.size == 26000


def test_bank_count_limits_concurrent_la():
    def prog(n):
        return "".join(f"la V{i}[4,4,1] f32 = rand\n" for i in range(n))
    mp = plan(graph_of(prog(8)))
    offs = sorted(e.offset for e in mp.entries.values() if e.space == "worker")
    assert offs == [i * memplan.BANK_WORDS for i in range(8)]
    with pytest.raises(CapacityError):
        plan(graph_of(prog(9)))


def test_free_list_coalesces_and_splits():
    fl = FreeList(100)
    a = fl.allocate(10, 1)
    b = fl.allocate(10, 1)
    c = fl.allocate(10, 1)
    assert (a, b, c) == (0, 10, 20)
    fl.free(a, 10)
    fl.free(c, 10)
    assert fl.blocks == [(0, 10), (20, 80)]
    fl.free(b, 10)
    assert fl.blocks == [(0, 100)]
    # best-fit prefers the smallest hole, ties by lowest offset
    fl.allocate(40, 1)
    fl.free(0, 10)
    fl.free(20, 10)
    assert fl.allocate(6, 1) == 0
    assert fl.allocate(8, 1) == 20
    # alignment splits a pre-gap back to the free list
    fl2 = FreeList(100)
    fl2.allocate(3, 1)
    got = fl2.allocate(4, 8)
    assert got == 8
    assert (3, 5) in fl2.blocks


def test_random_schedules_no_overlap_and_bounded():
    for seed in range(80):
        g = random_graph(seed)
        mp = plan(g, worker_budget=1 << 20)
        assert oracles.overlapping_allocations(mp.entries.values()) == [], seed
        peak = oracles.live_peak(mp.entries.values(), "worker")
        assert mp.footprint["worker"] <= 2 * peak or mp.footprint["worker"] == peak, seed


def test_equal_size_schedules_are_exact():
    for seed in range(40):
        g = random_graph(seed, equal_size=16)
        mp = plan(g, worker_budget=1 << 20)
        assert oracles.overlapping_allocations(mp.entries.values()) == [], seed
        assert mp.footprint["worker"] == oracles.live_peak(mp.entries.values(), "worker"), seed


def test_reserve_after_plan():
    g = graph_of(LISTING1, 10, 10)
    mp = plan(g)
    e = mp.reserve("worker", "mask:full", 7)
    assert e.offset == 22          # first hole past the planned data
    assert e.lifespan == (0, g.max_id())
    assert mp.footprint["worker"] == 29
    assert mp.reserved_address_words("mask:full") == 22
