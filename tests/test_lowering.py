"""Lowering: sections, distribution, masks, the RPC table, layout, emission."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import graph_of, LISTING1
from oracles import expected_section_layout
from machlite import irg, memplan, refinterp
from machlite.diagnostics import CompileError
from machlite.lowering import (
    assign_sections,
    build_layout,
    chunk_sizes,
    lower,
    mask_bit,
    region_members,
    resp_words,
    split_even,
)
from machlite.lowering.emit import emit_text
from machlite.lowering.layout import REDUCE, RESP, SPINE, WORKER


def lowered(src: str, nx: int = 4, ny: int = 4, seed: int = 0):
    g = graph_of(src, nx, ny, seed)
    plan = memplan.plan(g)
    return g, plan, lower(g, plan)


STRAIGHT5 = """\
la t[4,4,8] f32 = rand
t += t
t *= t
t += t
t *= t
t += t
"""

WITH_GS_ARG = """\
la t[4,4,8] f32 = rand
gs s f32 = 2.0
t += t
t *= t
t += s
t *= t
t += t
"""


# --- partition --------------------------------------------------------------

def test_straight_line_is_one_section():
    g, _plan, vm = lowered(STRAIGHT5)
    assert len(vm.sections) == 1
    assert len(vm.sections[0].ctrl_vector) == 5
    assert [s.node_ids for s in vm.sections] == expected_section_layout(g)


def test_gs_argument_forces_singleton_section():
    g, plan, vm = lowered(WITH_GS_ARG)
    assert [len(s.ctrl_vector) for s in vm.sections] == [2, 1, 2]
    assert [s.node_ids for s in vm.sections] == expected_section_layout(g)
    mid = vm.sections[1]
    # the controller scalar is a two-word f32 splice hole
    assert len(mid.splices) == 1
    pos, width, addr = mid.splices[0]
    assert width == 2
    assert addr == plan.address_words(g.by_name["s"])
    assert mid.args_vector[pos:pos + width] == [0, 0]


@pytest.mark.parametrize("src,nx,ny", [
    (LISTING1, 10, 10),
    (STRAIGHT5, 4, 4),
    (WITH_GS_ARG, 4, 4),
    ("""\
la S[4,4,8] f32 = rand
la I[4,4,5] i16 = randint(0, 8)
la M[4,4,5] f32 = rand
out la E[4,4,5] f32
la D[4,4,8] f32 = rand
E = take(S, I)
E = gather_mul(S, I, M)
put(D, I, M)
shift(M, E, row, 1)
""", 4, 4),
    ("""\
ga G[6] i16 = randint(0, 9)
la A[4,4,4] i16 = zeros
gs acc i16 = 0
uls u i16 = 0
for v in G {
    A += v
    acc += v
    reduce(A[0:2, 0:2, :], u)
}
reduce(A, acc)
""", 4, 4),
])
def test_section_layout_matches_boundary_oracle(src, nx, ny):
    g = graph_of(src, nx, ny, seed=3)
    vm = lower(g, memplan.plan(g))
    assert [s.node_ids for s in vm.sections] == expected_section_layout(g)


def test_sections_hold_no_controller_nodes():
    g, _plan, vm = lowered(LISTING1, 10, 10, seed=7)
    by_id = {n.id: n for n in irg.ordered_walk(g)}
    for sec in vm.sections:
        for nid in sec.node_ids:
            assert irg.node_placement(g, by_id[nid]) == "worker"


def test_listing1_exec_skeleton():
    g, plan, vm = lowered(LISTING1, 10, 10, seed=7)
    assert len(vm.sections) == 2
    ops = [i.op for i in vm.instrs]
    assert ops.count("bcast") == 2
    assert ops[-1] == "halt"
    # counter init, loop head compare against start+extent, trip marker
    assert vm.instrs[0].op == "mov" and vm.instrs[0].a == ("i", (0,))
    head = vm.instrs[1]
    assert head.op == "cmp_br" and head.cmp == ">=" and head.b == ("i", (10,))
    assert vm.instrs[2].op == "trip"
    # the loop-end target of the head equals the exit_if target
    exits = [i for i in vm.instrs if i.op == "cmp_br" and i.dtype == "f32"]
    assert len(exits) == 1 and exits[0].target == head.target
    # the GS accumulation runs on the executive, not in any section
    adds = [i for i in vm.instrs if i.op == "bin" and i.dtype == "f32"]
    assert len(adds) == 1
    assert adds[0].dst == plan.address_words(g.by_name["myGS"])
    # body section sits inside the loop, reduce section after it
    body_at = next(k for k, i in enumerate(vm.instrs)
                   if i.op == "bcast" and i.section == 0)
    jump_at = next(k for k, i in enumerate(vm.instrs) if i.op == "jump")
    assert body_at < jump_at < len(vm.instrs) - 1
    assert vm.instrs[head.target].op == "bcast"
    assert vm.instrs[head.target].section == 1


def test_args_arity_conservation():
    for src, nx in ((LISTING1, 10), (WITH_GS_ARG, 4), (STRAIGHT5, 4)):
        g = graph_of(src, nx, nx, seed=1)
        vm = lower(g, memplan.plan(g))
        for sec in vm.sections:
            need = sum(vm.rpcs.defs[rid].arity for rid in sec.ctrl_vector)
            assert need == len(sec.args_vector)


# --- the RPC table ----------------------------------------------------------

def test_flat_tensor_add_rpc():
    src = """\
la a[4,4,8] f32 = rand
la b[4,4,8] f32 = rand
a += b
"""
    _g, _plan, vm = lowered(src)
    names = [d.name for d in vm.rpcs.defs]
    assert names == ["ar_ar_add_f32"]
    assert vm.rpcs.defs[0].arity == 5          # src0, src1, dst, mask, length


def test_reduce_to_uls_splits_send_and_receive():
    src = """\
la a[4,4,8] f32 = rand
uls s f32 = 0.0
reduce(a, s)
"""
    _g, _plan, vm = lowered(src)
    names = [d.name for d in vm.rpcs.defs]
    assert names == ["aw1_reduce_send_f32_uls", "reduce_bcast_f32"]
    assert vm.sections[0].ctrl_vector == [0, 1]


def test_reduce_to_gs_ends_section_and_emits_recv():
    src = """\
la a[4,4,8] f32 = rand
la b[4,4,8] f32 = rand
gs s f32 = 0.0
a += b
reduce(a, s)
b += b
"""
    g, plan, vm = lowered(src)
    names = [d.name for d in vm.rpcs.defs]
    # reduce sources always carry an explicit window, so aw1 even when full
    assert "aw1_reduce_send_f32_gs" in names
    assert not any(d.kind == "reduce_bcast" for d in vm.rpcs.defs)
    # add+send share a section; the trailing add starts a new one
    assert [len(s.ctrl_vector) for s in vm.sections] == [2, 1]
    recvs = [i for i in vm.instrs if i.op == "recv"]
    assert len(recvs) == 1
    assert recvs[0].dst == plan.address_words(g.by_name["s"])


def test_dynamic_stop_operand_encoding():
    src = """\
la A[2,2,8] f32 = rand
la B[2,2,8] f32 = rand
ls n i16 = [2, 5, 0, 8]
A[:, :, 0:n] = B[:, :, 0:n] * 2.0
"""
    g, plan, vm = lowered(src, 2, 2)
    d = next(d for d in vm.rpcs.defs if d.kind == "map")
    assert d.has_dyn
    assert any(s.token == "ad1" for s in d.srcs) or d.dst.token == "ad1"
    sec = vm.sections[0]
    # the trailing args word is the per-worker stop variable's address
    assert sec.args_vector[-1] == plan.address_words(g.by_name["n"])


def test_shift_args_carry_geometry():
    src = """\
la A[4,4,3] f32 = rand
la B[4,4,3] f32 = rand
shift(B[0:3, 1:4, :], A[0:3, 1:4, :], row, 1)
"""
    _g, _plan, vm = lowered(src)
    d = vm.rpcs.defs[0]
    assert d.kind == "shift"
    words = vm.sections[0].args_vector
    # trailing geometry: len, dx, dy, x0, x1, y0, y1
    assert words[-7:] == [3, 1, 0, 0, 3, 1, 4]


# --- distribution -----------------------------------------------------------

def test_chunk_sizes_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        total = int(rng.integers(0, 64))
        n = int(rng.integers(1, 9))
        sizes = chunk_sizes(total, n)
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)   # earlier positions first


def test_chunk_examples():
    assert chunk_sizes(6, 2) == [3, 3]
    assert chunk_sizes(5, 2) == [3, 2]
    assert split_even(list(range(8)), 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_distribution_reconstructs_vectors():
    rng = np.random.default_rng(5)

    class Sec:
        pass

    for trial in range(50):
        n_resp = int(rng.choice([2, 4, 6]))
        sec = Sec()
        sec.index = 0
        sec.ctrl_vector = [int(v) for v in rng.integers(0, 9, int(rng.integers(0, 12)))]
        sec.args_vector = [int(v) for v in rng.integers(0, 2 ** 16, int(rng.integers(0, 40)))]
        sec.splices = []
        per_pos = assign_sections([sec], n_resp)
        ctrl, args = [], []
        for pos in range(n_resp):
            ctrl += per_pos[pos][0].ctrl
            args += per_pos[pos][0].args
        assert ctrl == sec.ctrl_vector
        assert args == sec.args_vector
        assert resp_words([per_pos[p][0] for p in range(n_resp)][0:1]) == \
            len(per_pos[0][0].ctrl) + len(per_pos[0][0].args)


def test_splices_land_in_the_right_chunks():
    g, plan, vm = lowered(WITH_GS_ARG)
    sec = vm.sections[1]
    (gpos, width, _addr), = sec.splices
    covered = []
    at = 0
    for pos in range(vm.n_resp):
        chunk = vm.chunks[pos][sec.index]
        assert len(chunk.patch) == width        # one entry per wake-stream word
        for word, local in enumerate(chunk.patch):
            if local is not None:
                assert at + local == gpos + word
                covered.append(word)
        at += len(chunk.args)
    assert sorted(covered) == [0, 1]


# --- masks ------------------------------------------------------------------

def test_full_grid_mask_shared_and_all_ones():
    g, _plan, vm = lowered(STRAIGHT5)
    entries = vm.masks.ordered()
    assert len(entries) == 1                   # five statements, one slicing
    sig = entries[0].sig
    assert region_members(sig, 4, 4) == {(x, y) for x in range(4) for y in range(4)}


def test_mask_slice_count_on_10x10():
    src = """\
la A[10,10,4] f32 = rand
A[1:4, 3:5, :] += A[1:4, 3:5, :]
"""
    _g, _plan, vm = lowered(src, 10, 10)
    sig = vm.masks.ordered()[0].sig
    assert len(region_members(sig, 10, 10)) == 6


def test_identical_slicings_share_one_mask():
    src = """\
la A[10,10,4] f32 = rand
A[1:4, 3:5, :] += A[1:4, 3:5, :]
A[1:4, 3:5, :] *= A[1:4, 3:5, :]
A[2:6, 0:2, :] += A[2:6, 0:2, :]
"""
    _g, _plan, vm = lowered(src, 10, 10)
    assert len(vm.masks.ordered()) == 2
    # both adds on the first slicing reference the same address word
    a0 = vm.masks.ordered()[0].address
    hits = sum(1 for sec in vm.sections for w in sec.args_vector if w == a0)
    assert hits == 2


def test_mask_bit_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(100):
        nx = int(rng.choice([4, 8, 10, 16]))
        ny = int(rng.choice([4, 8, 10, 16]))
        x0 = int(rng.integers(0, nx))
        x1 = int(rng.integers(x0 + 1, nx + 1))
        y0 = int(rng.integers(0, ny))
        y1 = int(rng.integers(y0 + 1, ny + 1))
        sig = ((x0, x1, int(rng.integers(1, 4))), (y0, y1, int(rng.integers(1, 4))))
        members = {(x, y) for x in range(x0, x1, sig[0][2])
                   for y in range(y0, y1, sig[1][2])}
        got = {(x, y) for x in range(nx) for y in range(ny) if mask_bit(sig, x, y)}
        assert got == members == region_members(sig, nx, ny)


# --- layout -----------------------------------------------------------------

@pytest.mark.parametrize("nx,ny", [(2, 2), (4, 4), (10, 10), (16, 8)])
def test_layout_role_counts(nx, ny):
    lay = build_layout(nx, ny, 4)
    assert (lay.gw, lay.gh) == (nx + 4, ny + 3)
    counts = {}
    for role in lay.roles.values():
        counts[role] = counts.get(role, 0) + 1
    assert counts[WORKER] == nx * ny
    assert counts[REDUCE] == 2 * nx
    assert counts.get(RESP, 0) == 4
    assert counts["merge"] == 1 and counts["exec"] == 1
    assert counts.get(SPINE, 0) == max(0, nx - 2 - sum(
        1 for (x, y) in lay.resp_order if 2 <= x < nx + 2))


def test_drain_order_oscillates_inside_out():
    lay = build_layout(10, 10, 6)
    xm, xe, yc = lay.xm, lay.xe, lay.yc
    assert lay.resp_order == [(xm - 1, yc), (xe + 1, yc), (xm - 2, yc),
                              (xe + 2, yc), (xm - 3, yc), (xe + 3, yc)]


def test_checkerboard_phases():
    lay = build_layout(6, 6, 2)
    for wx, wy in lay.workers():
        for dx, dy in ((1, 0), (0, 1)):
            qx, qy = wx + dx, wy + dy
            if qx < 6 and qy < 6:
                assert lay.phase(wx, wy) != lay.phase(qx, qy)


def test_control_strip_between_halves():
    lay = build_layout(8, 8, 4)
    assert lay.yru + 1 == lay.yc == lay.yrl - 1
    for x in range(2, 10):
        assert lay.roles[(x, lay.yru)] == REDUCE
        assert lay.roles[(x, lay.yrl)] == REDUCE
    # worker halves sit immediately above and below the strip
    assert lay.roles[(4, lay.yru - 1)] == WORKER
    assert lay.roles[(4, lay.yrl + 1)] == WORKER
    assert lay.fabric_of(2, 3) == (4, lay.yru - 1)
    assert lay.fabric_of(2, 4) == (4, lay.yrl + 1)


def test_layout_rejects_bad_grids():
    with pytest.raises(CompileError):
        build_layout(3, 4, 4)
    with pytest.raises(CompileError):
        build_layout(4, 4, 3)
    with pytest.raises(CompileError):
        build_layout(2, 2, 12)      # flanks wider than the control row


def test_response_capacity_growth():
    g = graph_of(LISTING1, 10, 10, seed=7)
    plan = memplan.plan(g)
    vm = lower(g, plan, n_resp=2, resp_capacity=8)
    assert vm.n_resp > 2 and vm.n_resp % 2 == 0
    assert max(resp_words(per) for per in vm.chunks) <= 8
    vm.validate()


def test_virtual_task_flag():
    g = graph_of(LISTING1, 10, 10, seed=7)
    vm = lower(g, memplan.plan(g), task_table_size=2)
    assert vm.virtual_tasks
    assert "[virtual_tasks]" in emit_text(vm)["exec.asm"]
    g2 = graph_of(LISTING1, 10, 10, seed=7)
    vm2 = lower(g2, memplan.plan(g2))
    assert not vm2.virtual_tasks


# --- emission ---------------------------------------------------------------

@pytest.mark.parametrize("src,nx", [(LISTING1, 10), (WITH_GS_ARG, 4)])
def test_emission_round_trip_byte_identical(src, nx):
    g = graph_of(src, nx, nx, seed=7)
    vm = lower(g, memplan.plan(g))
    files = emit_text(vm)
    again = lower(graph_of(src, nx, nx, seed=7), memplan.plan(graph_of(src, nx, nx, seed=7)))
    assert emit_text(again) == files          # deterministic across builds


def test_exec_listing_mentions_loop_and_broadcasts():
    g = graph_of(LISTING1, 10, 10, seed=7)
    vm = lower(g, memplan.plan(g))
    text = emit_text(vm)["exec.asm"]
    assert "cmp_br.i16 >= " in text and "#10 -> " in text
    assert text.count("bcast") == 2


def test_empty_program_emits_layout_only():
    g = graph_of("la t[4,4,8] f32 = rand\n")
    vm = lower(g, memplan.plan(g))
    assert vm.sections == []
    assert [i.op for i in vm.instrs] == ["halt"]
    files = emit_text(vm)
    assert "[sections]" in files["exec.asm"]
    assert "section 0" not in files["exec.asm"]
    assert "[exec]\n0: halt\n[sections]\n" in files["exec.asm"]


def test_footprint_must_hold_every_worker_word():
    _g, _plan, vm = lowered(STRAIGHT5)
    with pytest.raises(CompileError, match="past the .*-word worker footprint"):
        dataclasses.replace(vm, worker_words=vm.worker_words - 1).validate()


def test_initial_images_match_planned_store():
    src = """\
la A[4,4,6] f32 = rand
la B[4,4,3] i16 = randint(0, 5)
ls s f32 = rand
uls u i16 = 7
gs c f32 = 1.5
ga G[5] i16 = randint(0, 4)
A += A
"""
    g = graph_of(src, seed=9)
    plan = memplan.plan(g)
    vm = lower(g, plan)
    worker, ctrl = vm.build_images()
    store = refinterp.PlannedStore(g, plan)
    # both worker images span the plan's footprint, masks included
    assert vm.worker_words == plan.footprint["worker"] == max(
        e.offset + e.size_words for e in [*plan.entries.values(), *plan.reserved.values()]
        if e.space == "worker")
    assert worker.shape == store.worker.shape == (4, 4, vm.worker_words)
    for sym in vm.symbols:
        if vm.inits.get(sym.mlid) is None:
            continue
        if sym.space == "controller":
            e = plan.entries[sym.mlid]
            got = ctrl[sym.address:sym.address + sym.size_words]
            want = store.controller[e.offset:e.offset + e.size_words]
            assert np.array_equal(got, want), sym.name
        else:
            e = plan.entries[sym.mlid]
            for x in range(4):
                for y in range(4):
                    got = worker[x, y, sym.address:sym.address + sym.size_words]
                    want = store.worker[x, y, e.offset:e.offset + e.size_words]
                    assert np.array_equal(got, want), (sym.name, x, y)
    # mask words are in place
    for entry in vm.masks.ordered():
        for x in range(4):
            for y in range(4):
                assert worker[x, y, entry.address] == mask_bit(entry.sig, x, y)
