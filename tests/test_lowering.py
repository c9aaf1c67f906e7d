"""Lowering: sections, distribution, masks, the RPC table, layout, emission."""
from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from helpers import FORMS, dense, graph_of, LISTING1
from oracles import expected_section_layout
from machlite import irg, memplan, refinterp
from machlite.diagnostics import CompileError
from machlite.frontend.syntax import DType
from machlite.fuzz import gen_source
from machlite.lowering import sections
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
from machlite.lowering import emit, layout
from machlite.lowering.emit import emit_paint, emit_text
from machlite.lowering.layout import REDUCE, RESP, SPINE, WORKER
from machlite.lowering.rpc import (
    KIND_FIELDS, OperandSpec, RpcTable, decode_frame, encode_frame)
from machlite.memwords import WORKER_WORDS, initial_images, word_view
from machlite.pipeline import check, compile_source, run_reference
from machlite.sim import Machine, SimConfig
from machlite.sim.roles import WorkerCpu
from machlite.sim.router import PORTS

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))


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
    """A section's args vector holds exactly its tasks' frames: `encode_frame`
    sizes each frame, and this checks how `flush` joins them."""
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
    d = vm.rpcs.defs[0]
    assert list(d.frame) == ["src0", "src1", "dst", "mask", "len"]
    assert d.arity == 5


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
    assert "dyn_stop" in d.frame
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


# --- the argument frame -----------------------------------------------------

def test_frame_round_trips_every_emitted_task(monkeypatch):
    """Decoding the words of every task that the programs, the FORMS cases
    and fuzz sources 0-999 lower to gives back the fields it was encoded
    from, and every kind is among them."""
    tasks = []

    def recording(rd, **fields):
        words = encode_frame(rd, **fields)
        tasks.append((rd, fields, words))
        return words

    monkeypatch.setattr(sections, "encode_frame", recording)
    sources = [p.read_text() for p in PROGRAMS] + list(FORMS.values())
    for text in sources:
        compile_source(text)
    for seed in range(1000):
        compile_source(gen_source(seed), seed=seed)
    for rd, fields, words in tasks:
        assert len(words) == rd.arity
        got = decode_frame(rd, words)
        assert list(got) == list(rd.frame)
        assert {k: list(v) for k, v in got.items()} == {k: list(v) for k, v in fields.items()}
    assert {rd.kind for rd, _, _ in tasks} == set(KIND_FIELDS)
    assert any("dyn_stop" in rd.frame for rd, _, _ in tasks)


@pytest.mark.parametrize("fields", [
    dict(src0=[10], src1=[20], dst=[30], mask=[40]),
    dict(src0=[10], src1=[20], dst=[30], mask=[40], len=[8], dx=[1]),
    dict(src0=[10, 11], src1=[20], dst=[30], mask=[40], len=[8]),
    dict(src0=[10], src1=[20], dst=[30], mask=[], len=[8]),
], ids=["missing", "extra", "wide", "narrow"])
def test_encoder_rejects_a_frame_mismatch(fields):
    ar = OperandSpec("ar", 1)
    rd = RpcTable().intern("map", "add", "f32", [ar, ar], ar)
    with pytest.raises(ValueError):
        encode_frame(rd, **fields)


def worker_kernels(path: Path) -> dict[str, list[str]]:
    """The field names each RPC of the program's worker listing names."""
    kernels: dict[str, list[str]] = {}
    body = None
    for line in emit_text(compile_source(path.read_text()).vm)["worker.asm"].splitlines():
        if line.startswith("  "):
            body.append(line.split()[0])
        elif line[:1].isdigit():
            body = kernels[line.split()[1]] = []
    return kernels


def test_worker_listing_names_every_field():
    root = PROGRAMS[0].parent
    shift = worker_kernels(root / "stencil.mach")["ar_ar_shift_f32"]
    assert shift[1:] == ["src0", "dst", "len", "dx", "dy", "x0", "x1", "y0", "y1",
                         "exchange"]
    bcast = worker_kernels(root / "reductions.mach")["reduce_bcast_f32"]
    assert bcast[1:] == ["dst", "recv"]


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


def planned_store(g, plan, monkeypatch):
    """`refinterp.memory(g, plan)` and the (worker, controller) images that
    its views read."""
    made = []

    def spy(*args):
        made.append(initial_images(*args))
        return made[-1]

    monkeypatch.setattr(refinterp, "initial_images", spy)
    store = refinterp.memory(g, plan)
    (images,) = made
    return store, images


def test_initial_images_match_planned_store(monkeypatch):
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
    planned, (p_worker, p_ctrl) = planned_store(g, plan, monkeypatch)
    # the worker image spans the plan's footprint, masks included
    assert vm.worker_words == plan.footprint["worker"] == max(
        e.offset + e.size_words for e in [*plan.entries.values(), *plan.reserved.values()]
        if e.space == "worker")
    assert worker.ends[-1] == vm.worker_words
    assert {b.shape[:-1] for b in worker.blocks} == {(4, 4)}
    assert [b.shape for b in ctrl.blocks] == [(WORKER_WORDS,)]
    # the planned views read images of the same spans, equal to these at
    # every init's absolute address, and hold the values stored there
    for got, want in ((p_worker, worker), (p_ctrl, ctrl)):
        assert (got.starts, got.ends) == (want.starts, want.ends)
        assert [b.shape for b in got.blocks] == [b.shape for b in want.blocks]
    for sym in vm.symbols:
        if vm.inits.get(sym.mlid) is None:
            continue
        image, p_image = (ctrl, p_ctrl) if sym.space == "controller" else (worker, p_worker)
        base = p_image.words(sym.address, sym.size_words)   # the words the view reads
        assert np.shares_memory(planned[sym.mlid], base), sym.name
        words = image.words(sym.address, sym.size_words)
        assert words.any(), sym.name
        assert np.array_equal(base, words), sym.name
        words = word_view(image, sym.address, sym.size_words, sym.dtype, sym.shape)
        assert np.array_equal(planned[sym.mlid], words), sym.name
    # mask words are in place
    worker = dense(worker, (4, 4, vm.worker_words))
    for entry in vm.masks.ordered():
        for x in range(4):
            for y in range(4):
                assert worker[x, y, entry.address] == mask_bit(entry.sig, x, y)


def image_bundles(group: str):
    """(name, bundle) of the 8 programs, the `FORMS` cases or `gen_source`
    seeds 0-199."""
    if group == "programs":
        return [(p.stem, compile_source(p.read_text())) for p in PROGRAMS]
    if group == "forms":
        return [(n, compile_source(src)) for n, src in sorted(FORMS.items())]
    return [(f"seed {s}", compile_source(gen_source(s), seed=s)) for s in range(200)]


@pytest.mark.parametrize("group", ["programs", "forms", "fuzz"])
def test_images_hold_the_planned_words_and_nothing_else(group, monkeypatch):
    """The worker image holds exactly the words of the worker symbols and
    the mask words, in maximal runs, as the planned reference store does; a
    word in a gap raises, and a zero-length view at a symbol's end is
    empty."""
    for name, b in image_bundles(group):
        vm = b.vm
        worker, _ = vm.build_images()
        syms = [s for s in vm.symbols if s.space == "worker"]
        planned = {w for s in syms for w in range(s.address, s.address + s.size_words)}
        planned |= {e.address for e in vm.masks.ordered()}
        held = {w for lo, hi in zip(worker.starts, worker.ends) for w in range(lo, hi)}
        assert held == planned, name
        assert all(hi < lo for hi, lo in zip(worker.ends, worker.starts[1:])), name
        assert [blk.shape for blk in worker.blocks] == [
            (vm.nx, vm.ny, hi - lo) for lo, hi in zip(worker.starts, worker.ends)], name
        _, (p_worker, _) = planned_store(b.graph, b.plan, monkeypatch)
        assert (p_worker.starts, p_worker.ends) == (worker.starts, worker.ends), name
        m = Machine(vm, SimConfig(trace=False))
        cpu = next(c for c in m.cpus if isinstance(c, WorkerCpu))
        gaps = sorted(set(range(vm.worker_words)) - planned)
        for w in gaps[:1] + gaps[-1:]:
            with pytest.raises(IndexError, match="not all in one planned span"):
                word_view(worker, w, 1, DType.I16, (vm.nx, vm.ny))
            with pytest.raises(IndexError, match="not all in one planned span"):
                cpu.at(w, DType.I16)
        for s in syms:
            end = s.address + s.size_words
            assert word_view(worker, end, 0, s.dtype, (vm.nx, vm.ny, 0)).size == 0
            assert cpu.at(end, s.dtype, (0,)).shape == (0,), (name, s.name)


def test_bank_gap_words_are_not_held():
    """Two la of 16 words and one mask word: `a` at 0-15, the mask at 16
    and `b` on the next bank, at 3072; word 17 is in no planned span."""
    vm = compile_source(
        "la a[4,4,8] f32 = rand\nla b[4,4,8] f32 = rand\nga g[4] f32 = rand\n"
        "for v in g {\n    a[0:2, 0:2, :] += b[0:2, 0:2, :]\n}\n").vm
    assert [(s.name, s.address) for s in vm.symbols][:2] == [("a", 0), ("b", 3072)]
    assert [e.address for e in vm.masks.ordered()] == [16]
    worker, _ = vm.build_images()
    assert list(zip(worker.starts, worker.ends)) == [(0, 17), (3072, 3088)]
    assert sum(b.nbytes for b in worker.blocks) == 4 * 4 * 33 * 2
    m = Machine(vm, SimConfig(trace=False))
    cpu = next(c for c in m.cpus if isinstance(c, WorkerCpu))
    for addr, size in ((17, 1), (3071, 1), (16, 2), (3088, 1), (18, 0)):
        with pytest.raises(IndexError):
            word_view(worker, addr, size, DType.I16, (4, 4, size))
        with pytest.raises(IndexError):
            cpu.at(addr, DType.I16, (size,))
    assert cpu.at(17, DType.I16, (0,)).shape == (0,)
    m.run()                         # the run reads and writes planned words only


def _route_grids() -> list[tuple]:
    """(nx, ny, n_resp) of the 8 programs' layouts, 2x2 and 16x16."""
    grids = {(b.vm.nx, b.vm.ny, b.vm.n_resp) for _, b in image_bundles("programs")}
    return sorted(grids | {(2, 2, 4), (16, 16, 4)})


def _delivered_at(lay, xy, color):
    """The tile that delivers a word sent on `color` by the processor of
    `xy`, following its one-state routes; None if the route ends first."""
    step = {"L": (-1, 0), "R": (1, 0), "U": (0, -1), "D": (0, 1)}
    port = "C"
    while True:
        rr = lay.routes.get(xy, {}).get(color)
        if rr is None or len(rr) != 1 or rr[0][0] != port:
            return None
        (out,) = rr[0][1]
        if out == "C":
            return xy
        xy = (xy[0] + step[out][0], xy[1] + step[out][1])
        port = {"L": "R", "R": "L", "U": "D", "D": "U"}[out]


def test_routes_have_one_input_per_state_and_shifts_reach_their_neighbour():
    """Every route state has exactly one input port, a layout uses at most
    `N_COLORS` colors, and a worker's shift sent in each direction is
    delivered to its neighbour there, on that neighbour's receive color."""
    for nx, ny, n_resp in _route_grids():
        lay = build_layout(nx, ny, n_resp)
        colors = {c for rings in lay.routes.values() for c in rings}
        assert len(colors) <= layout.N_COLORS, (nx, ny)
        assert [(xy, c) for xy, rings in lay.routes.items() for c, rr in rings.items()
                if any(len(st) != 2 or st[0] not in PORTS for st in rr)] == [], (nx, ny)
        for wx, wy in lay.workers():
            for (d, p), color in layout.SHIFT_COLOR.items():
                qx, qy = wx + d[0], wy + d[1]
                if p != lay.phase(wx, wy) or not (0 <= qx < nx and 0 <= qy < ny):
                    continue
                nb = lay.fabric_of(qx, qy)
                assert _delivered_at(lay, lay.fabric_of(wx, wy), color) == nb
                assert color == layout.SHIFT_COLOR[d, 1 - lay.phase(qx, qy)]


def test_a_route_state_takes_one_input_port():
    assert layout.ring({"C": ["L", "R"]}, {"R": ("C",)}) == (("C", ("L", "R")), ("R", ("C",)))
    with pytest.raises(ValueError, match="has 2 input ports"):
        layout.ring({"C": ("L",), "R": ("L",)})


def test_equal_rings_are_one_object():
    lay = build_layout(16, 16)
    rings = [rr for per_tile in lay.routes.values() for rr in per_tile.values()]
    assert len(rings) == 3712
    assert len(set(rings)) == len({id(rr) for rr in rings}) == 45


# --- the shared layout and the plan's observables ----------------------------

def test_compiles_on_one_grid_share_the_layout():
    a = compile_source(LISTING1)
    b = compile_source(LISTING1, seed=3)
    nx, ny, n_resp = a.vm.nx, a.vm.ny, a.vm.n_resp
    assert a.vm.layout is b.vm.layout is build_layout(nx, ny, n_resp)
    assert build_layout(nx, ny, n_resp) is build_layout(nx=nx, ny=ny, n_resp=n_resp)
    assert build_layout(4, 4) is build_layout(4, 4, 4)
    assert compile_source(FORMS["nested_temporaries"]).vm.layout is not a.vm.layout


def test_layout_fields_cannot_be_assigned():
    lay = build_layout(4, 4)
    for f in dataclasses.fields(lay):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lay, f.name, getattr(lay, f.name))


def layout_digest(vm) -> str:
    """sha256 over the roles, routes, role parameters, drain order and
    paint listing of the program's layout."""
    lay = vm.layout
    parts = (sorted(lay.roles.items()),
             sorted((xy, sorted(rings.items())) for xy, rings in lay.routes.items()),
             sorted((xy, sorted(p.items())) for xy, p in lay.role_params.items()),
             lay.resp_order, emit_paint(vm))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_layouts_unchanged_by_compiling_and_running():
    bundles = image_bundles("programs") + image_bundles("forms")
    before = {id(b.vm.layout): layout_digest(b.vm) for _, b in bundles}
    for name, b in bundles:
        assert check(b, SimConfig(trace=False)) == [], name
    again = image_bundles("programs") + image_bundles("forms")
    assert {id(b.vm.layout) for _, b in again} == set(before)
    assert {id(b.vm.layout): layout_digest(b.vm) for _, b in bundles + again} == before


def test_cached_paint_equals_a_fresh_build():
    vms = [b.vm for group in ("programs", "fuzz") for _, b in image_bundles(group)]
    for vm in {(vm.nx, vm.ny, vm.n_resp): vm for vm in vms}.values():
        fresh = layout._layout.__wrapped__(vm.nx, vm.ny, vm.n_resp)
        assert fresh is not vm.layout
        assert emit_paint(vm) == emit._paint.__wrapped__(fresh)


def test_compile_and_reference_run_take_one_liveness_pass(monkeypatch):
    calls = []
    lifespans = memplan.lifespans
    monkeypatch.setattr(memplan, "lifespans", lambda g: calls.append(g) or lifespans(g))
    for p in PROGRAMS:
        calls.clear()
        run_reference(compile_source(p.read_text()))
        assert len(calls) == 1, p.stem


@pytest.mark.parametrize("group", ["programs", "forms", "fuzz"])
def test_plan_observables_equal_liveness_observables(group):
    for name, b in image_bundles(group):
        assert memplan.observables(b.graph, b.plan) == memplan.observables(b.graph), name
