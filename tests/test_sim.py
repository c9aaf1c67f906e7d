"""Differential gate: the simulator against the reference interpreter.

Every example program and a range of fuzz programs must agree between the
two backends, also under non-default `SimConfig` timings.  Per-program
goldens pin the default-config cycle count and the sha256 of the
`machlite compile --emit asm` listing, and per-run goldens pin the cycle
count, `stats()` and the output arrays under the default config and every
variant, so a change that claims to leave behaviour alone can show that
it did.  An initial-state golden pins the `--emit asm` listing and the
start images of the programs and of fuzz seeds 0-199.  A schedule golden
pins, for two programs, what the benchmark tracer counts: `try_move`
calls, moves and per-role ticks.  A stall oracle reruns the programs with
processor ticks withheld at random, and its router-side twin with router
moves withheld at random; a delay oracle holds one worker's k-th ready
task for D cycles, over every worker and k below a bound.  Each may change
cycles but must not change outputs.  When several workers fault on their
data, every one of those timings raises the fault the reference stops at.
A memory test bounds what the simulator allocates per tile beyond the
memory images.

The long campaigns (fuzz seeds 0-299 under every variant, each variant's
cycles, `stats()` and outputs pinned by one sha256; the stall campaigns;
the `stencil` delay set) are marked `slow` and deselected by default; run
them with `pytest -m slow`.
"""
from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
import weakref
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import FORMS, MANY_FAULTS, dense
from machlite import pipeline
from machlite.diagnostics import SimFault
from machlite.fuzz import gen_source
from machlite.irg import ordered_walk
from machlite.lowering.emit import emit_text
from machlite.memwords import WORKER_WORDS
from machlite.pipeline import check, compile_source, run_reference
from machlite.refinterp import diff_results
from machlite.sim import ADVANCE, RESET, Machine, SimConfig, data, describe
from machlite.sim.machine import DeadlockError
from machlite.sim.roles import FieldCpu, WorkerCpu

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))

# `machlite fuzz` skips programs with more IR nodes than its --max-nodes default.
FUZZ_MAX_NODES = 40

# name -> (default-config cycles, sha256 of the emitted asm listing)
GOLDEN = {
    "dynwin": (280, "937beda41fc4636759c9e7095debc34516f675d08b70d80dbe7c47b8056d785f"),
    "elementwise": (419, "7956e90db58a5ae18c1dc1c33bf7637b7f6489a4ed51a4c16ebe71bf9d2521d2"),
    "indirection": (329, "91923b1793e1fe47bc4ce87b07759c9b57a0b3b5357b2188483344c8f1684a38"),
    "listing1": (718, "0b13b214915cbedbd4879e86579254df40efac384c3dec0a7f5df74471921fd2"),
    "loops": (545, "76a037dda1941ef49cbcbf4982b8210e371c021a229cc17124f8977e585401ca"),
    "mixed": (760, "dfd506d4b7dd0cfd14308b8d76fd9c1a94bcfe5d7ffe08cc221c5d8e02cb60ee"),
    "reductions": (504, "1e4dad6f99a2ee24f0b76f6b662b4c7c0c6199cdf6cdaa9e1dbeddd597e066aa"),
    "stencil": (721, "5e8ec8e4ef080df8638e374958d790f07e2bae5f99240386a8bb6b35a72f8951"),
}

# hop latency 3 needs control_path_latency >= 3h + 3 = 12
VARIANTS = {
    "fifo1": dict(fifo_depth=1),
    "fifo2": dict(fifo_depth=2),
    "hop2": dict(hop_latency_cycles=2),
    "hop3": dict(hop_latency_cycles=3, control_path_latency=12),
    "rpc1": dict(rpc_setup_cycles=1),
    "rpc200": dict(rpc_setup_cycles=200),
}

# (program, config) -> (cycles, stats digest, outputs digest); see run_digest
RUN_GOLDEN = {
    ("dynwin", "default"): (280, "e47f0cf44ac46fda", "354b3d4445473f78"),
    ("dynwin", "fifo1"): (292, "18ed83c88d23b097", "354b3d4445473f78"),
    ("dynwin", "fifo2"): (280, "e47f0cf44ac46fda", "354b3d4445473f78"),
    ("dynwin", "hop2"): (285, "41d1bd4470f61075", "354b3d4445473f78"),
    ("dynwin", "hop3"): (292, "12d99e8fa6f7250e", "354b3d4445473f78"),
    ("dynwin", "rpc1"): (74, "1a9c662614adf976", "354b3d4445473f78"),
    ("dynwin", "rpc200"): (860, "d15c98d93b1bb4ac", "354b3d4445473f78"),
    ("elementwise", "default"): (419, "ca232a706ccb75b6", "ab29bee8b390e074"),
    ("elementwise", "fifo1"): (424, "5c1204cbaec15280", "ab29bee8b390e074"),
    ("elementwise", "fifo2"): (419, "ca232a706ccb75b6", "ab29bee8b390e074"),
    ("elementwise", "hop2"): (424, "9be05affe188ea91", "ab29bee8b390e074"),
    ("elementwise", "hop3"): (431, "d00f2519fb0333dc", "ab29bee8b390e074"),
    ("elementwise", "rpc1"): (95, "8ec576f6735abbca", "ab29bee8b390e074"),
    ("elementwise", "rpc200"): (1289, "32ff01c56726981e", "ab29bee8b390e074"),
    ("indirection", "default"): (329, "fed7e1be1c563c28", "6c4f3cdf503fff64"),
    ("indirection", "fifo1"): (336, "90c2b786d548b03c", "6c4f3cdf503fff64"),
    ("indirection", "fifo2"): (329, "fed7e1be1c563c28", "6c4f3cdf503fff64"),
    ("indirection", "hop2"): (334, "992fcdff17b71f9c", "6c4f3cdf503fff64"),
    ("indirection", "hop3"): (341, "dfc43c85e258b8e3", "6c4f3cdf503fff64"),
    ("indirection", "rpc1"): (113, "3e070e85258cb1ea", "6c4f3cdf503fff64"),
    ("indirection", "rpc200"): (909, "1bb67a6ce875ec8d", "6c4f3cdf503fff64"),
    ("listing1", "default"): (718, "d48ee96cee2eaf75", "537c13e86a21e12c"),
    ("listing1", "fifo1"): (746, "d601986ba7de3053", "537c13e86a21e12c"),
    ("listing1", "fifo2"): (718, "d48ee96cee2eaf75", "537c13e86a21e12c"),
    ("listing1", "hop2"): (741, "ac4e43161e6d6ecf", "537c13e86a21e12c"),
    ("listing1", "hop3"): (766, "a0e2be89c884f5b8", "537c13e86a21e12c"),
    ("listing1", "rpc1"): (349, "687301a5c4d6405b", "537c13e86a21e12c"),
    ("listing1", "rpc200"): (2313, "25fb5707b5be9dfd", "537c13e86a21e12c"),
    ("loops", "default"): (545, "cca1439eeeb0fb89", "6344890d74a6a172"),
    ("loops", "fifo1"): (551, "a33cb2cecff73828", "6344890d74a6a172"),
    ("loops", "fifo2"): (545, "cca1439eeeb0fb89", "6344890d74a6a172"),
    ("loops", "hop2"): (550, "89e99dfce040110d", "6344890d74a6a172"),
    ("loops", "hop3"): (557, "d4098439f1f19c28", "6344890d74a6a172"),
    ("loops", "rpc1"): (190, "6bed7903deeab2c0", "6344890d74a6a172"),
    ("loops", "rpc200"): (1705, "25a2d5974a6ae142", "6344890d74a6a172"),
    ("mixed", "default"): (760, "31cfebbb8610bc90", "2f5b3c9852d19def"),
    ("mixed", "fifo1"): (786, "d05193cdf9895248", "2f5b3c9852d19def"),
    ("mixed", "fifo2"): (760, "31cfebbb8610bc90", "2f5b3c9852d19def"),
    ("mixed", "hop2"): (779, "f390cd0c46c6d598", "2f5b3c9852d19def"),
    ("mixed", "hop3"): (800, "1d0cd22547c99926", "2f5b3c9852d19def"),
    ("mixed", "rpc1"): (236, "ab5066f29708cdc3", "2f5b3c9852d19def"),
    ("mixed", "rpc200"): (2210, "29f8980a949caf2c", "2f5b3c9852d19def"),
    ("reductions", "default"): (504, "ab1d4d288106d1ab", "df8c3327d0ffcbb1"),
    ("reductions", "fifo1"): (523, "60eae7374c4feb4b", "df8c3327d0ffcbb1"),
    ("reductions", "fifo2"): (504, "ab1d4d288106d1ab", "df8c3327d0ffcbb1"),
    ("reductions", "hop2"): (540, "df85995d1f12bc76", "df8c3327d0ffcbb1"),
    ("reductions", "hop3"): (582, "e96befcefc304ada", "df8c3327d0ffcbb1"),
    ("reductions", "rpc1"): (187, "f903013b94c20348", "df8c3327d0ffcbb1"),
    ("reductions", "rpc200"): (1374, "20ed74a23874abef", "df8c3327d0ffcbb1"),
    ("stencil", "default"): (721, "8c8d70f26de10ee1", "c37eb241396a1ec6"),
    ("stencil", "fifo1"): (771, "2a94f19833ddd9a8", "c37eb241396a1ec6"),
    ("stencil", "fifo2"): (721, "8c8d70f26de10ee1", "c37eb241396a1ec6"),
    ("stencil", "hop2"): (735, "755c009c71f5a131", "c37eb241396a1ec6"),
    ("stencil", "hop3"): (751, "cbcf11b336a25f04", "c37eb241396a1ec6"),
    ("stencil", "rpc1"): (181, "2fc8bd19511b4bcb", "c37eb241396a1ec6"),
    ("stencil", "rpc200"): (2171, "3cedb0ca7bfcb8ed", "c37eb241396a1ec6"),
}

_bundles: dict = {}


def program(path: Path):
    if path not in _bundles:
        _bundles[path] = compile_source(path.read_text())
    return _bundles[path]


def fuzz_bundle(seed: int):
    """The seed's program as `machlite fuzz` compiles it, or None if skipped."""
    b = compile_source(gen_source(seed), seed=seed)
    if sum(1 for _ in ordered_walk(b.graph)) > FUZZ_MAX_NODES:
        return None
    return b


def asm_digest(vm) -> str:
    listing = "".join(f"=== {name} ===\n{text}" for name, text in emit_text(vm).items())
    return hashlib.sha256(listing.encode()).hexdigest()


def fold_outputs(h, result) -> None:
    """Feed the output arrays of `result` into the sha256 `h`."""
    for mlid, arr in sorted(result.values.items()):
        h.update(f"{mlid}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr.tobytes())


def checked_run(b, m: Machine):
    """Run `m` on the program of bundle `b`: (result, report of its
    mismatches against the reference interpreter)."""
    ref = run_reference(b)
    m.run()
    got = m.result(tainted=ref.tainted)
    return got, diff_results(b.graph, ref, got)


def run_digest(vm, cfg: SimConfig) -> tuple[int, str, str]:
    """Cycles and the sha256 (first 16 hex digits) of `repr(stats())` and
    of the output arrays of one run."""
    m = Machine(vm, cfg)
    m.run()
    out = hashlib.sha256()
    fold_outputs(out, m.result())
    stats = hashlib.sha256(repr(m.stats()).encode())
    return m.cycle, stats.hexdigest()[:16], out.hexdigest()[:16]


def test_every_program_has_a_golden():
    assert sorted(p.stem for p in PROGRAMS) == sorted(GOLDEN)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_program_agrees_and_matches_golden(path):
    b = program(path)
    assert check(b, SimConfig(trace=False)) == []
    m = Machine(b.vm, SimConfig(trace=False))
    m.run()
    assert (m.cycle, asm_digest(b.vm)) == GOLDEN[path.stem]


@pytest.mark.parametrize("variant", ["default"] + sorted(VARIANTS))
@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_program_run_matches_golden(path, variant):
    cfg = SimConfig(trace=False, **VARIANTS.get(variant, {}))
    assert run_digest(program(path).vm, cfg) == RUN_GOLDEN[path.stem, variant]


# sha256 of repr((seed, cycles, stats())) over the fuzz seeds 0-59 that
# `machlite fuzz` runs, in seed order, under the default config
FUZZ_SCHEDULE_GOLDEN = "38d7ddd334a599d506ec44d2eb22d5fd81abee4bceea691202df3c854c12b3b0"


def test_fuzz_scheduling_matches_golden():
    h = hashlib.sha256()
    for seed in range(60):
        b = fuzz_bundle(seed)
        if b is not None:
            m = Machine(b.vm, SimConfig(trace=False))
            m.run()
            h.update(repr((seed, m.cycle, m.stats())).encode())
    assert h.hexdigest() == FUZZ_SCHEDULE_GOLDEN


@pytest.mark.parametrize("seed", range(60))
def test_fuzz_seed_agrees(seed):
    b = fuzz_bundle(seed)
    if b is None:
        pytest.skip(f"more than {FUZZ_MAX_NODES} nodes")
    assert check(b, SimConfig(trace=False)) == []


# sha256 over the `--emit asm` listing and the `build_images()` words of
# every program and of fuzz seeds 0-199 as `machlite fuzz` compiles them,
# each image expanded to its dense layout: (nx, ny, worker_words) and
# (WORKER_WORDS,) words, zero outside the planned spans
INIT_STATE_GOLDEN = "7aaeba5137e8b4609b568bc24eb773280857f752a50393f624cbf846ced0361b"


def test_initial_state_matches_golden():
    bundles = [program(p) for p in PROGRAMS]
    bundles += [compile_source(gen_source(seed), seed=seed) for seed in range(200)]
    h = hashlib.sha256()
    for b in bundles:
        for name, text in emit_text(b.vm).items():
            h.update(f"=== {name} ===\n{text}".encode())
        worker, ctrl = b.vm.build_images()
        for image in (dense(worker, (b.vm.nx, b.vm.ny, b.vm.worker_words)),
                      dense(ctrl, (WORKER_WORDS,))):
            h.update(f"{image.dtype}:{image.shape}".encode())
            h.update(image.tobytes())
    assert h.hexdigest() == INIT_STATE_GOLDEN


@pytest.mark.parametrize("name", sorted(FORMS))
def test_dsl_form_agrees(name):
    assert check(compile_source(FORMS[name]), SimConfig(trace=False)) == []


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_program_agrees_under_variant(path, variant):
    assert check(program(path), SimConfig(trace=False, **VARIANTS[variant])) == []


def test_fuzz_seed_2516_back_to_back_shifts():
    """Back-to-back col and row shifts: worker (2,3) must take none of the
    col shift's words into the row shift's destination a2."""
    b = fuzz_bundle(2516)
    assert b is not None
    assert check(b, SimConfig(trace=False)) == []


# per config: sha256 of repr((seed, cycles, stats())) and the output arrays
# of every fuzz seed 0-299 that `machlite fuzz` runs, in seed order
CAMPAIGN_GOLDEN = {
    "default": "ae07d086f1d818467a79ed98307290327da6374ebe278a229d41720d3f6f77b5",
    "fifo1": "bc71be71803981597ad64960bdd1ff060ec0750b7b403f06896aa976956b85a1",
    "fifo2": "b3f4a5d381b435fc9206e028552f9ccf46070e17d56ea55c1a96dbf81a4b1e25",
    "hop2": "0d3329f0aaded55ce544d28a70c20e4f61fd66d4ba3630b4d0d8c38658979eb6",
    "hop3": "5b6016a6c46d75d6cb93e127e9817b42062d62792ec23bd757838eda7fc1ee5d",
    "rpc1": "4737a2203c15e58201ffc9c22ee08c1dc744b5e66ecc86e4acaee03b32c3df70",
    "rpc200": "4d7e9e3709ae74f4fd7e73ba19f5a1fb34e9359819fd0b3db7eafc90d46025ed",
}


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["default"] + sorted(VARIANTS))
def test_fuzz_campaign(variant):
    cfg = SimConfig(trace=False, **VARIANTS.get(variant, {}))
    failures = {}
    h = hashlib.sha256()
    for seed in range(300):
        b = fuzz_bundle(seed)
        if b is None:
            continue
        m = Machine(b.vm, cfg)
        got, mis = checked_run(b, m)
        if mis:
            failures[seed] = mis
        h.update(repr((seed, m.cycle, m.stats())).encode())
        fold_outputs(h, got)
    assert failures == {}
    assert h.hexdigest() == CAMPAIGN_GOLDEN[variant]


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_setup_longer_than_the_deadlock_window_is_no_deadlock(path):
    """A worker waiting out a 200-cycle RPC setup is busy, not stuck: a
    10-cycle deadlock window must not fire, and the cycle count is the
    one of the default window."""
    m = Machine(program(path).vm,
                SimConfig(trace=False, rpc_setup_cycles=200, deadlock_window=10))
    m.run()
    assert m.cycle == RUN_GOLDEN[path.stem, "rpc200"][0]


@pytest.mark.parametrize("variant", ["default", "fifo1", "hop3"])
@pytest.mark.parametrize("name", ["listing1", "stencil"])
def test_live_sets_track_the_fabric_every_cycle(name, variant):
    """Stepped cycle by cycle, with no jump to a timer; after every cycle
    the in-flight count is the number of wavelets in the fabric, no FIFO or
    delivery queue holds more than `fifo_depth` entries and no field tile
    more than `task_table_size` queued tasks, a router outside the live set
    holds none, and a processor outside the live set is idle with nothing
    delivered or is blocked, and a tick of it would make no progress."""
    path = next(p for p in PROGRAMS if p.stem == name)
    cfg = SimConfig(trace=False, **VARIANTS.get(variant, {}))
    m = Machine(program(path).vm, cfg)
    table = m.vm.task_table_size
    field = [cpu for cpu in m.cpus if isinstance(cpu, FieldCpu)]
    while not m.done:
        m.step()
        assert m.in_flight == sum(r.occupancy() for r in m.routers.values())
        for r in m.tiles:
            for q in [*r.fifos.values(), *r.outbox.values()]:
                assert len(q) <= cfg.fifo_depth, (m.cycle, r.x, r.y)
            if r.index not in m.live_routers:
                assert not any(r.fifos.values()), (m.cycle, r.x, r.y)
        for cpu in field:
            assert len(cpu.task_q) <= table, (m.cycle, cpu.xy)
        assert not m.blocked & m.live_cpus
        for i, cpu in enumerate(m.cpus):
            if i in m.live_cpus:
                continue
            if i not in m.blocked:
                assert cpu.idle, (m.cycle, cpu.xy)
                assert not any(cpu.router.outbox.values()), (m.cycle, cpu.xy)
            assert not cpu.tick(), (m.cycle, cpu.xy, i in m.blocked)
    m.assert_quiescent()
    assert m.cycle == RUN_GOLDEN[name, variant][0]


def wrap_tick(cpu, wrapper) -> None:
    """Set `cpu.tick` to `wrapper(tick)`, where `tick` runs the class's
    tick on `cpu` through a weak reference: a wrapper that held the bound
    `cpu.tick` would be a reference cycle through the processor."""
    ref, tick = weakref.ref(cpu), type(cpu).tick
    cpu.tick = wrapper(lambda: tick(ref()))


class CountingMachine(Machine):
    """Counts what the benchmark tracer counts: `try_move` calls and the
    moves among them, and per role the processor ticks and the ticks that
    made progress."""

    def __init__(self, vm, cfg):
        super().__init__(vm, cfg)
        self.counts = {"try_move": 0, "moves": 0}
        for cpu in self.cpus:
            n = self.counts.setdefault(cpu.role, [0, 0])
            wrap_tick(cpu, lambda tick: self.counted(tick, n))

    @staticmethod
    def counted(tick, n):
        def counted_tick():
            progress = tick()
            n[0] += 1
            n[1] += bool(progress)
            return progress
        return counted_tick

    def try_move(self, r, color, port, used):
        ok = super().try_move(r, color, port, used)
        self.counts["try_move"] += 1
        self.counts["moves"] += ok
        return ok


# program -> try_move calls, moves and per role [ticks, useful ticks] of a
# default-config run; a simulator change that keeps the schedule keeps them
SCHEDULE_GOLDEN = {
    "listing1": {"try_move": 20825, "moves": 17663, "exec": [150, 139],
                 "merge": [175, 174], "resp": [339, 280], "worker": [16252, 12550],
                 "reduce": [3349, 2661]},
    "stencil": {"try_move": 10087, "moves": 9626, "exec": [8, 7],
                "merge": [83, 82], "resp": [104, 90], "worker": [6488, 5842],
                "reduce": [948, 900]},
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_GOLDEN))
def test_schedule_counts_match_golden(name):
    path = next(p for p in PROGRAMS if p.stem == name)
    m = CountingMachine(program(path).vm, SimConfig(trace=False))
    m.run()
    assert m.counts == SCHEDULE_GOLDEN[name]


def assert_freed_without_the_cycle_collector(make) -> None:
    """The machine `make()` builds, run to the end and dropped, frees
    itself, its routers and its processors with the cycle collector off."""
    gc.disable()
    try:
        m = make()
        m.run()
        refs = [weakref.ref(o) for o in [m, *m.tiles, *m.cpus]]
        del m
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_finished_machine_is_freed_without_the_cycle_collector(path):
    vm = program(path).vm
    assert_freed_without_the_cycle_collector(
        lambda: Machine(vm, SimConfig(trace=False)))


@pytest.mark.parametrize("name", ["listing1", "two_shifts"])
def test_finished_stall_machine_is_freed_without_the_cycle_collector(name):
    """Also a DelayMachine, whose held worker shadows its own `ctrl`."""
    vm = stall_bundle(name).vm
    assert_freed_without_the_cycle_collector(
        lambda: StallMachine(vm, SimConfig(trace=False), 1, rates=(0.5,)))
    assert_freed_without_the_cycle_collector(
        lambda: DelayMachine(vm, SimConfig(trace=False), 5, 0, 50))


@pytest.mark.parametrize("name", ["listing1", "stencil"])
def test_simulator_state_per_tile_is_small(name):
    """Beyond the words of the memory images, a machine and its run
    allocate under 7 KiB per tile at their peak, as tracemalloc counts it:
    queues bounded by `fifo_depth` are short lists and shift words are
    packed 2 B each.  Each worker's views of its tile's words count."""
    m, peak = traced_run(program(next(p for p in PROGRAMS if p.stem == name)).vm)
    images = sum(b.nbytes for b in m.worker_image.blocks + m.ctrl_image.blocks)
    assert (peak - images) / len(m.tiles) < 7 * 1024


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_field_tiles_keep_their_run_state_in_slots(path):
    """Every attribute a worker or reduction tile sets over a run is a
    slot, so no field tile's instance dict is ever made."""
    m = Machine(program(path).vm, SimConfig(trace=False))
    m.run()
    assert {k for cpu in m.cpus if isinstance(cpu, FieldCpu) for k in vars(cpu)} == set()


def traced_run(vm):
    """(machine, tracemalloc peak) over `Machine(vm)` and its run."""
    tracemalloc.start()
    try:
        m = Machine(vm, SimConfig(trace=False))
        m.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return m, peak


def test_broadcast_machine_per_tile_is_small():
    """A 32x32 program shaped like the broadcast benchmark: two la of 8
    f32 a tile, on two banks, and a 4-trip loop that adds on a 2x2 region.
    Images included, a machine and its run allocate under 5 KiB per tile
    (3.9 KiB measured; 8.6 KiB when the worker image was dense over the
    bank gap)."""
    vm = compile_source(
        "la a[32,32,8] f32 = rand\nla b[32,32,8] f32 = rand\nga g[4] f32 = rand\n"
        "for v in g {\n    a[0:2, 0:2, :] += b[0:2, 0:2, :]\n}\n").vm
    m, peak = traced_run(vm)
    assert peak / len(m.tiles) < 5 * 1024


@pytest.mark.slow
def test_scaled_grid_machine_per_tile_is_small():
    """ROADMAP item 6's program at 64x64 (k=16): images included, a machine
    and its run allocate under 8 KiB per tile (6.0 KiB measured; 11.1 KiB
    when the worker image was dense over the bank gap)."""
    vm = compile_source(
        "la a[64,64,16] f32 = rand\nla b[64,64,16] f32 = rand\ngs acc f32 = 0.0\n"
        "a += b\nshift(b, a, row, 1)\nreduce(b, acc)\n").vm
    m, peak = traced_run(vm)
    assert m.cycle == 402
    assert peak / len(m.tiles) < 8 * 1024


def test_retired_worker_holds_no_task_state():
    """A worker releases its task's views of the image and its shift
    buffers when the task retires, so a finished run holds none of them."""
    m = Machine(program(next(p for p in PROGRAMS if p.stem == "stencil")).vm,
                SimConfig(trace=False))
    m.run()
    workers = [c for c in m.cpus if isinstance(c, WorkerCpu)]
    held = [(c.xy, name) for c in workers for name, v in vars(c).items()
            if name != "image" and isinstance(v, (np.ndarray, array))]
    assert workers and held == []


def test_stuck_worker_deadlocks():
    """A worker that waits for argument words no one sends keeps the
    machine from finishing: the run raises DeadlockError naming it."""
    b = compile_source("la a[2,2,4] f32 = rand\na += a\n")
    m = Machine(b.vm, SimConfig(trace=False, deadlock_window=200))
    cpu = next(c for c in m.cpus if isinstance(c, WorkerCpu))
    cpu.task_q.append(0)
    cpu.queued_arity += b.vm.rpcs.defs[0].arity
    with pytest.raises(DeadlockError) as err:
        m.run()
    assert f"{cpu.xy} worker state=ctrl" in err.value.report


def test_wavelets_are_ints_with_the_control_kinds_above_every_word():
    assert (data(0x12345), data(-1)) == (0x2345, 0xFFFF)
    words = {data(w) for w in range(0x10000)}
    assert len(words) == 0x10000 and max(words) < ADVANCE
    assert len(words | {ADVANCE, RESET}) == 0x10002


def test_describe_names_the_kind_and_the_word():
    assert [describe(w) for w in (data(0), data(0xFFFF), ADVANCE, RESET)] == [
        "data/0", "data/65535", "advance/0", "reset/0"]


def test_trace_is_off_by_default():
    m = Machine(program(PROGRAMS[0]).vm)
    m.run()
    assert m.cycle > 0 and m.trace == []


# --- stall oracle ------------------------------------------------------------


class StallMachine(Machine):
    """A legal timing that the plain machine never produces: each processor
    gets its own stall rate, drawn from `rates`, and each of its ticks is
    withheld at that rate while the routers keep moving.  A withheld tick
    counts as progress, so the processor stays awake.  On a fabric whose
    tasks start when their data arrives, stalls may change cycles but never
    outputs."""

    def __init__(self, vm, cfg, seed: int, rates=(0, 0.5, 0.95)):
        super().__init__(vm, cfg)
        rng = random.Random(seed)
        for cpu in self.cpus:
            wrap_tick(cpu, lambda tick: self.stalled(tick, rng.choice(rates), rng))

    @staticmethod
    def stalled(tick, rate, rng):
        return lambda: rng.random() < rate or tick()


def stall_check(b, seed: int) -> list[str]:
    """`pipeline.check` with the simulator run on a StallMachine."""
    return checked_run(b, StallMachine(b.vm, SimConfig(trace=False), seed))[1]


TWO_SHIFTS = (
    "la a[4,4,8] f32 = rand\nla b[4,4,8] f32 = rand\nla c[4,4,8] f32 = rand\n"
    "shift(b[:, :, :], a[:, :, :], col, 1)\n"
    "shift(c[:, :, :], b[:, :, :], row, 1)\n")
STALL_CASES = [p.stem for p in PROGRAMS] + ["two_shifts"]


def stall_bundle(name: str):
    if name == "two_shifts":
        if name not in _bundles:
            _bundles[name] = compile_source(TWO_SHIFTS)
        return _bundles[name]
    return program(next(p for p in PROGRAMS if p.stem == name))


def test_stall_machine_without_stalls_is_the_plain_machine():
    """Either side's stall oracle, at rate 0."""
    for name in ("listing1", "mixed", "stencil"):
        for stalls in (StallMachine, RouterStallMachine):
            m = stalls(stall_bundle(name).vm, SimConfig(trace=False), 0, rates=(0,))
            m.run()
            stats = hashlib.sha256(repr(m.stats()).encode()).hexdigest()[:16]
            assert (m.cycle, stats) == RUN_GOLDEN[name, "default"][:2]


@pytest.mark.parametrize("name,seed", [(n, s) for n in STALL_CASES for s in range(3)])
def test_stalled_run_agrees(name, seed):
    assert stall_check(stall_bundle(name), seed) == []


@pytest.mark.slow
@pytest.mark.parametrize("name", STALL_CASES)
def test_stall_campaign(name):
    b = stall_bundle(name)
    failures = {seed: mis for seed in range(15) if (mis := stall_check(b, seed))}
    assert failures == {}


@pytest.mark.slow
def test_stall_fuzz_campaign():
    failures = {}
    for seed in range(300):
        b = fuzz_bundle(seed)
        if b is not None:
            mis = stall_check(b, seed)
            if mis:
                failures[seed] = mis
    assert failures == {}


# --- router-side stall oracle ------------------------------------------------


class RouterStallMachine(Machine):
    """The router-side twin of StallMachine: each router gets its own
    stall rate, drawn from `rates`, and each of its moves is withheld at
    that rate, which is legal back-pressure.  A withheld move counts as
    progress and moves nothing."""

    def __init__(self, vm, cfg, seed: int, rates=(0, 0.5, 0.95)):
        super().__init__(vm, cfg)
        self.rng = random.Random(seed)
        self.rates = [self.rng.choice(rates) for _ in self.tiles]

    def try_move(self, r, color, port, used):
        if self.rng.random() < self.rates[r.index]:
            return True
        return super().try_move(r, color, port, used)


def router_stall_check(b, seed: int) -> list[str]:
    """`pipeline.check` with the simulator run on a RouterStallMachine."""
    return checked_run(b, RouterStallMachine(b.vm, SimConfig(trace=False), seed))[1]


@pytest.mark.parametrize("name,seed", [(n, s) for n in STALL_CASES for s in range(3)])
def test_router_stalled_run_agrees(name, seed):
    assert router_stall_check(stall_bundle(name), seed) == []


@pytest.mark.slow
@pytest.mark.parametrize("name", STALL_CASES)
def test_router_stall_campaign(name):
    b = stall_bundle(name)
    failures = {seed: mis for seed in range(15) if (mis := router_stall_check(b, seed))}
    assert failures == {}


# --- delay oracle ------------------------------------------------------------


def hold_ready_task(cpu, k: int, delay: int) -> None:
    """Shadow `cpu.ctrl` so that at the worker's k-th ready task boundary
    (counted from 0) it makes progress for `delay` cycles without
    dispatching, while ingest goes on; any other tick is the class's.  The
    shadow reaches `cpu` through a weak reference, as `wrap_tick` does."""
    ref, ctrl = weakref.ref(cpu), type(cpu).ctrl
    seen, until = [0], []

    def held_ctrl():
        c = ref()
        if not until and c.task_q and len(c.arg_q) >= c.defs[c.task_q[0]].arity:
            if seen[0] == k:
                until.append(c.m.cycle + delay)
            seen[0] += 1
        if until and c.m.cycle < until[0]:
            return True
        return ctrl(c)
    cpu.ctrl = held_ctrl


class DelayMachine(Machine):
    """One point of a delay-bound-1 search (Emmi, Qadeer and Rakamarić,
    "Delay-bounded scheduling", POPL 2011): worker `worker`, in processor
    order, holds its k-th ready task for `delay` cycles.  A task starts
    when its data has arrived, so holding it is a legal timing that may
    change cycles but never outputs."""

    def __init__(self, vm, cfg, worker: int, k: int, delay: int):
        super().__init__(vm, cfg)
        hold_ready_task([c for c in self.cpus if isinstance(c, WorkerCpu)][worker], k, delay)


def delay_points(name: str, boundaries: int, delays) -> list[tuple]:
    """Every (case, worker, k, D) of the case's grid with k < boundaries."""
    vm = stall_bundle(name).vm
    return [(name, w, k, d) for d in delays
            for w in range(vm.nx * vm.ny) for k in range(boundaries)]


# tier-1: every point of two_shifts; slow: every point of stencil
DELAY_POINTS = (delay_points("two_shifts", 8, (50, 300))
                + delay_points("stencil", 24, (300, 1000)))


def test_delay_sets_keep_their_size():
    assert Counter(name for name, *_ in DELAY_POINTS) == {"two_shifts": 256, "stencil": 1728}


def _delay_param(name, w, k, d):
    marks = [pytest.mark.slow] if name == "stencil" else []
    return pytest.param(name, w, k, d, marks=marks, id=f"{name}-w{w}-k{k}-D{d}")


@pytest.mark.parametrize("name,worker,k,delay", [_delay_param(*p) for p in DELAY_POINTS])
def test_delayed_run_agrees(name, worker, k, delay):
    b = stall_bundle(name)
    m = DelayMachine(b.vm, SimConfig(trace=False), worker, k, delay)
    assert checked_run(b, m)[1] == []


def test_delay_machine_holds_one_task():
    """The held worker dispatches its k-th ready task `delay` cycles late;
    a delay past the end of the worker's boundaries changes nothing."""
    vm = stall_bundle("two_shifts").vm
    plain = Machine(vm, SimConfig(trace=False))
    plain.run()
    late = DelayMachine(vm, SimConfig(trace=False), 5, 0, 300)
    late.run()
    never = DelayMachine(vm, SimConfig(trace=False), 5, 50, 300)
    never.run()
    assert late.cycle > plain.cycle == never.cycle


# --- data faults -------------------------------------------------------------


FAULT_TIMINGS = ([("plain", Machine, ())]
                 + [(f"stall-{s}", StallMachine, (s,)) for s in range(3)]
                 + [(f"router-stall-{s}", RouterStallMachine, (s,)) for s in range(3)]
                 + [(f"delay-w{w}-D{d}", DelayMachine, (w, 0, d))
                    for w in (0, 1, 4, 5) for d in (50, 300)])


@pytest.mark.parametrize("machine,args",
                         [pytest.param(c, a, id=i) for i, c, a in FAULT_TIMINGS])
def test_least_data_fault_whatever_the_timing(machine, args):
    """Several workers fault in one task; under every timing the run
    raises the least fault by (x, y), then element, as the reference."""
    text, fault = MANY_FAULTS
    m = machine(compile_source(text).vm, SimConfig(trace=False), *args)
    with pytest.raises(SimFault) as err:
        m.run()
    assert str(err.value) == fault


def test_data_fault_comes_ahead_of_a_deadlock():
    """A worker that waits for argument words no one sends deadlocks the
    run; the faults recorded before are raised instead."""
    text, fault = MANY_FAULTS
    b = compile_source(text)
    m = Machine(b.vm, SimConfig(trace=False, deadlock_window=200))
    cpu = next(c for c in m.cpus if isinstance(c, WorkerCpu))
    cpu.task_q.append(0)
    cpu.queued_arity += b.vm.rpcs.defs[0].arity
    with pytest.raises(SimFault) as err:
        m.run()
    assert str(err.value) == fault


class FaultlessMachine(Machine):
    def run(self, max_cycles=None):
        try:
            super().run(max_cycles)
        except SimFault:
            pass


class OtherFaultMachine(Machine):
    def run(self, max_cycles=None):
        raise SimFault("dynamic stop 9 outside [0, 8] for axis of extent 8 at PE (1, 1)")


@pytest.mark.parametrize("machine,line", [
    (Machine, None),
    (FaultlessMachine, "simulator none"),
    (OtherFaultMachine, "simulator dynamic stop 9 outside [0, 8] for axis of "
                        "extent 8 at PE (1, 1)"),
])
def test_gate_compares_data_faults(monkeypatch, machine, line):
    """`check` raises a fault both backends share, and reports a fault the
    simulator does not share as a mismatch that names both outcomes."""
    text, fault = MANY_FAULTS
    b = compile_source(text)
    monkeypatch.setattr(pipeline, "Machine", machine)
    if line is None:
        with pytest.raises(SimFault) as err:
            check(b, SimConfig(trace=False))
        assert str(err.value) == fault
    else:
        assert check(b, SimConfig(trace=False)) == [f"data fault: reference {fault}; {line}"]
