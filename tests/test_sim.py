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
processor ticks withheld at random, which may change cycles but must not
change outputs.  A memory test bounds what the simulator allocates per
tile beyond the memory images.

The long campaign (fuzz seeds 0-299 under every variant, each variant's
cycles, `stats()` and outputs pinned by one sha256) is marked `slow` and
deselected by default; run it with `pytest -m slow`.
"""
from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest

from helpers import FORMS, dense
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
    "dynwin": (280, "f07b7fc9415643b207ad2522355897d71febbf4817e51016215fd6e376cf9eeb"),
    "elementwise": (419, "5cb4cac2bdc8620c9cec87ce6cee0aad82b59842388e54a5221d3e23c0294e90"),
    "indirection": (329, "5ca35b954ec1aaf09811742e870d55ace29f40283d2e855b4173b66ddb0a4500"),
    "listing1": (718, "bcce4f7701983f2e1996095e64d133a4661b4f2a268734bfc568bc3df92474a1"),
    "loops": (545, "b1a335268c6fe3e5920c19976acaa63a4200c57dcd0edfe3e3e3ae3670b5b5f4"),
    "mixed": (762, "59a9e24fe65bf09eb1e609f01a4f11a4f4ac32cda699657af5d95af20391dcae"),
    "reductions": (504, "b0c55d9dea8a62a8ce81c31ae03288ecd7e5713e6effc66980dde4aac9df4543"),
    "stencil": (734, "da6038d8bfcd95a7e46791fc3f4b2b62b569e9da8a9b75f30f11e7d3d43f9745"),
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
    ("mixed", "default"): (762, "552ebbdae52f1ea1", "2f5b3c9852d19def"),
    ("mixed", "fifo1"): (788, "0667839424c8463a", "2f5b3c9852d19def"),
    ("mixed", "fifo2"): (762, "552ebbdae52f1ea1", "2f5b3c9852d19def"),
    ("mixed", "hop2"): (781, "9e9e4f1165db319c", "2f5b3c9852d19def"),
    ("mixed", "hop3"): (802, "f75b6d11d3001a68", "2f5b3c9852d19def"),
    ("mixed", "rpc1"): (236, "e335d4f0a5aed907", "2f5b3c9852d19def"),
    ("mixed", "rpc200"): (2212, "1d93fcf8fea9e7b3", "2f5b3c9852d19def"),
    ("reductions", "default"): (504, "ab1d4d288106d1ab", "df8c3327d0ffcbb1"),
    ("reductions", "fifo1"): (523, "60eae7374c4feb4b", "df8c3327d0ffcbb1"),
    ("reductions", "fifo2"): (504, "ab1d4d288106d1ab", "df8c3327d0ffcbb1"),
    ("reductions", "hop2"): (540, "df85995d1f12bc76", "df8c3327d0ffcbb1"),
    ("reductions", "hop3"): (582, "e96befcefc304ada", "df8c3327d0ffcbb1"),
    ("reductions", "rpc1"): (187, "f903013b94c20348", "df8c3327d0ffcbb1"),
    ("reductions", "rpc200"): (1374, "20ed74a23874abef", "df8c3327d0ffcbb1"),
    ("stencil", "default"): (734, "d8fc2478d72627b9", "c37eb241396a1ec6"),
    ("stencil", "fifo1"): (784, "a74dbc7fa0ce5ed9", "c37eb241396a1ec6"),
    ("stencil", "fifo2"): (734, "d8fc2478d72627b9", "c37eb241396a1ec6"),
    ("stencil", "hop2"): (748, "a3c6e8c9aba7b7ff", "c37eb241396a1ec6"),
    ("stencil", "hop3"): (764, "8ddb5411c263d1ff", "c37eb241396a1ec6"),
    ("stencil", "rpc1"): (194, "67cc5c42570efa27", "c37eb241396a1ec6"),
    ("stencil", "rpc200"): (2184, "a8503245481c4a45", "c37eb241396a1ec6"),
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
FUZZ_SCHEDULE_GOLDEN = "1c80682e61ef1d4236457a138990796a30fa0b41a01a87e05b0c3babf0a3bc60"


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
INIT_STATE_GOLDEN = "50599e4613ab17b9f3427e6c052f337ba809c796665fe67b7eb49a198fc58cc5"


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


@pytest.mark.xfail(strict=True, reason=(
    "a2 differs at worker (2,3) after back-to-back col and row shifts: "
    "it receives the tail of the col-shift stream"))
def test_fuzz_seed_2516_back_to_back_shifts():
    b = fuzz_bundle(2516)
    assert b is not None
    assert check(b, SimConfig(trace=False)) == []


# per config: sha256 of repr((seed, cycles, stats())) and the output arrays
# of every fuzz seed 0-299 that `machlite fuzz` runs, in seed order
CAMPAIGN_GOLDEN = {
    "default": "6cec8d4a3b18da87dec0bda00ffc39e079e82212fe35d20ee81621a249a94e07",
    "fifo1": "18ac51ffe10faf123a486cf9c8ef7b692743d57fd9a6224d46f919e8176355b2",
    "fifo2": "dbb3b89e37ae3a62bc889e24c8eb3c6ae80bb0f84d0e777a281974b97e6ef880",
    "hop2": "b8ba428ec157a831657cdc0e7055d87345f942d3a2f92d6f25b91a58243eae8f",
    "hop3": "541f185376abfa10cb1b304e1a12bd1d65678a76b366f9619c2eed5bd576ff62",
    "rpc1": "b99684ddd956cff482adc3fbd2ec03178d8c29aef1d44cf81d81d00e37b86c4d",
    "rpc200": "26d3be334995a5450ce1e532a0040d39d71a33acccee5a65ba5780f5c7468ece",
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
    "stencil": {"try_move": 10501, "moves": 10020, "exec": [8, 7],
                "merge": [83, 82], "resp": [104, 90], "worker": [6886, 6236],
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
    vm = stall_bundle(name).vm
    assert_freed_without_the_cycle_collector(
        lambda: StallMachine(vm, SimConfig(trace=False), 1, rates=(0.5,)))


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
    assert m.cycle == 403
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
        return compile_source(TWO_SHIFTS)
    return program(next(p for p in PROGRAMS if p.stem == name))


def test_stall_machine_without_stalls_is_the_plain_machine():
    for name in ("listing1", "mixed", "stencil"):
        m = StallMachine(stall_bundle(name).vm, SimConfig(trace=False), 0, rates=(0,))
        m.run()
        stats = hashlib.sha256(repr(m.stats()).encode()).hexdigest()[:16]
        assert (m.cycle, stats) == RUN_GOLDEN[name, "default"][:2]


# (case, seed) pairs whose stalled run ends with wrong outputs
STALL_XFAIL = {("stencil", 0), ("stencil", 1), ("two_shifts", 1)}
SHIFT_DEFECT = (
    "open-ring shift defect, as in fuzz seed 2516: a worker's SHIFT_A/SHIFT_B "
    "receive ring rests open, so a neighbour that has moved on to the next "
    "shift delivers into a receiver that has not entered it yet")


def _xfail_if(bad: bool, *args):
    marks = [pytest.mark.xfail(strict=True, reason=SHIFT_DEFECT)] if bad else []
    return pytest.param(*args, marks=marks)


@pytest.mark.parametrize("name,seed", [_xfail_if((n, s) in STALL_XFAIL, n, s)
                                       for n in STALL_CASES for s in range(3)])
def test_stalled_run_agrees(name, seed):
    assert stall_check(stall_bundle(name), seed) == []


@pytest.mark.slow
@pytest.mark.parametrize("name", [_xfail_if(n in ("stencil", "two_shifts"), n)
                                  for n in STALL_CASES])
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
