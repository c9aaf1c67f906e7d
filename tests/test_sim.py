"""Differential gate: the simulator against the reference interpreter.

Every example program and a range of fuzz programs must agree between the
two backends, also under non-default `SimConfig` timings.  Per-program
goldens pin the default-config cycle count and the sha256 of the
`machlite compile --emit asm` listing, and per-run goldens pin the cycle
count, `stats()` and the output arrays under the default config and every
variant, so a change that claims to leave behaviour alone can show that
it did.  A schedule golden pins, for two programs, what the benchmark
tracer counts: `try_move` calls, moves and per-role ticks.  A stall oracle
reruns the programs with processor ticks withheld at random, which may
change cycles but must not change outputs.

The long campaign (fuzz seeds 0-299 under every variant, each variant's
cycles, `stats()` and outputs pinned by one sha256) is marked `slow` and
deselected by default; run it with `pytest -m slow`.
"""
from __future__ import annotations

import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

from machlite.fuzz import gen_source
from machlite.irg import ordered_walk
from machlite.lowering.emit import emit_text
from machlite.pipeline import check, compile_source, run_reference
from machlite.refinterp import diff_results
from machlite.sim import ADVANCE, RESET, Machine, SimConfig, data, describe
from machlite.sim.machine import DeadlockError
from machlite.sim.roles import WorkerCpu

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))

# `machlite fuzz` skips programs with more IR nodes than its --max-nodes default.
FUZZ_MAX_NODES = 40

# name -> (default-config cycles, sha256 of the emitted asm listing)
GOLDEN = {
    "dynwin": (280, "4ca7607ff47f60e240e0dfdb42409edc2616a58aa8676355f90f93fec5908919"),
    "elementwise": (419, "ffa628df028362968d3924e65e62f3d3cbac1181ed50e32473f9eaa95791837e"),
    "indirection": (329, "9cb8ee1436b9a5cbc70ffe7bb0ee7f09fd55b8415bd2b70dc51b309abc34afc1"),
    "listing1": (718, "f5f98d3aa3aceef9d087a86bcc6e8b142cffd6bbf1b84c302d697e3f66ebc596"),
    "loops": (545, "27a9b7326e921b0aaa6e310a5cf2c2cae2c0049bf5f6ba2565318af321ff1d2e"),
    "mixed": (762, "f0740fbf09a46cd8a6d22e3cf626bf2853165303c5a5c7fd75b497147b4da3c5"),
    "reductions": (504, "e5df9a45b1cbbd22f1fb90ca3455d0f25282dc2927424ed4ad20246ed57cac24"),
    "stencil": (734, "439a943647a6e98d5870401937929344fdb9df3b62ed9fe65a70b0f3d14a0935"),
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
}


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
    the in-flight count is the number of wavelets in the fabric, a router
    outside the live set holds none, and a processor outside the live set
    is idle with nothing delivered or is blocked, and a tick of it would
    make no progress."""
    path = next(p for p in PROGRAMS if p.stem == name)
    m = Machine(program(path).vm, SimConfig(trace=False, **VARIANTS.get(variant, {})))
    while not m.done:
        m.step()
        assert m.in_flight == sum(r.occupancy() for r in m.routers.values())
        for r in m.tiles:
            if r.index not in m.live_routers:
                assert not any(r.fifos.values()), (m.cycle, r.x, r.y)
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


class CountingMachine(Machine):
    """Counts what the benchmark tracer counts: `try_move` calls and the
    moves among them, and per role the processor ticks and the ticks that
    made progress."""

    def __init__(self, vm, cfg):
        super().__init__(vm, cfg)
        self.counts = {"try_move": 0, "moves": 0}
        for cpu in self.cpus:
            self.counts.setdefault(cpu.role, [0, 0])
            cpu.tick = self.counted(cpu.tick, self.counts[cpu.role])

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


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_finished_machine_is_freed_without_the_cycle_collector(path):
    b = program(path)
    gc.disable()
    try:
        m = Machine(b.vm, SimConfig(trace=False))
        m.run()
        refs = [weakref.ref(o) for o in [m, *m.tiles, *m.cpus]]
        del m
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


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
            cpu.tick = self.stalled(cpu.tick, rng.choice(rates), rng)

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
