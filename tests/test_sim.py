"""Differential gate: the simulator against the reference interpreter.

Every example program and a range of fuzz programs must agree between the
two backends, also under non-default `SimConfig` timings.  Per-program
goldens pin the default-config cycle count and the sha256 of the
`machlite compile --emit asm` listing, so a change that claims to leave
behaviour alone can show that it did.

The long campaign (fuzz seeds 0-299 under every variant) is marked `slow`
and deselected by default; run it with `pytest -m slow`.
"""
from __future__ import annotations

import gc
import hashlib
import weakref
from pathlib import Path

import pytest

from machlite.fuzz import gen_source
from machlite.irg import ordered_walk
from machlite.lowering.emit import emit_text
from machlite.pipeline import check, compile_source
from machlite.sim import Machine, SimConfig

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


def test_every_program_has_a_golden():
    assert sorted(p.stem for p in PROGRAMS) == sorted(GOLDEN)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_program_agrees_and_matches_golden(path):
    b = program(path)
    assert check(b, SimConfig(trace=False)) == []
    m = Machine(b.vm, SimConfig(trace=False))
    m.run()
    assert (m.cycle, asm_digest(b.vm)) == GOLDEN[path.stem]


@pytest.mark.parametrize("seed", range(60))
def test_fuzz_seed_agrees(seed):
    b = fuzz_bundle(seed)
    if b is None:
        pytest.skip(f"more than {FUZZ_MAX_NODES} nodes")
    assert check(b, SimConfig(trace=False)) == []


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


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["default"] + sorted(VARIANTS))
def test_fuzz_campaign(variant):
    cfg = SimConfig(trace=False, **VARIANTS.get(variant, {}))
    failures = {}
    for seed in range(300):
        b = fuzz_bundle(seed)
        if b is not None:
            mis = check(b, cfg)
            if mis:
                failures[seed] = mis
    assert failures == {}


def test_finished_machine_is_freed_without_the_cycle_collector():
    b = program(PROGRAMS[0])
    gc.disable()
    try:
        m = Machine(b.vm, SimConfig(trace=False))
        m.run()
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_trace_is_off_by_default():
    m = Machine(program(PROGRAMS[0]).vm)
    m.run()
    assert m.cycle > 0 and m.trace == []
