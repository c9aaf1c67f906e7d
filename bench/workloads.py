"""Benchmark workloads: generated sources and one timed pass over them.

Each workload turns the seed into a list of (program seed, source text)
and runs every program through the public pipeline, the calls that
`machlite diff`, `fuzz`, `compile` and `run --backend ref` make.  Calls
into machlite go through module attributes looked up at call time
(``pipeline.compile_source``, ``machine.Machine``, ...) so that the traced
run can install its wrappers from outside the package.

A pass checks every program's output against its reference and records a
digest per program.  Any exception or mismatch counts as a failed attempt;
no failing program is ever dropped.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from machlite import pipeline, refinterp
from machlite.fuzz import gen_source
from machlite.irg import ordered_walk
from machlite.lowering import emit
from machlite.sim import SimConfig, machine

# `machlite fuzz` skips programs with more nodes than its --max-nodes default.
FUZZ_MAX_NODES = 40

STENCIL_DENSE = """\
la u[16,16,256] f32 = rand
la e[16,16,256] f32 = rand
la w[16,16,256] f32 = rand
la s[16,16,256] f32 = rand
la nn[16,16,256] f32 = rand
uls total f32 = 0.0
shift(e[:, :, :], u[:, :, :], row, 1)
shift(w[:, :, :], u[:, :, :], row, -1)
shift(nn[:, :, :], u[:, :, :], col, -1)
shift(s[:, :, :], u[:, :, :], col, 1)
u += e
u += w
u += nn
u += s
u *= 0.2
reduce(u, total)
"""

BROADCAST_LOOP = """\
la a[32,32,8] f32 = rand
la b[32,32,8] f32 = rand
ga gains[32] f32 = rand
gs acc f32 = 0.0
gs cnt f32 = 0.0
for g in gains {
    acc += g
    cnt += 1.0
    a[0:2, 0:2, :] += b[0:2, 0:2, :]
    a[0:2, 0:2, :] *= g
    exit_if acc > 1000000.0
}
"""


@dataclass
class PassResult:
    """Timings, counts and per-program digests of one pass."""
    total_s: float = 0.0
    compile_s: float = 0.0
    ref_s: float = 0.0
    sim_s: float = 0.0
    sim_cycles: int = 0
    tile_cycles: int = 0
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    digests: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def hash_result(h, res) -> None:
    """Fold a RefResult's output arrays and loop trip counts into `h`."""
    for mlid in sorted(res.values):
        arr = np.ascontiguousarray(res.values[mlid])
        h.update(f"{mlid} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    h.update(repr(sorted(res.loop_trips.items())).encode())


def sim_program(seed: int, text: str, max_nodes: int | None,
                res: PassResult, h) -> list[str] | None:
    """Compile, reference-run, simulate and diff one program, as `cmd_fuzz`.

    Returns the mismatch report, or None when the program is skipped.
    """
    t0 = perf_counter()
    b = pipeline.compile_source(text, seed=seed)
    res.compile_s += perf_counter() - t0
    if max_nodes is not None and sum(1 for _ in ordered_walk(b.graph)) > max_nodes:
        res.skipped += 1
        return None
    t0 = perf_counter()
    ref = pipeline.run_reference(b)
    res.ref_s += perf_counter() - t0
    m = machine.Machine(b.vm, SimConfig(trace=False))
    t0 = perf_counter()
    m.run()
    res.sim_s += perf_counter() - t0
    got = m.result(tainted=ref.tainted)
    mis = refinterp.diff_results(b.graph, ref, got)
    res.sim_cycles += m.cycle
    res.tile_cycles += m.cycle * len(m.routers)
    h.update(f"cycles {m.cycle}\n{m.stats()!r}\n".encode())
    hash_result(h, got)
    return mis


def corpus_program(seed: int, text: str, res: PassResult, h) -> list[str]:
    """`machlite compile` plus `run --backend ref`: the planned-store run is
    checked against the symbolic-store run; the simulator does not run."""
    t0 = perf_counter()
    b = pipeline.compile_source(text, seed=seed)
    res.compile_s += perf_counter() - t0
    listing = emit.emit_text(b.vm)
    t0 = perf_counter()
    planned = pipeline.run_reference(b)
    res.ref_s += perf_counter() - t0
    symbolic = refinterp.run(b.graph)
    mis = refinterp.diff_results(b.graph, symbolic, planned)
    for name in sorted(listing):
        h.update(f"=== {name} ===\n{listing[name]}".encode())
    hash_result(h, planned)
    return mis


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    text: str | None = None     # one fixed program; else `count` fuzz seeds
    count: int = 1
    simulate: bool = True
    max_nodes: int | None = None

    def sources(self, seed: int) -> list[tuple[int, str]]:
        """(compile seed, source) pairs; equal seeds give equal sources."""
        if self.text is not None:
            return [(seed, self.text)]
        return [(s, gen_source(s)) for s in range(seed, seed + self.count)]

    def run_pass(self, programs: list[tuple[int, str]]) -> PassResult:
        res = PassResult()
        start = perf_counter()
        for seed, text in programs:
            h = hashlib.sha256()
            try:
                if self.simulate:
                    mis = sim_program(seed, text, self.max_nodes, res, h)
                else:
                    mis = corpus_program(seed, text, res, h)
            except Exception as e:  # every failure counts against fail_ratio
                first_line = (str(e).splitlines() or [""])[0]
                mis = [f"{type(e).__name__}: {first_line}"]
                h.update(f"error {type(e).__name__}".encode())
            if mis is None:
                continue
            res.attempted += 1
            if mis:
                res.failed += 1
                res.errors.append(f"seed {seed}: " + "; ".join(mis))
            res.digests.append(h.hexdigest())
        res.total_s = perf_counter() - start
        return res


WORKLOADS = {w.name: w for w in (
    Workload(
        "stencil_dense",
        "16x16 four-shift stencil, k=256: every worker busy, router-heavy; "
        "an idle-skipping simulator change should barely move it",
        text=STENCIL_DENSE),
    Workload(
        "broadcast_loop",
        "32x32 grid, 32-trip loop on a 2x2 region: broadcast-dominated, workers "
        "mostly idle, largest fabric; idle-skipping and image sizing show here",
        text=BROADCAST_LOOP),
    Workload(
        "fuzz_check",
        "machlite fuzz over 100 seeds on small grids: per-program fixed costs "
        "and per-cycle overhead of the differential gate",
        count=100, max_nodes=FUZZ_MAX_NODES),
    Workload(
        "compile_corpus",
        "compile, emit asm and planned-vs-symbolic reference over 1000 fuzz "
        "sources, no simulator: the frontend, planner, lowering and refinterp",
        count=1000, simulate=False),
)}
