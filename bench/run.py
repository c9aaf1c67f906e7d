#!/usr/bin/env python3
"""machlite benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]

Run from the root of a checkout; machlite is imported from its `src/`.
The untraced run (`--trace 0`) repeats timed passes over the workload's
programs until the next pass would overrun `--seconds`, and reports the
end-to-end metrics as medians over passes.  The traced run (`--trace 1`)
alternates untraced and traced passes and reports the per-layer metrics.
Every program's output is checked against its reference; the digests of
all passes must agree with each other and with earlier runs of the same
workload and seed in this checkout (kept in `.bench_out/digests.json`).

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment and per-pass details, which are also written to `.bench_out/`,
together with the spans of the last traced pass.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11

def unit_of(name: str) -> str:
    if name.endswith("tile_cycles_per_s"):
        return "tile-cycles/s"
    if name.endswith("cycles_per_s"):
        return "cycles/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("cycles"):
        return "cycles"
    if name.endswith("words"):
        return "words"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "machlite" / "__init__.py").is_file():
        sys.exit("error: no machlite sources under src/ next to bench/")
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- environment -------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- measurement -------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a benchmark process until it is ready to time
    its first call: interpreter start, imports and source generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            times.append(perf_counter() - t0)
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {p.returncode}")
    return times


def run_passes(wl, programs, seconds: float, traced: bool):
    """Passes until the next one would overrun `seconds`; at least one of
    each kind.  A traced run alternates untraced and traced passes."""
    if traced:
        import tracing
    kinds = (False, True) if traced else (False,)
    passes = {False: [], True: []}
    tracers = []
    start = perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        i += 1
        have_all = all(passes[k] for k in kinds)
        if have_all and perf_counter() - start + passes[kind][-1].total_s > seconds:
            break
        gc.collect()
        if kind:
            tr = tracing.Tracer()
            with tracing.installed(tr):
                res = wl.run_pass(programs)
            tracers.append(tr)
        else:
            res = wl.run_pass(programs)
        passes[kind].append(res)
    return passes[False], passes[True], tracers


def check_digests(key: str, digests: set[str]) -> list[str]:
    """Problems with this run's digests, against each other and earlier runs."""
    if len(digests) != 1:
        return [f"digests differ between passes: {sorted(digests)}"]
    (digest,) = digests
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if known.setdefault(key, digest) != digest:
        return [f"digest {digest} differs from an earlier run's {known[key]}"]
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def _median(values) -> float:
    """Median; counts stay whole numbers."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_metrics(untraced, traced, tracers) -> dict[str, float]:
    import tracing
    layers = [tracing.layer_metrics(tr) for tr in tracers]
    out = {name: _median(m[name] for m in layers) for name in layers[0]}
    first = untraced[0]
    sim_s = _median(r.sim_s for r in untraced)
    runs = untraced + traced
    attempted = sum(r.attempted for r in runs)
    base = _median(r.total_s for r in untraced)
    with_trace = _median(r.total_s for r in traced)
    out.update({
        "compile_s": _median(r.compile_s for r in untraced),
        "ref_s": _median(r.ref_s for r in untraced),
        "sim_s": sim_s,
        "sim_cycles": first.sim_cycles,
        "sim_cycles_per_s": first.sim_cycles / sim_s if sim_s else 0.0,
        "sim.tile_cycles_per_s": first.tile_cycles / sim_s if sim_s else 0.0,
        "fail_ratio": sum(r.failed for r in runs) / attempted if attempted else 0.0,
        "programs": first.attempted,
        "skipped_programs": first.skipped,
        "trace.untraced_total_s": base,
        "trace.traced_total_s": with_trace,
        "trace.overhead_s": with_trace - base,
        "trace.overhead_ratio": (with_trace - base) / base,
    })
    return out


def _span_records(tracers) -> list:
    if not tracers:
        return []
    spans = tracers[-1].spans
    t0 = spans[0][1] if spans else 0.0
    return [[name, start - t0, end - t0, parent] for name, start, end, parent in spans]


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """(result object, details, spans of the last traced pass) for one run."""
    setup = None if trace else measure_setup(wl.name, seed)
    programs = wl.sources(seed)
    untraced, traced, tracers = run_passes(wl, programs, seconds, trace)
    runs = untraced + traced
    problems = check_digests(f"{wl.name}:{seed}", {r.digest() for r in runs})
    for r in runs:
        problems += [e for e in r.errors if e not in problems]
    failed = sum(r.failed for r in runs)
    if trace:
        values = run_metrics(untraced, traced, tracers)
    else:
        values = {
            "total_s": _median(r.total_s for r in untraced),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    details = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "env": environment(),
        "digest": runs[0].digest(),
        "problems": problems,
        "setup_probes_s": setup,
        "passes": [{"traced": kind, "total_s": r.total_s,
                    "compile_s": r.compile_s, "ref_s": r.ref_s, "sim_s": r.sim_s,
                    "sim_cycles": r.sim_cycles, "attempted": r.attempted,
                    "failed": r.failed, "skipped": r.skipped}
                   for kind, rs in ((False, untraced), (True, traced)) for r in rs],
    }
    return result, details, _span_records(tracers)


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_checkout_source()
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        wl.sources(args.seed)
        print("ready", flush=True)
        return 0
    result, details, spans = measure(wl, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"result": result, "details": details, "spans": spans}))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
