"""Command line entry point.

    machlite compile FILE [--grid WxH] [--emit irg|mem|asm|paint]
    machlite run FILE --backend sim|ref [--seed N] [--trace PATH] [--stats]
    machlite diff FILE [--seed N] [--tol X]
    machlite fuzz [--programs N] [--max-nodes K] [--seed N]

Exit codes: 0 success, 1 user or program error, 2 internal invariant
violation.  Diagnostics go to standard error with source locations.
Set MACHLITE_COLOR=0 to disable ANSI escapes (or =1 to force them).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diagnostics import CompileError, SimFault
from .fuzz import FuzzLimits, gen_source
from .irg import ordered_walk
from .lowering.emit import emit_paint, emit_text
from .memplan import CapacityError
from .pipeline import check, compile_source, run_reference
from .refinterp import diff_results
from .sim import DeadlockError, Machine, SimConfig


def _want_color() -> bool:
    env = os.environ.get("MACHLITE_COLOR", "").lower()
    if env in ("0", "no", "off", "never", "false"):
        return False
    if env in ("1", "yes", "on", "always", "true"):
        return True
    return sys.stderr.isatty()


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _want_color() else text


def _fail(msg: str) -> int:
    print(_paint("error:", "31") + " " + msg, file=sys.stderr)
    return 1


def _report_diags(err: CompileError) -> int:
    for d in err.diagnostics:
        print(_paint(str(d), "31" if d.severity == "error" else "33"),
              file=sys.stderr)
    if not err.diagnostics:
        print(_paint("error:", "31") + " " + str(err), file=sys.stderr)
    return 1


def _grid(spec: str | None):
    if spec is None:
        return None, None
    try:
        w, h = spec.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}, expected WxH")


def _compile_file(path: str, grid: str | None, seed: int):
    with open(path) as fh:
        text = fh.read()
    nx, ny = _grid(grid)
    return compile_source(text, nx, ny, seed=seed)


# --- emit formats ------------------------------------------------------------

def format_irg(g) -> str:
    lines = [f"; ir graph  grid {g.grid[0]}x{g.grid[1]}", "[memlocs]"]
    for mlid in sorted(g.memlocs):
        ml = g.memlocs[mlid]
        vk = ml.var_kind.value if ml.var_kind else "-"
        shp = ",".join(str(d) for d in ml.mem_shape) or "-"
        lines.append(f"{mlid} {ml.name} {vk} {ml.dtype.value} "
                     f"mem={shp} {ml.kind} {ml.placement}")
    lines.append("[nodes]")
    def emit_node(n, depth):
        pad = "  " * depth
        args = []
        for a in n.args:
            if hasattr(a, "mlid"):
                args.append(f"m{a.mlid}:{a.access}:{a.klass}")
            else:
                args.append(f"#{a.value}")
        extra = ""
        if "region" in n.attrs:
            (x0, x1, sx), (y0, y1, sy) = n.attrs["region"]
            extra = f" region=({x0}:{x1}:{sx},{y0}:{y1}:{sy})"
        lines.append(f"{pad}{n.id:3d} {n.op_name} [{' '.join(args)}]{extra}")
        sub = n.attrs.get("subgraph")
        if sub is not None:
            for inner in sub.nodes:
                emit_node(inner, depth + 1)
    for n in g.nodes:
        emit_node(n, 0)
    return "\n".join(lines) + "\n"


def format_mem(plan, g) -> str:
    lines = ["; memory plan", "[entries]"]
    for mlid in sorted(plan.entries):
        e = plan.entries[mlid]
        ml = g.memlocs[mlid]
        lines.append(f"{mlid} {ml.name:12s} {e.space:10s} "
                     f"@{plan.address_words(mlid):5d} +{e.size_words}")
    return "\n".join(lines) + "\n"


def dump_result(g, res) -> str:
    by_name = sorted((g.memlocs[mlid].name, mlid) for mlid in res.values)
    np.set_printoptions(precision=8, threshold=64, suppress=False)
    out = []
    for name, mlid in by_name:
        ml = g.memlocs[mlid]
        arr = res.values[mlid]
        out.append(f"{name} {ml.dtype.value} shape={arr.shape}")
        out.append(np.array2string(arr))
    for lid in sorted(res.loop_trips):
        out.append(f"loop {lid} trips={res.loop_trips[lid]}")
    return "\n".join(out) + "\n"


def write_trace(m: Machine, path: str) -> None:
    with open(path, "w") as fh:
        for cycle, kind, fields in m.trace:
            kv = " ".join(f"{k}={v}" for k, v in fields.items())
            fh.write(f"{cycle} {kind} {kv}\n")


# --- subcommands -------------------------------------------------------------

def cmd_compile(a) -> int:
    b = _compile_file(a.file, a.grid, a.seed)
    if a.emit == "irg":
        sys.stdout.write(format_irg(b.graph))
    elif a.emit == "mem":
        sys.stdout.write(format_mem(b.plan, b.graph))
    elif a.emit == "paint":
        sys.stdout.write(emit_paint(b.vm))
    else:
        for fname, text in emit_text(b.vm).items():
            sys.stdout.write(f"=== {fname} ===\n{text}")
    return 0


def cmd_run(a) -> int:
    b = _compile_file(a.file, a.grid, a.seed)
    if a.backend == "ref":
        res = run_reference(b)
        sys.stdout.write(dump_result(b.graph, res))
        return 0
    m = Machine(b.vm, SimConfig(trace=bool(a.trace)))
    m.run()
    sys.stdout.write(dump_result(b.graph, m.result()))
    if a.trace:
        write_trace(m, a.trace)
    if a.stats:
        for k, v in m.stats().items():
            sys.stdout.write(f"{k}: {v}\n")
    return 0


def cmd_diff(a) -> int:
    b = _compile_file(a.file, a.grid, a.seed)
    ref = run_reference(b)
    m = Machine(b.vm)
    m.run()
    got = m.result(tainted=ref.tainted)
    mis = diff_results(b.graph, ref, got, rel=a.tol)
    if mis:
        for line in mis:
            print(_paint(line, "31"), file=sys.stderr)
        return 1
    print("all variables within tolerance")
    return 0


def cmd_fuzz(a) -> int:
    lim = FuzzLimits()
    failures = 0
    ran = 0
    for seed in range(a.seed, a.seed + a.programs):
        src = gen_source(seed, lim)
        try:
            b = compile_source(src, seed=seed)
            if sum(1 for _ in ordered_walk(b.graph)) > a.max_nodes:
                continue
            mis = check(b)
        except Exception as e:
            print(_paint(f"seed {seed}: {type(e).__name__}: {e}", "31"),
                  file=sys.stderr)
            failures += 1
            continue
        ran += 1
        if mis:
            failures += 1
            print(_paint(f"seed {seed}: mismatch", "31"), file=sys.stderr)
            for line in mis:
                print("  " + line, file=sys.stderr)
    print(f"{ran} programs compared, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="machlite", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="compile and print an artifact")
    c.add_argument("file")
    c.add_argument("--grid", default=None, metavar="WxH")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--emit", choices=("irg", "mem", "asm", "paint"),
                   default="asm")
    c.set_defaults(fn=cmd_compile)

    r = sub.add_parser("run", help="execute on a backend and dump variables")
    r.add_argument("file")
    r.add_argument("--backend", choices=("sim", "ref"), required=True)
    r.add_argument("--grid", default=None, metavar="WxH")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trace", default=None, metavar="PATH")
    r.add_argument("--stats", action="store_true")
    r.set_defaults(fn=cmd_run)

    d = sub.add_parser("diff", help="run both backends and compare")
    d.add_argument("file")
    d.add_argument("--grid", default=None, metavar="WxH")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--tol", type=float, default=1e-5)
    d.set_defaults(fn=cmd_diff)

    f = sub.add_parser("fuzz", help="random-program differential harness")
    f.add_argument("--programs", type=int, default=50)
    f.add_argument("--max-nodes", type=int, default=40)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(fn=cmd_fuzz)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        return _fail(f"cannot read {e.filename}")
    except CompileError as e:
        return _report_diags(e)
    except CapacityError as e:
        return _fail(str(e))
    except (SimFault, DeadlockError) as e:
        return _fail(str(e))
    except ValueError as e:
        return _fail(str(e))
    except Exception:
        import traceback
        traceback.print_exc()
        print(_paint("internal error", "31"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
