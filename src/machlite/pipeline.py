"""Source-to-simulator pipeline glue.

compile_source() drives every stage: parse, type-check, build the IR
graph from the typed program and its frozen initializers, plan memory,
lower to the machine program.  The grid defaults to the first distributed
array's leading dims so small scripts need no explicit configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import CompileError, Diagnostic, SimFault
from .frontend import GridConfig, VarKind, analyze, parse
from . import irg, memplan, refinterp
from .lowering import lower
from .sim import Machine, SimConfig

# freezes every initializer; the benchmark tracer times it under this old
# name, whose rename waits for package-owned stage timings (ROADMAP item 2)
lower_to_il = irg.frozen_inits


@dataclass
class Bundle:
    """Everything one compilation produces, stage by stage."""
    graph: irg.IRGraph
    plan: memplan.MemPlan
    vm: object


def infer_grid(text: str) -> tuple[int, int] | None:
    prog, diags = parse(text)
    if diags:
        raise CompileError(diags)
    for d in prog.decls:
        if d.kind is VarKind.LA and len(d.shape) >= 2:
            return d.shape[0], d.shape[1]
    return None


def compile_source(text: str, nx: int | None = None, ny: int | None = None, *,
                   seed: int = 0) -> Bundle:
    if nx is None or ny is None:
        grid = infer_grid(text)
        if grid is None:
            raise CompileError([Diagnostic(
                "no distributed array to infer the grid from; "
                "pass nx and ny explicitly")])
        nx, ny = grid
    prog, diags = parse(text)
    if diags:
        raise CompileError(diags)
    typed, diags = analyze(prog, GridConfig(nx, ny))
    if typed is None or diags:
        raise CompileError(diags)
    g = irg.build(typed, lower_to_il(typed, seed))
    bad = irg.validate(g)
    if bad:
        raise CompileError(bad)
    plan = memplan.plan(g)
    vm = lower(g, plan)
    return Bundle(graph=g, plan=plan, vm=vm)


def run_reference(b: Bundle) -> refinterp.RefResult:
    return refinterp.run(b.graph, b.plan)


def run_machine(b: Bundle, cfg: SimConfig | None = None):
    """(machine, result) after running to quiescence."""
    m = Machine(b.vm, cfg)
    m.run()
    return m, m.result()


def check(b: Bundle, cfg: SimConfig | None = None, *,
          rel: float = 1e-5) -> list[str]:
    """Run both backends and return the mismatch report (empty = agree);
    `rel` is the relative tolerance of f32 reduction results.  A data
    fault of the reference is raised again when the simulator raises the
    same one, and is a mismatch when it raises another or none."""
    try:
        ref = run_reference(b)
    except SimFault as want:
        try:
            run_machine(b, cfg)
        except SimFault as got:
            if str(got) == str(want):
                raise
            return [f"data fault: reference {want}; simulator {got}"]
        return [f"data fault: reference {want}; simulator none"]
    m = Machine(b.vm, cfg)
    m.run()
    got = m.result(tainted=ref.tainted)
    return refinterp.diff_results(b.graph, ref, got, rel=rel)
