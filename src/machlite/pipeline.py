"""Source-to-simulator pipeline glue.

compile_source() drives every stage: parse, type-check, build the IR
graph, plan memory, lower to the machine program.  The grid defaults to
the first distributed array's leading dims so small scripts need no
explicit configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import CompileError, Diagnostic
from .frontend import GridConfig, VarKind, analyze, lower_to_il, parse
from . import irg, memplan, refinterp
from .lowering import lower
from .sim import Machine, SimConfig


@dataclass
class Bundle:
    """Everything one compilation produces, stage by stage."""
    source: str
    grid: tuple[int, int]
    seed: int
    il: object
    graph: irg.IRGraph
    plan: memplan.MemPlan
    vm: object


def infer_grid(text: str) -> tuple[int, int] | None:
    prog, diags = parse(text)
    if any(d.severity == "error" for d in diags):
        raise CompileError([d for d in diags if d.severity == "error"])
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
                "error", "no distributed array to infer the grid from; "
                "pass nx and ny explicitly")])
        nx, ny = grid
    prog, diags = parse(text)
    errs = [d for d in diags if d.severity == "error"]
    if errs:
        raise CompileError(errs)
    typed, diags = analyze(prog, GridConfig(nx, ny))
    errs = [d for d in diags if d.severity == "error"]
    if typed is None or errs:
        raise CompileError(errs)
    il = lower_to_il(typed, seed=seed)
    g = irg.build(il)
    bad = irg.validate(g)
    if bad:
        raise CompileError(bad)
    plan = memplan.plan(g)
    vm = lower(g, plan)
    return Bundle(source=text, grid=(nx, ny), seed=seed,
                  il=il, graph=g, plan=plan, vm=vm)


def run_reference(b: Bundle) -> refinterp.RefResult:
    return refinterp.run(b.graph, b.plan)


def run_machine(b: Bundle, cfg: SimConfig | None = None):
    """(machine, result) after running to quiescence."""
    m = Machine(b.vm, cfg)
    m.run()
    return m, m.result()


def check(b: Bundle, cfg: SimConfig | None = None) -> list[str]:
    """Run both backends and return the mismatch report (empty = agree)."""
    ref = run_reference(b)
    m = Machine(b.vm, cfg)
    m.run()
    got = m.result(tainted=ref.tainted)
    return refinterp.diff_results(b.graph, ref, got)
