"""Per-layer tracing installed from outside the package.

`installed(tracer)` replaces, for the duration of a `with` block, the
names through which callers reach each layer: the stage functions that
`pipeline.compile_source` looks up (`machlite.pipeline.parse`, ...,
`machlite.irg.build`, `machlite.memplan.plan`), the reference interpreter,
`emit_text`, `VMachineProgram.build_images`, and `machine.Machine`, which
becomes a subclass that times its phases.  Everything is restored on exit,
so untraced passes in the same process run the original code.

Calls into a layer are recorded as spans (name, start, end, parent index)
kept in memory.  The simulator's per-cycle phases (router, cpu, `done`) are
accumulated timers rather than spans: one span per phase per cycle would
cost more than many of the phases.  Processor ticks, `try_move` and the
router's `occupancy` and `busy_channels` are counted.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from machlite import irg, memplan, pipeline, refinterp
from machlite.lowering import emit
from machlite.lowering.vmprog import VMachineProgram
from machlite.sim import machine
from machlite.sim.router import Router

import workloads

ROLES = ("exec", "merge", "resp", "worker", "reduce")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent index | None)
        self._open: list[int] = []
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kw):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)
            self.time[name] += end - start
            self.count[name] += 1

    def wrap(self, name: str, fn, counts=None):
        """`fn` recorded as span `name`; `counts(result)` adds to the counters."""
        def traced(*args, **kw):
            out = self.call(name, fn, *args, **kw)
            if counts is not None:
                for key, n in counts(out).items():
                    self.count[key] += n
            return out
        return traced


def _counted_tick(count: dict, role: str, tick):
    ticks, useful = f"sim.roles.{role}.ticks", f"sim.roles.{role}.useful_ticks"

    def counted():
        progress = tick()
        count[ticks] += 1
        if progress:
            count[useful] += 1
        return progress
    return counted


def _counted_method(count: dict, name: str, fn):
    def counted(self, *args):
        count[name] += 1
        return fn(self, *args)
    return counted


def traced_machine(tr: Tracer, base: type) -> type:
    """A `base` (Machine) subclass that times its phases into `tr`."""
    time, count = tr.time, tr.count

    class TracedMachine(base):
        def __init__(self, vm, cfg=None):
            tr.call("sim.setup", super().__init__, vm, cfg)
            self.stepped = 0
            for cpu in self.cpus:
                cpu.tick = _counted_tick(count, cpu.role, cpu.tick)

        def router_phase(self):
            t0 = perf_counter()
            moved = super().router_phase()
            time["sim.router_phase"] += perf_counter() - t0
            return moved

        def cpu_phase(self):
            t0 = perf_counter()
            prog = super().cpu_phase()
            time["sim.cpu_phase"] += perf_counter() - t0
            return prog

        @property
        def done(self):
            t0 = perf_counter()
            d = base.done.fget(self)
            time["sim.done"] += perf_counter() - t0
            return d

        def try_move(self, r, color, port, used):
            ok = super().try_move(r, color, port, used)
            count["sim.try_move_calls"] += 1
            if ok:
                count["sim.moves"] += 1
            return ok

        def step(self):
            self.stepped += 1
            super().step()

        def run(self, max_cycles=None):
            tr.call("sim.run", super().run, max_cycles)
            count["sim.stepped_cycles"] += self.stepped
            count["sim.leapt_cycles"] += self.cycle - self.stepped
            count["sim.wavelets_injected"] += sum(self.injected.values())
            count["sim.wavelets_delivered"] += sum(self.delivered.values())
            count["sim.worker_busy_cycles"] += sum(self.stats()["worker_busy"].values())

        def result(self, tainted=frozenset()):
            return tr.call("sim.result", super().result, tainted)

    return TracedMachine


@contextlib.contextmanager
def installed(tr: Tracer):
    """Install the wrappers of `tr` for the duration of the block."""
    def planned_or_symbolic(run):
        def traced(g, plan=None):
            name = "refinterp.symbolic" if plan is None else "refinterp.run"
            return tr.call(name, run, g, plan)
        return traced

    def lowered(vm):
        return {"lowering.sections": len(vm.sections),
                "lowering.rpcs": len(vm.rpcs.defs),
                "lowering.instrs": len(vm.instrs)}

    patches = [
        (workloads, "sim_program", tr.wrap("program", workloads.sim_program)),
        (workloads, "corpus_program", tr.wrap("program", workloads.corpus_program)),
        (pipeline, "compile_source", tr.wrap("pipeline.compile", pipeline.compile_source)),
        (pipeline, "parse", tr.wrap("frontend.parse", pipeline.parse)),
        (pipeline, "analyze", tr.wrap("frontend.analyze", pipeline.analyze)),
        (pipeline, "lower_to_il", tr.wrap("frontend.il", pipeline.lower_to_il)),
        (irg, "build", tr.wrap("irg.build", irg.build, lambda g: {
            "irg.nodes": sum(1 for _ in irg.ordered_walk(g))})),
        (irg, "validate", tr.wrap("irg.validate", irg.validate)),
        (memplan, "plan", tr.wrap("memplan.plan", memplan.plan, lambda p: {
            "memplan.entries": len(p.entries),
            "memplan.worker_words": p.footprint["worker"]})),
        (pipeline, "lower", tr.wrap("lowering.lower", pipeline.lower, lowered)),
        (emit, "emit_text", tr.wrap("lowering.emit", emit.emit_text, lambda files: {
            "lowering.emit_bytes": sum(len(t.encode()) for t in files.values())})),
        (VMachineProgram, "build_images",
         tr.wrap("lowering.build_images", VMachineProgram.build_images)),
        (refinterp, "run", planned_or_symbolic(refinterp.run)),
        (refinterp, "diff_results", tr.wrap("refinterp.diff", refinterp.diff_results)),
        (machine, "Machine", traced_machine(tr, machine.Machine)),
        (Router, "occupancy", _counted_method(
            tr.count, "sim.router.occupancy_calls", Router.occupancy)),
        (Router, "busy_channels", _counted_method(
            tr.count, "sim.router.busy_channels_calls", Router.busy_channels)),
    ]
    saved = [(obj, name, vars(obj)[name]) for obj, name, _ in patches]
    try:
        for obj, name, new in patches:
            setattr(obj, name, new)
        yield tr
    finally:
        for obj, name, old in saved:
            setattr(obj, name, old)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 for a layer that did not run."""
    t, c = tr.time, tr.count
    out = {
        "frontend.parse_s": t["frontend.parse"],
        "frontend.parse_calls": c["frontend.parse"],
        "frontend.analyze_s": t["frontend.analyze"],
        "frontend.il_s": t["frontend.il"],
        "irg.build_s": t["irg.build"],
        "irg.validate_s": t["irg.validate"],
        "irg.nodes": c["irg.nodes"],
        "memplan.plan_s": t["memplan.plan"],
        "memplan.entries": c["memplan.entries"],
        "memplan.worker_words": c["memplan.worker_words"],
        "lowering.lower_s": t["lowering.lower"],
        "lowering.sections": c["lowering.sections"],
        "lowering.rpcs": c["lowering.rpcs"],
        "lowering.instrs": c["lowering.instrs"],
        "lowering.emit_s": t["lowering.emit"],
        "lowering.emit_bytes": c["lowering.emit_bytes"],
        "lowering.build_images_s": t["lowering.build_images"],
        "refinterp.run_s": t["refinterp.run"],
        "refinterp.symbolic_s": t["refinterp.symbolic"],
        "refinterp.diff_s": t["refinterp.diff"],
        "sim.setup_s": t["sim.setup"],
        "sim.router_phase_s": t["sim.router_phase"],
        "sim.cpu_phase_s": t["sim.cpu_phase"],
        "sim.done_s": t["sim.done"],
        "sim.result_s": t["sim.result"],
        "sim.other_s": (t["sim.run"] - t["sim.router_phase"]
                        - t["sim.cpu_phase"] - t["sim.done"]),
        "sim.stepped_cycles": c["sim.stepped_cycles"],
        "sim.leapt_cycles": c["sim.leapt_cycles"],
        "sim.worker_busy_cycles": c["sim.worker_busy_cycles"],
        "sim.router.occupancy_calls": c["sim.router.occupancy_calls"],
        "sim.router.busy_channels_calls": c["sim.router.busy_channels_calls"],
        "sim.try_move_calls": c["sim.try_move_calls"],
        "sim.moves": c["sim.moves"],
        "sim.move_ratio": _ratio(c["sim.moves"], c["sim.try_move_calls"]),
        "sim.wavelets_injected": c["sim.wavelets_injected"],
        "sim.wavelets_delivered": c["sim.wavelets_delivered"],
    }
    for role in ROLES:
        ticks = c[f"sim.roles.{role}.ticks"]
        useful = c[f"sim.roles.{role}.useful_ticks"]
        out[f"sim.roles.{role}.ticks"] = ticks
        out[f"sim.roles.{role}.useful_ticks"] = useful
        out[f"sim.roles.{role}.useful_ratio"] = _ratio(useful, ticks)
    return out
