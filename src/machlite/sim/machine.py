"""Whole-machine cycle simulator.

Every cycle runs a router phase (at most one wavelet moved per color and
input port of each tile, multicast all-or-nothing, outputs arbitrated
C, L, R, U, D) and then a processor phase (one tick per tile processor).
Words a processor pushes become movable the next cycle; a fabric hop costs
hop_latency_cycles before the word can move on.

A cycle visits only the tiles that can act.  The router phase visits, in
tile order, the routers that held a wavelet in an input FIFO when it began;
a wavelet landing during the phase cannot move before the next cycle, so
its router joins the set for then.  The processor phase ticks, in processor
order, every processor except those that are idle with empty delivery
queues, for which a tick does nothing.  A delivery into a tile's queue (the
C port) wakes its processor.  A running count of the wavelets in FIFOs and
delivery queues answers whether the fabric is empty.

The machine is done when the executive has halted, every queue is empty and
every processor is idle.  A window with no router movement and no processor
progress raises DeadlockError with a dump of the blocked channels.
"""
from __future__ import annotations

from ..lowering.layout import (
    ARGS_BCAST, COLOR_NAMES, EXEC, MERGE, RED_BCAST, RED_COL, RED_CTRL,
    RED_ROW, RED_UP_E, RED_UP_S, REDUCE, RESP, WORKER)
from ..memwords import load_words
from ..refinterp import RefResult
from .config import SimConfig
from .roles import ExecCpu, MergeCpu, ReduceCpu, RespCpu, WorkerCpu
from .router import ADVANCE, DELTA, OPPOSITE, RESET, Router


class DeadlockError(RuntimeError):
    def __init__(self, message: str, report: str):
        super().__init__(message + "\n" + report)
        self.report = report


class Machine:
    def __init__(self, vm, cfg: SimConfig | None = None):
        self.vm = vm
        self.cfg = cfg or SimConfig()
        self.cfg.validate()
        lay = vm.layout
        self.layout = lay
        self.cycle = 0
        self.routers = {}
        for x in range(lay.gw):
            for y in range(lay.gh):
                self.routers[(x, y)] = Router(x, y, lay.routes.get((x, y), {}))
        self.tiles = [self.routers[xy] for xy in sorted(self.routers)]
        for i, r in enumerate(self.tiles):
            r.index = i
        # per output port, the neighbour router of each tile (None at the
        # edge); kept here, not in the routers, so that they form no
        # reference cycle and are freed with the machine
        self.links = {o: [self.routers.get((r.x + dx, r.y + dy)) for r in self.tiles]
                      for o, (dx, dy) in DELTA.items()}
        self.worker_image, self.ctrl_image = vm.build_images()
        self.injected = {c: 0 for c in COLOR_NAMES}
        self.delivered = {c: 0 for c in COLOR_NAMES}
        self.absorbed = {c: 0 for c in COLOR_NAMES}
        self.loop_trips = {lid: 0 for lid in vm.loop_ids}
        self.trace: list = []
        self.section_latencies: list = []
        self.pending_depart = None
        self.rpc_occupancy: dict = {}
        self._last_progress = 0

        h = self.cfg.hop_latency_cycles
        pad = self.cfg.control_path_latency - (3 * h + 3)
        self.cpus = []
        self.exec_cpu = None
        for xy, role in sorted(lay.roles.items()):
            if role == EXEC:
                cpu = ExecCpu(self, xy, self.ctrl_image)
                self.exec_cpu = cpu
            elif role == MERGE:
                cpu = MergeCpu(self, xy)
            elif role == RESP:
                p = lay.role_params[xy]
                pos = p["position"]
                cpu = RespCpu(self, xy, pos, p["last_on_side"],
                              vm.chunks[pos], pad if pos == 0 else 0)
            elif role == WORKER:
                p = lay.role_params[xy]
                cpu = WorkerCpu(self, xy, p,
                                self.worker_image[p["wx"], p["wy"]])
            elif role == REDUCE:
                cpu = ReduceCpu(self, xy, lay.role_params[xy])
            else:
                continue
            self.cpus.append(cpu)
        # wavelets in all FIFOs and delivery queues; tile indices of the
        # routers with a nonempty input FIFO; indices into cpus of the
        # processors to tick (all but the idle ones with nothing delivered)
        self.in_flight = 0
        self.live_routers: set[int] = set()
        self.live_cpus = set(range(len(self.cpus)))
        self.tile_cpu = {cpu.router.index: i for i, cpu in enumerate(self.cpus)}

    # --- tracing and stats ---------------------------------------------------

    def trace_event(self, kind: str, **fields) -> None:
        if self.cfg.trace:
            self.trace.append((self.cycle, kind, fields))

    def note_broadcast(self, section: int, seq: int) -> None:
        self.trace_event("section_broadcast", section=section, seq=seq)
        self.pending_depart = (seq, section, self.cycle)

    def record_occ(self, wx: int, wy: int, rid: int, occ: int) -> None:
        self.rpc_occupancy.setdefault((wx, wy, rid), []).append(occ)

    # --- router phase --------------------------------------------------------

    def router_phase(self) -> bool:
        moved = False
        live = self.live_routers
        for i in sorted(live):
            r = self.tiles[i]
            used: dict = {}
            for color, port in r.busy_channels():
                if self.try_move(r, color, port, used):
                    moved = True
            if not any(r.fifos.values()):
                live.discard(i)
        return moved

    def try_move(self, r: Router, color: int, port: str, used: dict) -> bool:
        q = r.fifos[(color, port)]
        w, ready = q[0]
        if ready > self.cycle:
            return False
        if w.kind == ADVANCE:
            q.popleft()
            r.step_ring(color)
            self.absorbed[color] += 1
            self.in_flight -= 1
            return True
        outs = r.state(color).get(port)
        if outs is None:
            return False
        ok = self.commit(r, color, port, q, w, outs, used)
        if ok and w.kind == RESET and port != "C":
            r.step_ring(color)
        return ok

    def commit(self, r, color, port, q, w, outs, used) -> bool:
        u = used.setdefault(color, set())
        if any(o in u for o in outs):
            return False
        depth = self.cfg.fifo_depth
        h = self.cfg.hop_latency_cycles
        targets = []
        for o in outs:
            if o == "C":
                nb, dq, rdy = None, r.delivery(color), self.cycle
            else:
                nb = self.links[o][r.index]
                assert nb is not None, (r.x, r.y, COLOR_NAMES.get(color), o)
                dq, rdy = nb.fifo(color, OPPOSITE[o]), self.cycle + h
            if len(dq) >= depth:
                return False
            targets.append((nb, dq, rdy))
        q.popleft()
        u.update(outs)
        self.in_flight += len(targets) - 1
        for nb, dq, rdy in targets:
            dq.append((w, rdy))
            if nb is not None:
                self.live_routers.add(nb.index)
            elif r.index in self.tile_cpu:
                self.live_cpus.add(self.tile_cpu[r.index])
        if (self.pending_depart is not None and color == ARGS_BCAST
                and port == "C" and (r.x, r.y) == self.layout.merge_xy):
            seq, sec, g = self.pending_depart
            self.section_latencies.append((seq, sec, self.cycle - g))
            self.trace_event("args_depart_merge", seq=seq, section=sec,
                            latency=self.cycle - g)
            self.pending_depart = None
        return True

    # --- processor phase -----------------------------------------------------

    def cpu_phase(self) -> bool:
        prog = False
        live = self.live_cpus
        for i in sorted(live):
            cpu = self.cpus[i]
            if cpu.tick():
                prog = True
            if cpu.idle and not any(cpu.router.outbox.values()):
                live.discard(i)
        return prog

    # --- stepping ------------------------------------------------------------

    def step(self) -> None:
        self.cycle += 1
        moved = self.router_phase()
        prog = self.cpu_phase()
        if moved or prog:
            self._last_progress = self.cycle
        elif self.cycle - self._last_progress >= self.cfg.deadlock_window:
            raise DeadlockError(
                f"no progress for {self.cfg.deadlock_window} cycles",
                self.deadlock_report())

    @property
    def done(self) -> bool:
        if self.exec_cpu is not None and not self.exec_cpu.halted:
            return False
        if self.in_flight:
            return False
        return all(self.cpus[i].idle for i in self.live_cpus)

    def _skippable(self) -> int:
        if self.in_flight:
            return 0
        leaps = []
        for i in self.live_cpus:
            d = self.cpus[i].countdown()
            if d is None:
                continue
            if d < 2:
                return 0
            leaps.append(d)
        return min(leaps) - 1 if leaps else 0

    def run(self, max_cycles: int | None = None) -> None:
        cap = max_cycles or self.cfg.max_cycles
        while not self.done:
            n = self._skippable()
            if n > 0:
                self.cycle += n
                self._last_progress = self.cycle
                for i in self.live_cpus:
                    c = self.cpus[i]
                    if c.countdown() not in (None, 0):
                        c.leap(n)
            self.step()
            if self.cycle > cap:
                raise DeadlockError(
                    f"exceeded {cap} cycles without finishing",
                    self.deadlock_report())
        self.assert_quiescent()

    def assert_quiescent(self) -> None:
        leftovers = [
            (xy, COLOR_NAMES.get(c, c), p, len(q))
            for xy, r in self.routers.items()
            for (c, p), q in r.fifos.items() if q
        ]
        assert not leftovers, f"wavelets left in the fabric: {leftovers}"

    def deadlock_report(self) -> str:
        lines = []
        for r in self.tiles:
            xy = (r.x, r.y)
            for (c, p), q in sorted(r.fifos.items()):
                if q:
                    w, ready = q[0]
                    lines.append(
                        f"  {xy} {COLOR_NAMES.get(c, c)} in={p} depth={len(q)} "
                        f"head={w.kind}/{w.word} ready={ready} "
                        f"ring={r.ring_idx.get(c, 0)}")
            for c, q in sorted(r.outbox.items()):
                if q:
                    lines.append(f"  {xy} {COLOR_NAMES.get(c, c)} delivery "
                                 f"depth={len(q)} head={q[0][0].kind}")
        for cpu in self.cpus:
            if not cpu.idle:
                lines.append(f"  {cpu.xy} {cpu.role} state="
                             f"{getattr(cpu, 'state', '?')}")
        return "blocked channels:\n" + "\n".join(lines) if lines else "(empty fabric)"

    # --- results -------------------------------------------------------------

    def result(self, tainted=frozenset()) -> RefResult:
        values = {}
        for mlid in self.vm.observables:
            s = self.vm.symbol(mlid)
            image = self.ctrl_image if s.space == "controller" else self.worker_image
            values[mlid] = load_words(image, s.address, s.size_words, s.dtype, s.shape)
        return RefResult(values=values, loop_trips=dict(self.loop_trips),
                         tainted=set(tainted))

    def stats(self) -> dict:
        busy = {}
        for (wx, wy, rid), occs in self.rpc_occupancy.items():
            busy[(wx, wy)] = busy.get((wx, wy), 0) + sum(occs)
        return {
            "cycles": self.cycle,
            "injected": {COLOR_NAMES[c]: n for c, n in self.injected.items() if n},
            "delivered": {COLOR_NAMES[c]: n for c, n in self.delivered.items() if n},
            "absorbed": {COLOR_NAMES[c]: n for c, n in self.absorbed.items() if n},
            "loop_trips": dict(self.loop_trips),
            "section_latencies": list(self.section_latencies),
            "worker_busy": busy,
            "reduction_stages": {
                "column_partials": self.delivered[RED_COL],
                "row_segments": self.delivered[RED_ROW],
                "corner_east": self.delivered[RED_UP_E],
                "corner_south": self.delivered[RED_UP_S],
                "field_broadcast": self.delivered[RED_BCAST],
                "to_controller": self.delivered[RED_CTRL],
            },
        }

