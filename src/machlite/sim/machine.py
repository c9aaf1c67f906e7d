"""Whole-machine cycle simulator.

Every cycle runs a router phase (at most one wavelet moved per color and
input port of each tile, multicast all-or-nothing, outputs arbitrated
C, L, R, U, D) and then a processor phase (one tick per tile processor).
Words a processor pushes become movable the next cycle; a fabric hop costs
hop_latency_cycles before the word can move on; a word delivered to a
processor can be consumed in the same cycle's processor phase.

A cycle visits only the tiles that can act.  The router phase visits, in
tile order, the routers that held a wavelet in an input FIFO when it began;
a wavelet landing during the phase cannot move before the next cycle, so
its router joins the set for then.  A router serves its input channels in
a fixed (color, port) order and resolves where a color goes once per ring
state, on first use, as the one input port that state routes, a bitmask
of output ports and the queues behind them.  Wavelets are ints (see
`router`): an input FIFO holds (wavelet, ready cycle) pairs and a
delivery queue bare wavelets.

The processor phase ticks, in processor order, the live processors.  A
tick that makes no progress changes nothing, and it reads only the
processor's own state, the cycle, its delivery queues and the lengths of
its tile's C input FIFOs.  So a processor whose tick makes no progress
sleeps until one of three events wakes it: a wavelet is delivered to its
tile, a wavelet leaves its tile's C input FIFO (by a move or an absorbed
advance, which frees push capacity), or the cycle of a timer it set comes
(a processor busy for n cycles, in RPC setup, compute or the control-path
pad, waits in its one timed state, `asleep`, and sets a timer for the
cycle that wait ends).  A sleeping processor that is not idle, or has
words delivered, is blocked: the machine is not done while one is.  When
no router and no processor is live, the machine jumps to the earliest
timer.  A running count of the wavelets in FIFOs and delivery queues
answers whether the fabric is empty.

The machine is done when the executive has stopped after its halt
instruction, every queue is empty and every processor is idle.  A window
with no router movement, no processor progress and no timer pending
raises DeadlockError with a dump of the blocked channels.

A worker whose map or gather-family task faults on its data (an index or
a dynamic stop out of range) records (task number, x, y, fault) in
`faults` and retires the task unwritten.  When the run ends, `run` raises
the least recorded fault, ahead of any deadlock or cycle-cap error: the
one the reference interpreter stops at, whatever the timing.
"""
from __future__ import annotations

import heapq

from ..lowering.layout import (
    ARGS_BCAST, COLOR_NAMES, EXEC, MERGE, RED_BCAST, RED_COL, RED_CTRL,
    RED_ROW, RED_UP_E, RED_UP_S, REDUCE, RESP, WORKER)
from ..memwords import word_view
from ..refinterp import RefResult
from .config import SimConfig
from .roles import ExecCpu, MergeCpu, ReduceCpu, RespCpu, WorkerCpu
from .router import ADVANCE, DELTA, OPPOSITE, PORT_BIT, RESET, Router, describe


class DeadlockError(RuntimeError):
    def __init__(self, message: str, report: str):
        super().__init__(message + "\n" + report)
        self.report = report


class Machine:
    def __init__(self, vm, cfg: SimConfig | None = None):
        self.vm = vm
        self.cfg = cfg or SimConfig()
        self.cfg.validate()
        self.fifo_depth = self.cfg.fifo_depth
        self.hop_latency = self.cfg.hop_latency_cycles
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
        self.worker_busy: dict = {}     # (x, y) -> cycles spent on RPCs
        self.faults: list = []          # (task number, x, y, SimFault)
        self._last_progress = 0
        # wavelets in all FIFOs and delivery queues; tile indices of the
        # routers with a nonempty input FIFO; indices into cpus of the
        # processors to tick, and of the blocked ones (asleep with work
        # left); (cycle, index into cpus) of the pending timers
        self.in_flight = 0
        self.live_routers: set[int] = set()
        self.blocked: set[int] = set()
        self.timers: list[tuple[int, int]] = []

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
                                self.worker_image.tile(p["wx"], p["wy"]))
            elif role == REDUCE:
                cpu = ReduceCpu(self, xy, lay.role_params[xy])
            else:
                continue
            self.cpus.append(cpu)
        self.live_cpus = set(range(len(self.cpus)))
        for i, cpu in enumerate(self.cpus):
            cpu.router.cpu = i

    # --- tracing and stats ---------------------------------------------------

    def trace_event(self, kind: str, **fields) -> None:
        if self.cfg.trace:
            self.trace.append((self.cycle, kind, fields))

    def note_broadcast(self, section: int, seq: int) -> None:
        self.trace_event("section_broadcast", section=section, seq=seq)
        self.pending_depart = (seq, section, self.cycle)

    def record_occ(self, wx: int, wy: int, occ: int) -> None:
        self.worker_busy[wx, wy] = self.worker_busy.get((wx, wy), 0) + occ

    # --- router phase --------------------------------------------------------

    def router_phase(self) -> bool:
        moved = False
        live = self.live_routers
        try_move = self.try_move
        tiles = self.tiles
        for i in sorted(live):
            r = tiles[i]
            used: dict = {}
            busy = False
            for color, port, q in r.chans:
                if q:
                    if try_move(r, color, port, used):
                        moved = True
                    if q:
                        busy = True
            if not busy:
                live.discard(i)
        return moved

    def try_move(self, r: Router, color: int, port: str, used: dict) -> bool:
        """Move the head wavelet of input channel (color, port) of `r`, if it
        is ready, routed and every destination has room; `used` maps each
        color to the output ports this router has already moved it to this
        cycle, as a PORT_BIT mask.  It stays a method, called once per
        nonempty channel rather than inlined into the phase loop, because
        the benchmark tracer counts its calls."""
        key = (color, port)
        q = r.fifos[key]
        w, ready = q[0]
        cycle = self.cycle
        if ready > cycle:
            return False
        if w == ADVANCE:
            del q[0]
            r.step_ring(color)
            self.absorbed[color] += 1
            self.in_flight -= 1
            self.wake_blocked(r.cpu)
            return True
        route = r.routes.get(color)
        if route is None:
            route = r.routes[color] = self.resolve(r, color)
        in_port, mask, targets = route
        if in_port != port:
            return False
        u = used.get(color, 0)
        if u & mask:
            return False
        depth = self.fifo_depth
        for dq, _nb in targets:
            if len(dq) >= depth:
                return False
        del q[0]
        used[color] = u | mask
        self.in_flight += len(targets) - 1
        rdy = cycle + self.hop_latency
        cpu = r.cpu
        for dq, nb in targets:
            if nb is None:
                dq.append(w)
                if cpu is not None:
                    self.live_cpus.add(cpu)
                    self.blocked.discard(cpu)
            else:
                dq.append((w, rdy))
                self.live_routers.add(nb)
        if port == "C":
            if cpu in self.blocked:
                self.wake_blocked(cpu)
            if (self.pending_depart is not None and color == ARGS_BCAST
                    and (r.x, r.y) == self.layout.merge_xy):
                seq, sec, g = self.pending_depart
                self.section_latencies.append((seq, sec, cycle - g))
                self.trace_event("args_depart_merge", seq=seq, section=sec,
                                 latency=cycle - g)
                self.pending_depart = None
        elif w == RESET:
            r.step_ring(color)
        return True

    def resolve(self, r: Router, color: int) -> tuple:
        """(input port, port mask, targets) of the current ring state of
        `color` at `r`, or (None, 0, ()) when `r` does not route `color`.
        A target is (queue, neighbour tile index), with None for the
        delivery queue."""
        ring = r.rings.get(color)
        if not ring:
            return None, 0, ()
        port, outs = ring[r.ring_idx.get(color, 0)]
        mask = 0
        targets = []
        for o in outs:
            mask |= PORT_BIT[o]
            if o == "C":
                targets.append((r.delivery(color), None))
            else:
                nb = self.links[o][r.index]
                assert nb is not None, (r.x, r.y, COLOR_NAMES.get(color), o)
                targets.append((nb.fifo(color, OPPOSITE[o]), nb.index))
        return port, mask, tuple(targets)

    def wake_blocked(self, cpu: int | None) -> None:
        """A wavelet left the C input FIFO of the tile of processor `cpu`,
        which may now push again."""
        if cpu in self.blocked:
            self.blocked.remove(cpu)
            self.live_cpus.add(cpu)

    def wake_at(self, cycle: int, cpu: int) -> None:
        """Wake processor `cpu` in the processor phase of `cycle`."""
        heapq.heappush(self.timers, (cycle, cpu))

    # --- processor phase -----------------------------------------------------

    def cpu_phase(self) -> bool:
        prog = False
        live = self.live_cpus
        timers = self.timers
        while timers and timers[0][0] <= self.cycle:
            i = heapq.heappop(timers)[1]
            live.add(i)
            self.blocked.discard(i)
        cpus = self.cpus
        for i in sorted(live):
            cpu = cpus[i]
            if cpu.tick():
                prog = True
                if cpu.idle and not any(cpu.outbox.values()):
                    live.discard(i)
            else:
                live.discard(i)
                if not cpu.idle or any(cpu.outbox.values()):
                    self.blocked.add(i)
        return prog

    # --- stepping ------------------------------------------------------------

    def step(self) -> None:
        self.cycle += 1
        moved = self.router_phase()
        prog = self.cpu_phase()
        if moved or prog:
            self._last_progress = self.cycle
        elif (not self.timers
              and self.cycle - self._last_progress >= self.cfg.deadlock_window):
            raise DeadlockError(
                f"no progress for {self.cfg.deadlock_window} cycles",
                self.deadlock_report())

    @property
    def done(self) -> bool:
        if self.exec_cpu is not None and not self.exec_cpu.idle:
            return False
        if self.in_flight or self.blocked:
            return False
        return all(self.cpus[i].idle for i in self.live_cpus)

    def run(self, max_cycles: int | None = None) -> None:
        cap = max_cycles or self.cfg.max_cycles
        try:
            while not self.done:
                if self.timers and not self.live_routers and not self.live_cpus:
                    self.cycle = self.timers[0][0] - 1
                self.step()
                if self.cycle > cap:
                    raise DeadlockError(
                        f"exceeded {cap} cycles without finishing",
                        self.deadlock_report())
        except DeadlockError:
            if not self.faults:
                raise
        if self.faults:
            raise min(self.faults, key=lambda f: f[:3])[3]
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
                        f"head={describe(w)} ready={ready} "
                        f"ring={r.ring_idx.get(c, 0)}")
            for c, q in sorted(r.outbox.items()):
                if q:
                    lines.append(f"  {xy} {COLOR_NAMES.get(c, c)} delivery "
                                 f"depth={len(q)} head={describe(q[0])}")
        for cpu in self.cpus:
            if not cpu.idle:
                lines.append(f"  {cpu.xy} {cpu.role} state={cpu.state}")
        return "blocked channels:\n" + "\n".join(lines) if lines else "(empty fabric)"

    # --- results -------------------------------------------------------------

    def result(self, tainted=frozenset()) -> RefResult:
        values = {}
        for mlid in self.vm.observables:
            s = self.vm.symbol(mlid)
            image = self.ctrl_image if s.space == "controller" else self.worker_image
            values[mlid] = word_view(image, s.address, s.size_words, s.dtype,
                                     s.shape).copy()
        return RefResult(values=values, loop_trips=dict(self.loop_trips),
                         tainted=set(tainted))

    def stats(self) -> dict:
        return {
            "cycles": self.cycle,
            "injected": {COLOR_NAMES[c]: n for c, n in self.injected.items() if n},
            "delivered": {COLOR_NAMES[c]: n for c, n in self.delivered.items() if n},
            "absorbed": {COLOR_NAMES[c]: n for c, n in self.absorbed.items() if n},
            "loop_trips": dict(self.loop_trips),
            "section_latencies": list(self.section_latencies),
            "worker_busy": dict(self.worker_busy),
            "reduction_stages": {
                "column_partials": self.delivered[RED_COL],
                "row_segments": self.delivered[RED_ROW],
                "corner_east": self.delivered[RED_UP_E],
                "corner_south": self.delivered[RED_UP_S],
                "field_broadcast": self.delivered[RED_BCAST],
                "to_controller": self.delivered[RED_CTRL],
            },
        }

