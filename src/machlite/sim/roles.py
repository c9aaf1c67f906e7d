"""Per-role processor models, ticked by the machine at most once per cycle.

Each processor is a state machine, and its `state` is the name of the
method that its next tick runs; the method returns whether the tick made
progress.  A field tile first takes in broadcast words and then runs that
same method.  The state is kept as a name, not as a bound method: a bound
method stored on its own instance is a reference cycle.

A processor busy for n cycles (RPC setup, compute, the control-path pad)
calls `sleep(n, then)`: it enters the one timed wait, `asleep`, which makes
no progress until the cycle `until`, then enters the state `then`, runs it
once and counts that tick as progress.

A worker's `dispatch` decodes each task's argument words through its RPC's
frame (`lowering.rpc.decode_frame`) and decides once per task which steps
the kind runs.  Each operand's base/start/length words become an immediate
or a live view of the tile's image through `memwords.word_view`, never a
lookup in the source graph, so the simulator exercises the broadcast
encoding end to end.  What a task does to the data is the reference's
rule, from `memwords`: the ALU, the reduction fold, the gather and scatter
moves, the index and dynamic-stop checks (made once, at dispatch) and the
shift pairing.  A map or gather-family task that faults is recorded on the
machine and retires unwritten (see `machine`).

A shift keeps its words packed, 2 B each, in `array("H")`: the sender's
copy of its source, taken at dispatch, and the receiver's preallocated
buffer of `sh_need` words.  Its route is static: a worker sends on the
color of its direction and phase (`layout.SHIFT_COLOR`) and receives on
its neighbor's, so no shift steps a ring.  Only the drains and the
reduction chains steer their rings, with `ADVANCE` and `RESET`.
"""
from __future__ import annotations

import math
import weakref
from array import array
from collections import deque

import numpy as np

from ..diagnostics import SimFault
from ..frontend.syntax import DType
from ..memwords import (
    CMPS, WordMemory, alu, check_index, check_stop, decode_words, encode_words,
    fold_sum, gather, np_dtype, scatter, shift_ends, word_view)
from ..lowering.layout import (
    ACK, ARGS_BCAST, ARGS_DRAIN, CTRL_BCAST, CTRL_DRAIN, LOOPBACK, RED_BCAST,
    RED_COL, RED_CTRL, RED_ROW, RED_UP_E, RED_UP_S, SHIFT_COLOR, WAKE)
from ..lowering.rpc import decode_frame
from .router import ADVANCE, RESET, data


def _i16(word: int) -> int:
    return word - 0x10000 if word >= 0x8000 else word


class Cpu:
    role = "?"
    # slots: a fabric has a processor on nearly every tile
    __slots__ = ("m", "xy", "router", "until", "then", "cfifo", "outbox", "depth",
                 "injected", "delivered", "live_routers", "tile")

    def __init__(self, m, xy):
        # the machine owns its processors; a strong back-reference would
        # keep a finished machine's memory images alive until the cyclic
        # collector runs
        self.m = weakref.proxy(m)
        self.xy = xy
        self.router = m.routers[xy]
        self.until = 0          # the cycle a wait started by sleep ends
        self.then = ""          # the state that follows the wait
        # what push and pop touch, held here rather than read through the
        # proxy; none of it refers back to the processor
        self.cfifo: dict = {}   # color -> this tile's C input FIFO
        self.outbox = self.router.outbox
        self.depth = m.fifo_depth
        self.injected = m.injected
        self.delivered = m.delivered
        self.live_routers = m.live_routers
        self.tile = self.router.index

    def push(self, color: int, w: int) -> bool:
        q = self.cfifo.get(color)
        if q is None:
            q = self.cfifo[color] = self.router.fifo(color, "C")
        if len(q) >= self.depth:
            return False
        m = self.m
        q.append((w, m.cycle + 1))
        self.injected[color] += 1
        m.in_flight += 1
        self.live_routers.add(self.tile)
        return True

    def pop(self, color: int) -> int | None:
        q = self.outbox.get(color)
        if not q:
            return None
        self.delivered[color] += 1
        self.m.in_flight -= 1
        return q.pop(0)

    def sleep(self, n: int, then: str) -> None:
        """Wait n cycles, then run state `then`; a timer wakes the
        processor when they are over."""
        self.until = self.m.cycle + n
        self.then = then
        self.state = "asleep"
        self.m.wake_at(self.until, self.router.cpu)

    def asleep(self) -> bool:
        if self.m.cycle < self.until:
            return False
        self.state = self.then
        getattr(self, self.then)()
        return True

    def tick(self) -> bool:
        return getattr(self, self.state)()

    @property
    def idle(self) -> bool:
        return False


class MemCpu(Cpu):
    __slots__ = ()
    image: WordMemory           # this tile's words

    def at(self, addr: int, dt: DType, shape=()) -> np.ndarray:
        """The `dt` elements of `shape` stored from word `addr` on, as a
        live view of the image: writing the view writes the image."""
        return word_view(self.image, addr, math.prod(shape) * dt.words, dt, shape)


# --- executive ---------------------------------------------------------------


class ExecCpu(MemCpu):
    """Runs the controller program; one instruction per cycle plus the
    multi-cycle broadcast and receive protocols.  Its last state,
    `stopped`, follows the halt instruction."""

    role = "exec"

    def __init__(self, m, xy, image):
        super().__init__(m, xy)
        self.image = image
        self.instrs = m.vm.instrs
        self.pc = 0
        self.state = "run"
        self.acks = 0
        self.bcast_seq = 0
        self.wake_queue: deque = deque()
        self.go_section = -1
        self.recv_addr = 0
        self.recv_dt = DType.F32
        self.recv_buf: list = []

    @property
    def idle(self) -> bool:
        return self.state == "stopped"

    def operand(self, ref, dt: DType):
        tag, v = ref
        if tag == "i":
            return decode_words(np.asarray(v, dtype=np.uint16), dt, ())[()]
        return self.at(v, dt)

    def wake(self) -> bool:
        if self.wake_queue:
            if self.push(WAKE, data(self.wake_queue[0])):
                self.wake_queue.popleft()
                return True
            return False
        self.state = "ack"
        return True

    def ack(self) -> bool:
        if self.acks >= self.bcast_seq:
            if self.push(WAKE, RESET):
                self.m.note_broadcast(self.go_section, self.bcast_seq)
                self.bcast_seq += 1
                self.state = "run"
                return True
            return False
        if self.pop(ACK) is not None:
            self.acks += 1
            return True
        return False

    def recv(self) -> bool:
        w = self.pop(RED_CTRL)
        if w is None:
            return False
        self.recv_buf.append(w)
        if len(self.recv_buf) == self.recv_dt.words:
            self.image.words(self.recv_addr, len(self.recv_buf))[...] = self.recv_buf
            self.state = "run"
        return True

    def stopped(self) -> bool:
        return False

    def run(self) -> bool:
        """Execute the instruction at pc."""
        ins = self.instrs[self.pc]
        op = ins.op
        if op == "halt":
            # consume the last section's acknowledgement before stopping
            if self.acks < self.bcast_seq:
                if self.pop(ACK) is not None:
                    self.acks += 1
                    return True
                return False
            self.state = "stopped"
            return True
        if op == "jump":
            self.pc = ins.target
            return True
        if op == "trip":
            self.m.loop_trips[ins.loop_id] = self.m.loop_trips.get(ins.loop_id, 0) + 1
            self.pc += 1
            return True
        if op == "bcast":
            sec = self.m.vm.sections[ins.section]
            splice_words = []
            for _pos, width, addr in sec.splices:
                splice_words.extend(self.image.words(addr, width).tolist())
            self.wake_queue = deque([ins.section, len(splice_words)] + splice_words)
            self.go_section = ins.section
            self.state = "wake"
            self.pc += 1
            return True
        if op == "recv":
            self.recv_addr = ins.dst
            self.recv_dt = DType(ins.dtype)
            self.recv_buf = []
            self.state = "recv"
            self.pc += 1
            return True
        dt = DType(ins.dtype)
        if op == "mov":
            self.at(ins.dst, dt)[...] = self.operand(ins.a, dt)
        elif op == "bin":
            val = alu(ins.binop, dt, self.operand(ins.a, dt), self.operand(ins.b, dt))
            self.at(ins.dst, dt)[...] = val
        elif op == "load_ga":
            src = ins.base + int(self.operand(ins.a, DType.I16)) * ins.width
            self.image.words(ins.dst, ins.width)[...] = self.image.words(src, ins.width)
        elif op == "cmp_br":
            a = self.operand(ins.a, dt)
            b = self.operand(ins.b, dt)
            if CMPS[ins.cmp](a, b):
                self.pc = ins.target
                return True
        else:
            raise AssertionError(ins.op)
        self.pc += 1
        return True


# --- merge -------------------------------------------------------------------


class MergeCpu(Cpu):
    """Recolors drained section chunks onto the broadcast tree and
    acknowledges each section once it has fully left the tile."""

    role = "merge"
    state = "relay"
    RECOLOR = {CTRL_DRAIN: CTRL_BCAST, ARGS_DRAIN: ARGS_BCAST}

    def __init__(self, m, xy):
        super().__init__(m, xy)
        self.chunks_done = {CTRL_DRAIN: 0, ARGS_DRAIN: 0}
        self.seq = 0

    @property
    def idle(self) -> bool:
        return self.chunks_done[CTRL_DRAIN] == 0 and self.chunks_done[ARGS_DRAIN] == 0

    def relay(self) -> bool:
        m = self.m
        prog = False
        if self.pop(WAKE) is not None:     # discard our copy of the wake stream
            prog = True
        for color in (CTRL_DRAIN, ARGS_DRAIN):
            q = self.outbox.get(color)
            if not q:
                continue
            w = q[0]
            side = "left" if self.chunks_done[color] % 2 == 0 else "right"
            if w < ADVANCE:
                if not self.push(self.RECOLOR[color], w):
                    continue               # field backpressure
                self.pop(color)
                m.trace_event("merge_word", seq=self.seq, color=color,
                              side=side, word=w)
                prog = True
            else:                          # chunk-end marker
                self.pop(color)
                self.chunks_done[color] += 1
                m.trace_event("merge_chunk_end", seq=self.seq, color=color,
                              side=side, index=self.chunks_done[color] - 1)
                prog = True
        n = m.vm.n_resp
        if (self.chunks_done[CTRL_DRAIN] == n and self.chunks_done[ARGS_DRAIN] == n
                and not self.router.fifo(CTRL_BCAST, "C")
                and not self.router.fifo(ARGS_BCAST, "C")):
            if self.push(ACK, data(self.seq)):
                self.chunks_done = {CTRL_DRAIN: 0, ARGS_DRAIN: 0}
                self.seq += 1
                prog = True
        return prog


# --- response ----------------------------------------------------------------


class RespCpu(Cpu):
    """Holds its share of every section; patches spliced words from the wake
    stream and streams the chunk after the go marker."""

    role = "resp"

    def __init__(self, m, xy, position, last_on_side, chunks, pad):
        super().__init__(m, xy)
        self.pos = position
        self.last = last_on_side
        self.chunks = {c.section: c for c in chunks}
        self.pad = pad
        self.state = "hdr"
        self.section = -1
        self.n = 0
        self.j = 0
        self.args_scratch: list = []
        self.ctrl_stream: deque = deque()
        self.args_stream: deque = deque()

    @property
    def idle(self) -> bool:
        return self.state == "hdr"

    def hdr(self) -> bool:
        w = self.pop(WAKE)
        if w is None:
            return False
        self.section = w
        self.state = "count"
        return True

    def count(self) -> bool:
        w = self.pop(WAKE)
        if w is None:
            return False
        self.n, self.j = w, 0
        self.args_scratch = list(self.chunks[self.section].args)
        self.state = "patch" if self.n else "go"
        return True

    def patch(self) -> bool:
        w = self.pop(WAKE)
        if w is None:
            return False
        local = self.chunks[self.section].patch[self.j]
        if local is not None:
            self.args_scratch[local] = w
            self.m.trace_event("splice_patch", position=self.pos,
                               section=self.section, index=self.j)
        self.j += 1
        if self.j == self.n:
            self.state = "go"
        return True

    def go(self) -> bool:
        w = self.pop(WAKE)
        if w is None:
            return False
        assert w == RESET, "go marker expected"
        ch = self.chunks[self.section]
        self.ctrl_stream = self._stream(ch.ctrl)
        self.args_stream = self._stream(self.args_scratch)
        if self.pad:
            self.sleep(self.pad, "drain")
        else:
            self.state = "drain"
            self.drain()
        return True

    def _stream(self, words) -> deque:
        out = deque(data(v) for v in words)
        out.append(RESET)
        if not self.last:
            out.append(ADVANCE)
        return out

    def drain(self) -> bool:
        prog = False
        for color, stream in ((CTRL_DRAIN, self.ctrl_stream),
                              (ARGS_DRAIN, self.args_stream)):
            if stream and self.push(color, stream[0]):
                stream.popleft()
                prog = True
        if not self.ctrl_stream and not self.args_stream:
            self.state = "hdr"
        return prog


# --- field tiles -------------------------------------------------------------


class FieldCpu(Cpu):
    """The front end every field tile shares: broadcast words stream into
    the task and argument queues even while an earlier task is running;
    the task table bound is what finally backpressures."""

    # the task state is in slots too; the leaf classes add a `__dict__`,
    # which stays unmade unless something sets an attribute of one
    # processor (a wrapped `tick`), and a `__weakref__`
    __slots__ = ("state", "rd", "task_q", "arg_q", "queued_arity", "defs", "table",
                 "push_color", "stream", "tasks")

    def __init__(self, m, xy):
        super().__init__(m, xy)
        self.state = "ctrl"
        self.rd = None
        self.task_q: list = []
        self.arg_q: list = []
        self.queued_arity = 0          # argument words the queued tasks take
        self.defs = m.vm.rpcs.defs
        self.table = m.vm.task_table_size
        self.tasks = 0      # tasks taken: every field tile takes every task

    @property
    def idle(self) -> bool:
        return self.state == "ctrl" and not self.task_q and not self.arg_q

    def ingest(self) -> bool:
        prog = False
        busy = 0 if self.state == "ctrl" else 1
        if len(self.task_q) + busy < self.table:
            w = self.pop(CTRL_BCAST)
            if w is not None:
                self.task_q.append(w)
                self.queued_arity += self.defs[w].arity
                prog = True
        if len(self.arg_q) < self.queued_arity:
            w = self.pop(ARGS_BCAST)
            if w is not None:
                self.arg_q.append(w)
                prog = True
        return prog

    def take_task(self) -> list | None:
        """Dequeue the next task into rd once its argument words have all
        arrived, and return them; None while they have not."""
        if not self.task_q:
            return None
        rd = self.defs[self.task_q[0]]
        n = rd.arity
        if len(self.arg_q) < n:
            return None
        del self.task_q[0]
        self.tasks += 1
        self.queued_arity -= n
        self.rd = rd
        words = self.arg_q[:n]
        del self.arg_q[:n]
        return words

    def tick(self) -> bool:
        ob = self.outbox
        # ingest takes words from these two delivery queues only
        if ob.get(CTRL_BCAST) or ob.get(ARGS_BCAST):
            fed = self.ingest()
            return getattr(self, self.state)() or fed
        return getattr(self, self.state)()

    def retire(self) -> None:
        self.state = "ctrl"

    def stream_out(self, color: int, words, marker=None) -> None:
        """Enter state `send` with the 16-bit `words`, then `marker`, to push
        on `color`."""
        self.push_color = color
        self.stream = list(words)
        if marker is not None:
            self.stream.append(marker)
        self.state = "send"

    def send(self) -> bool:
        if self.stream and self.push(self.push_color, self.stream[0]):
            del self.stream[0]
            if not self.stream:
                self.retire()
            return True
        return False


# --- worker ------------------------------------------------------------------


class WorkerCpu(FieldCpu, MemCpu):
    role = "worker"
    __slots__ = ("wx", "wy", "col_end", "phase", "send_color", "recv_color",
                 "image", "occ", "op_dt", "n", "dyn_stop", "dst_addr", "buf",
                 "map_dst", "map_srcs", "red_src", "idx_vals",
                 "g_src", "g_dst", "g_mul", "g_k",
                 "sh_dst", "sh_snd", "sh_rcv", "sh_receiving", "sh_need",
                 "sh_ri", "sh_si", "__dict__", "__weakref__")

    def __init__(self, m, xy, params, image):
        super().__init__(m, xy)
        self.wx, self.wy = params["wx"], params["wy"]
        self.col_end = params["col_end"]
        self.phase = params["phase"]
        self.image = image
        self.occ = 0

    def sleep(self, n: int, then: str) -> None:
        self.occ += n
        super().sleep(n, then)

    # --- operand decoding ----------------------------------------------------

    def dyn_len(self, start: int, extent: int) -> int:
        return check_stop(self.dyn_stop, start, extent, self.wx, self.wy) - start

    def operand(self, spec, w, dt, n):
        """Decode one operand's argument words into an immediate or a live
        view of its elements: 0-d for `as`, 1-D for `ar` (of length n),
        `aw1` and `ad1`, a strided 2-D window for `aw2` and `ad2`."""
        tok = spec.token
        if tok == "ai":
            return decode_words(np.asarray(w, dtype=np.uint16), dt, ())[()]
        if tok == "as":
            return self.at(w[0], dt)
        if tok == "ar":
            return self.at(w[0], dt, (n,))
        if tok in ("aw1", "ad1"):
            base, start, x = w
            ln = self.dyn_len(start, x) if tok == "ad1" else x
            return self.at(base + start * dt.words, dt, (ln,))
        base, dim1, s0, l0, s1, x = w
        l1 = self.dyn_len(s1, x) if tok == "ad2" else x
        return self.at(base + s0 * dim1 * dt.words, dt, (l0, dim1))[:, s1:s1 + l1]

    def fetch(self, op, n: int):
        """An immediate or a scalar as it is; a vector flat, once its
        length is the iteration count n."""
        if not np.ndim(op):
            return op
        if op.size != n:
            raise SimFault(f"operand length {op.size} does not match iteration "
                           f"count {n} at PE ({self.wx}, {self.wy})")
        return op.reshape(-1)

    # --- dispatch ------------------------------------------------------------

    def ctrl(self) -> bool:
        words = self.take_task()
        if words is None:
            return False
        self.occ = 0
        return self.dispatch(words)

    def retire(self) -> None:
        """End the task: record its occupancy and release its views of the
        image and its shift buffers."""
        self.m.record_occ(self.wx, self.wy, self.occ)
        self.map_dst = self.map_srcs = self.red_src = self.idx_vals = None
        self.g_src = self.g_dst = self.g_mul = None
        self.sh_dst = self.sh_snd = self.sh_rcv = None
        self.state = "ctrl"

    def dispatch(self, words: list) -> bool:
        """Decode the task's argument words through its RPC's frame and
        enter the first state of its kind."""
        rd = self.rd
        self.op_dt = DType(rd.dtype)
        f = decode_frame(rd, words)
        if rd.kind == "reduce_bcast":
            self.dst_addr = f["dst"][0]
            self.buf = []
            self.state = "red_recv"
            return True
        if rd.kind == "shift":
            return self.dispatch_shift(f)
        self.dyn_stop = int(self.at(f["dyn_stop"][0], DType.I16)) if "dyn_stop" in f else None
        mask = int(self.image.words(f["mask"][0], 1)[0])
        setup = self.m.cfg.rpc_setup_cycles
        if rd.kind == "reduce_send":
            if mask:
                self.red_src = self.operand(rd.srcs[0], f["src0"], self.op_dt, 0)
                self.sleep(setup, "begin_reduce")
            else:
                zero = np.zeros((), dtype=np_dtype(self.op_dt))
                self.queue_partial(zero)
            return True
        if mask:
            try:
                self.dispatch_data(f, setup)
                return True
            except SimFault as e:
                # a map or gather-family task exchanges nothing with other
                # tiles, so retiring it unwritten cannot stall the fabric
                self.m.faults.append((self.tasks, self.wx, self.wy, e))
        self.retire()
        return True

    def dispatch_data(self, f: dict, setup: int) -> None:
        """Decode a map or gather-family task's operands, check its
        indices and start it."""
        rd, dt = self.rd, self.op_dt
        n_static = f["len"][0]
        if rd.kind == "map":
            self.map_dst = self.operand(rd.dst, f["dst"], dt, n_static)
            self.n = self.map_dst.size
            self.map_srcs = [self.operand(s, f[f"src{k}"], dt, self.n)
                             for k, s in enumerate(rd.srcs)]
            self.sleep(setup, "begin_map")
            return
        # gather family: the indices address the source window of a
        # gather, the destination window of a scatter
        idx_dt = DType.I16
        if rd.kind == "scatter":
            idx = self.operand(rd.srcs[1], f["src1"], idx_dt, 0)
            self.n = idx.size
            self.g_src = self.operand(rd.srcs[0], f["src0"], dt, self.n)
            self.g_dst = window = self.operand(rd.dst, f["dst"], dt, n_static)
        else:
            self.g_dst = self.operand(rd.dst, f["dst"], dt, n_static)
            self.n = self.g_dst.size
            idx = self.operand(rd.srcs[1], f["src1"], idx_dt, self.n)
            self.g_src = window = self.operand(rd.srcs[0], f["src0"], dt, n_static)
        self.g_mul = (self.fetch(self.operand(rd.srcs[2], f["src2"], dt, self.n), self.n)
                      if rd.kind == "gather_mul" else None)
        self.idx_vals = self.fetch(idx, self.n).tolist()
        check_index(rd.kind, self.idx_vals, window.size, self.wx, self.wy)
        self.sleep(setup, "begin_gather")

    def begin_map(self) -> None:
        self.sleep(max(self.n, 1), "finish_map")

    def finish_map(self) -> None:
        res = alu(self.rd.op, self.op_dt, *(self.fetch(p, self.n) for p in self.map_srcs))
        dst = self.map_dst
        dst[...] = np.broadcast_to(res, (self.n,)).reshape(dst.shape)
        self.retire()

    def begin_reduce(self) -> None:
        self.sleep(max(self.red_src.size, 1), "finish_reduce")

    def finish_reduce(self) -> None:
        self.queue_partial(fold_sum(self.red_src, self.op_dt))

    def queue_partial(self, value) -> None:
        words = encode_words(np.asarray(value), self.op_dt).tolist()
        self.stream_out(RED_COL, words, RESET if self.col_end else ADVANCE)

    def red_recv(self) -> bool:
        w = self.pop(RED_BCAST)
        if w is None:
            return False
        self.buf.append(w)
        if len(self.buf) == self.op_dt.words:
            self.image.words(self.dst_addr, len(self.buf))[...] = self.buf
            self.retire()
        return True

    # --- gather family over the loopback channel -----------------------------

    def begin_gather(self) -> None:
        if self.n == 0:
            self.retire()
            return
        self.g_k = 0
        self.state = "index_out"

    def index_out(self) -> bool:
        """Send index g_k round the loopback channel."""
        if not self.push(LOOPBACK, data(self.idx_vals[self.g_k])):
            return False
        self.occ += 1
        self.state = "index_back"
        return True

    def index_back(self) -> bool:
        """Take index g_k back; once the last is back, move the elements."""
        if self.pop(LOOPBACK) is None:
            return False
        self.occ += 1
        self.g_k += 1
        if self.g_k < self.n:
            self.state = "index_out"
            return True
        dst = self.g_dst
        if self.rd.kind == "scatter":
            scatter(dst, self.idx_vals, self.g_src)
        else:
            dst[...] = gather(self.g_src, self.idx_vals, self.g_mul).reshape(dst.shape)
        self.retire()
        return True

    # --- shift ---------------------------------------------------------------

    def dispatch_shift(self, f: dict) -> bool:
        rd = self.rd
        (n,), (x0,), (x1,), (y0,), (y1,) = f["len"], f["x0"], f["x1"], f["y0"], f["y1"]
        dx, dy = _i16(f["dx"][0]), _i16(f["dy"][0])
        self.dyn_stop = None
        sending, receiving = shift_ends(self.wx, self.wy, dx, dy, x0, x1, y0, y1)
        if not (sending or receiving):
            self.retire()
            return True
        dt = self.op_dt
        self.send_color = SHIFT_COLOR[(dx, dy), self.phase]
        self.recv_color = SHIFT_COLOR[(dx, dy), 1 - self.phase]
        self.sh_receiving = receiving
        self.sh_need = n * dt.words if receiving else 0
        self.sh_rcv = array("H", [0]) * self.sh_need
        self.sh_ri = 0
        self.sh_snd = array("H")
        if sending:
            # a copy taken at dispatch: shift(A, A, ...) writes the words it sends
            src = encode_words(self.operand(rd.srcs[0], f["src0"], dt, n), dt)
            self.sh_snd.frombytes(src.astype(np.uint16).tobytes())
        self.sh_si = 0
        self.sh_dst = self.operand(rd.dst, f["dst"], dt, n)
        self.sleep(self.m.cfg.rpc_setup_cycles, "shift_xfer")
        return True

    def shift_xfer(self) -> bool:
        prog = False
        snd, si, ri = self.sh_snd, self.sh_si, self.sh_ri
        if si < len(snd) and self.push(self.send_color, snd[si]):
            si = self.sh_si = si + 1
            prog = True
        if ri < self.sh_need:
            w = self.pop(self.recv_color)
            if w is not None:
                self.sh_rcv[ri] = w
                ri = self.sh_ri = ri + 1
                prog = True
        if prog:
            self.occ += 1
        if si == len(snd) and ri == self.sh_need:
            if self.sh_receiving:
                dst = self.sh_dst
                dst[...] = decode_words(np.frombuffer(self.sh_rcv, dtype=np.uint16),
                                        self.op_dt, dst.shape)
            self.retire()
            return True
        return prog


# --- reduction-row tiles -----------------------------------------------------


class ReduceCpu(FieldCpu):
    """Consumes the broadcast streams like any field tile; for reduction
    sends it runs the staged accumulation of its row position."""

    role = "reduce"
    __slots__ = ("p", "acc", "buf", "dt", "__dict__", "__weakref__")

    def __init__(self, m, xy, params):
        super().__init__(m, xy)
        self.p = params
        self.acc = None
        self.buf: list = []

    def ctrl(self) -> bool:
        if self.take_task() is None:     # the argument words go unused
            return False
        rd = self.rd
        if rd.kind == "reduce_send":
            self.dt = DType(rd.dtype)
            self.acc = fold_sum((), self.dt)   # zero of the dtype
            self.buf = []
            self.state = "col"
        return True

    def col(self) -> bool:
        return self.collect(RED_COL, self.col_done)

    def seg(self) -> bool:
        return self.collect(RED_ROW, self.seg_done)

    def fin_e(self) -> bool:
        w = self.pop(RED_UP_E)
        if w is None:
            return False
        self.buf.append(w)
        if len(self.buf) == self.dt.words:
            self.add_value()
            self.state = "fin_s"
        return True

    def fin_s(self) -> bool:
        return self.collect(RED_UP_S, self.final_done)

    def add_value(self) -> None:
        v = decode_words(np.asarray(self.buf, dtype=np.uint16), self.dt, ())[()]
        self.acc = fold_sum((self.acc, v), self.dt)
        self.buf = []

    def collect(self, color, done) -> bool:
        w = self.pop(color)
        if w is None:
            return False
        if w == RESET:
            done()
            return True
        self.buf.append(w)
        if len(self.buf) == self.dt.words:
            self.add_value()
        return True

    def emit(self, color, marker=None) -> None:
        """Send the accumulator on `color`, then `marker`."""
        self.stream_out(color, [int(w) for w in encode_words(self.acc, self.dt)], marker)

    def col_done(self) -> None:
        p = self.p
        if p["seg"] in ("left", "right"):
            self.emit(RED_ROW, RESET if p["seg_end"] else ADVANCE)
        elif p["seg_feed"]:
            self.state = "seg"
        else:
            self.seg_done()

    def seg_done(self) -> None:
        corner = self.p["corner"]
        if corner == "ur":
            self.emit(RED_UP_E)
        elif corner == "ll":
            self.emit(RED_UP_S, ADVANCE)
        elif corner == "lr":
            self.emit(RED_UP_S, RESET)
        else:                              # final: fold in the other corners
            self.buf = []
            self.state = "fin_e"

    def final_done(self) -> None:
        self.emit(RED_CTRL if self.rd.target == "gs" else RED_BCAST)
