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

Worker kernels decode their argument words directly: element addresses are
computed from base/start/length words, never from the source graph, so the
simulator exercises the broadcast encoding end to end.  A worker's
`dispatch` decides once per task which steps the task's RPC kind runs.
"""
from __future__ import annotations

import weakref
from collections import deque

import numpy as np

from ..diagnostics import SimFault
from ..frontend.syntax import DType
from ..memwords import CMPS, alu, decode_words, encode_words, fold_sum, np_dtype
from ..lowering.layout import (
    ACK, ARGS_BCAST, ARGS_DRAIN, CTRL_BCAST, CTRL_DRAIN, LOOPBACK, RED_BCAST,
    RED_COL, RED_CTRL, RED_ROW, RED_UP_E, RED_UP_S, SHIFT_A, SHIFT_B, WAKE)
from ..lowering.rpc import MASKED_KINDS
from .router import ADVANCE, RESET, data

# shift ring state per (dx, dy): E, S, W, N
SHIFT_STATE = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _i16(word: int) -> int:
    return word - 0x10000 if word >= 0x8000 else word


class Cpu:
    role = "?"
    # slots keep a worker's instance dict, which its RPC state fills, small
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
        return q.popleft()

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
    image: np.ndarray           # this tile's uint16 word memory

    def read_words(self, addr: int, n: int) -> np.ndarray:
        return self.image[addr:addr + n]

    def write_words(self, addr: int, words) -> None:
        w = np.asarray(words, dtype=np.uint16)
        self.image[addr:addr + len(w)] = w

    def read_value(self, addr: int, dt: DType):
        return decode_words(self.read_words(addr, dt.words), dt, ())[()]

    def write_value(self, addr: int, val, dt: DType) -> None:
        self.write_words(addr, encode_words(np.asarray(val), dt))

    @staticmethod
    def word_index(offs, dt: DType) -> np.ndarray:
        """The image indices of the words of the elements at `offs`."""
        idx = np.asarray(offs, dtype=np.int64)
        return (idx[:, None] + np.arange(dt.words)).reshape(-1)

    def read_vec(self, offs, dt: DType) -> np.ndarray:
        words = self.image[self.word_index(offs, dt)]
        return decode_words(words, dt, (len(offs),))

    def write_vec(self, offs, arr, dt: DType) -> None:
        self.image[self.word_index(offs, dt)] = encode_words(np.asarray(arr), dt)


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
        return self.read_value(v, dt)

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
            self.write_words(self.recv_addr, self.recv_buf)
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
                splice_words.extend(int(v) for v in self.read_words(addr, width))
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
            self.write_value(ins.dst, self.operand(ins.a, dt), dt)
        elif op == "bin":
            val = alu(ins.binop, dt, self.operand(ins.a, dt), self.operand(ins.b, dt))
            self.write_value(ins.dst, val, dt)
        elif op == "load_ga":
            tag, v = ins.a
            idx = int(v[0]) if tag == "i" else int(self.read_value(v, DType.I16))
            src = ins.base + idx * ins.width
            self.write_words(ins.dst, self.read_words(src, ins.width))
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

    def __init__(self, m, xy):
        super().__init__(m, xy)
        self.state = "ctrl"
        self.rd = None
        self.task_q: deque = deque()
        self.arg_q: deque = deque()
        self.queued_arity = 0          # argument words the queued tasks take
        self.defs = m.vm.rpcs.defs
        self.table = m.vm.task_table_size

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
        if len(self.arg_q) < rd.arity:
            return None
        self.task_q.popleft()
        self.queued_arity -= rd.arity
        self.rd = rd
        return [self.arg_q.popleft() for _ in range(rd.arity)]

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
        self.stream = deque(words)
        if marker is not None:
            self.stream.append(marker)
        self.state = "send"

    def send(self) -> bool:
        if self.stream and self.push(self.push_color, self.stream[0]):
            self.stream.popleft()
            if not self.stream:
                self.retire()
            return True
        return False


# --- worker ------------------------------------------------------------------


class WorkerCpu(FieldCpu, MemCpu):
    role = "worker"

    def __init__(self, m, xy, params, image):
        super().__init__(m, xy)
        self.wx, self.wy = params["wx"], params["wy"]
        self.col_end = params["col_end"]
        self.send_color = SHIFT_A if params["phase"] == 0 else SHIFT_B
        self.recv_color = SHIFT_B if params["phase"] == 0 else SHIFT_A
        self.ring_mirror = {SHIFT_A: 0, SHIFT_B: 0}
        self.image = image
        self.occ = 0

    def sleep(self, n: int, then: str) -> None:
        self.occ += n
        super().sleep(n, then)

    # --- operand decoding ----------------------------------------------------

    def fault(self, msg: str):
        raise SimFault(msg)

    def dyn_len(self, start: int, extent: int) -> int:
        v = self.dyn_stop
        if not start <= v <= extent:
            self.fault(f"dynamic stop {v} outside [{start}, {extent}] "
                       f"for axis of extent {extent} at PE ({self.wx}, {self.wy})")
        return v - start

    def operand(self, spec, w, dt, n_default):
        """Decode one operand into ('imm', v) | ('scalar', addr) | ('vec', offsets)."""
        ww = dt.words
        tok = spec.token
        if tok == "ai":
            return ("imm", decode_words(np.asarray(w, dtype=np.uint16), dt, ())[()])
        if tok == "as":
            return ("scalar", w[0])
        if tok == "ar":
            base = w[0]
            return ("vec", [base + j * ww for j in range(n_default)])
        if tok in ("aw1", "ad1"):
            base, start, x = w
            ln = self.dyn_len(start, x) if tok == "ad1" else x
            return ("vec", [base + (start + j) * ww for j in range(ln)])
        base, dim1, s0, l0, s1, x = w
        l1 = self.dyn_len(s1, x) if tok == "ad2" else x
        return ("vec", [base + ((s0 + i) * dim1 + (s1 + j)) * ww
                        for i in range(l0) for j in range(l1)])

    def fetch(self, parsed, dt, n):
        kind, v = parsed
        if kind == "imm":
            return v
        if kind == "scalar":
            return self.read_value(v, dt)
        if len(v) != n:
            self.fault(f"operand length {len(v)} does not match iteration "
                       f"count {n} at PE ({self.wx}, {self.wy})")
        return self.read_vec(v, dt)

    def _take(self, it, spec):
        return [next(it) for _ in range(spec.words)]

    # --- dispatch ------------------------------------------------------------

    def ctrl(self) -> bool:
        words = self.take_task()
        if words is None:
            return False
        self.occ = 0
        return self.dispatch(words)

    def retire(self) -> None:
        self.m.record_occ(self.wx, self.wy, self.occ)
        self.state = "ctrl"

    def dispatch(self, words: list) -> bool:
        """Decode the task's argument words and enter the first state of
        its RPC kind."""
        rd = self.rd
        self.op_dt = DType(rd.dtype)
        if rd.kind == "reduce_bcast":
            self.dst_addr = words[0]
            self.buf = []
            self.state = "red_recv"
            return True
        if rd.kind == "shift":
            return self.dispatch_shift(words)
        it = iter(words)
        srcs = [self._take(it, s) for s in rd.srcs]
        dstw = self._take(it, rd.dst) if rd.dst else None
        mask_addr = next(it)
        n_static = next(it) if rd.kind in MASKED_KINDS else None
        self.dyn_stop = _i16(self.image[next(it)]) if rd.has_dyn else None
        mask = int(self.image[mask_addr])
        setup = self.m.cfg.rpc_setup_cycles
        if rd.kind == "reduce_send":
            if mask:
                self.red_parsed = self.operand(rd.srcs[0], srcs[0], self.op_dt, 0)
                self.sleep(setup, "begin_reduce")
            else:
                zero = np.zeros((), dtype=np_dtype(self.op_dt))
                self.queue_partial(zero)
            return True
        if not mask:
            self.retire()
            return True
        dt = self.op_dt
        if rd.kind == "map":
            dparsed = self.operand(rd.dst, dstw, dt, n_static)
            self.n = len(dparsed[1]) if dparsed[0] == "vec" else 1
            self.map_srcs = [self.operand(s, wv, dt, self.n)
                             for s, wv in zip(rd.srcs, srcs)]
            self.map_dst = dparsed
            self.sleep(setup, "begin_map")
            return True
        # gather family
        idx_dt = DType.I16
        if rd.kind == "scatter":
            self.g_idx = self.operand(rd.srcs[1], srcs[1], idx_dt, 0)
            self.n = len(self.g_idx[1])
            self.g_src = self.operand(rd.srcs[0], srcs[0], dt, self.n)
            self.g_dst = self.operand(rd.dst, dstw, dt, n_static)
            self.g_move = "scatter_one"
        else:
            self.g_dst = self.operand(rd.dst, dstw, dt, n_static)
            self.n = len(self.g_dst[1]) if self.g_dst[0] == "vec" else 1
            self.g_idx = self.operand(rd.srcs[1], srcs[1], idx_dt, self.n)
            self.g_src = self.operand(rd.srcs[0], srcs[0], dt, n_static)
            self.g_move = "gather_one"
        self.g_mul_vals = (self.fetch(self.operand(rd.srcs[2], srcs[2], dt, self.n),
                                      dt, self.n)
                           if rd.kind == "gather_mul" else None)
        self.idx_vals = [int(v) for v in self.fetch(self.g_idx, idx_dt, self.n)]
        self.sleep(setup, "begin_gather")
        return True

    def begin_map(self) -> None:
        self.sleep(max(self.n, 1), "finish_map")

    def finish_map(self) -> None:
        dt = self.op_dt
        vals = [self.fetch(p, dt, self.n) for p in self.map_srcs]
        res = alu(self.rd.op, dt, *vals)
        res = np.broadcast_to(np.asarray(res), (self.n,))
        kind, v = self.map_dst
        if kind == "vec":
            self.write_vec(v, res, dt)
        else:
            self.write_value(v, res[0], dt)
        self.retire()

    def begin_reduce(self) -> None:
        kind, v = self.red_parsed
        self.red_n = 1 if kind == "scalar" else len(v)
        self.sleep(max(self.red_n, 1), "finish_reduce")

    def finish_reduce(self) -> None:
        vals = self.fetch(self.red_parsed, self.op_dt, self.red_n)
        self.queue_partial(fold_sum(vals, self.op_dt))

    def queue_partial(self, value) -> None:
        words = [int(w) for w in encode_words(np.asarray(value), self.op_dt)]
        self.stream_out(RED_COL, words, RESET if self.col_end else ADVANCE)

    def red_recv(self) -> bool:
        w = self.pop(RED_BCAST)
        if w is None:
            return False
        self.buf.append(w)
        if len(self.buf) == self.op_dt.words:
            self.write_words(self.dst_addr, self.buf)
            self.retire()
        return True

    # --- gather family over the loopback channel -----------------------------

    def begin_gather(self) -> None:
        if self.n == 0:
            self.retire()
            return
        self.g_k = 0
        self.g_out = []
        self.state = "index_out"

    def index_out(self) -> bool:
        """Send index g_k round the loopback channel."""
        if not self.push(LOOPBACK, data(self.idx_vals[self.g_k])):
            return False
        self.occ += 1
        self.state = "index_back"
        return True

    def index_back(self) -> bool:
        """Take index g_k back and move element g_k by it with g_move."""
        w = self.pop(LOOPBACK)
        if w is None:
            return False
        self.occ += 1
        getattr(self, self.g_move)(_i16(w), self.g_k)
        self.g_k += 1
        if self.g_k == self.n:
            self.retire()
        else:
            self.state = "index_out"
        return True

    def gather_one(self, j: int, k: int) -> None:
        dt = self.op_dt
        s_offs = self.g_src[1]
        if not 0 <= j < len(s_offs):
            self.fault(f"gather index {j} outside window of {len(s_offs)} "
                       f"elements at PE ({self.wx}, {self.wy}), element {k}")
        v = self.read_vec([s_offs[j]], dt)[0]
        if self.g_mul_vals is not None:
            with np.errstate(over="ignore"):
                v = np.asarray(v * self.g_mul_vals[k], dtype=v.dtype)[()]
        self.g_out.append(v)
        if k + 1 == self.n:
            self.write_vec(self.g_dst[1][:self.n], self.g_out, dt)

    def scatter_one(self, j: int, k: int) -> None:
        dt = self.op_dt
        d_offs = self.g_dst[1]
        if not 0 <= j < len(d_offs):
            self.fault(f"scatter index {j} outside window of {len(d_offs)} "
                       f"elements at PE ({self.wx}, {self.wy}), element {k}")
        src_v = self.read_vec([self.g_src[1][k]], dt)[0]
        self.write_vec([d_offs[j]], [src_v], dt)

    # --- shift ---------------------------------------------------------------

    def dispatch_shift(self, words: list) -> bool:
        rd = self.rd
        it = iter(words)
        sw = self._take(it, rd.srcs[0])
        dw = self._take(it, rd.dst)
        n = next(it)
        dx, dy = _i16(next(it)), _i16(next(it))
        x0, x1, y0, y1 = next(it), next(it), next(it), next(it)
        self.dyn_stop = None
        wx, wy = self.wx, self.wy
        inside = x0 <= wx < x1 and y0 <= wy < y1
        sending = inside and x0 <= wx + dx < x1 and y0 <= wy + dy < y1
        receiving = inside and x0 <= wx - dx < x1 and y0 <= wy - dy < y1
        if not (sending or receiving):
            self.retire()
            return True
        dt = self.op_dt
        self.sh_target = SHIFT_STATE[(dx, dy)]
        self.sh_sending = sending
        self.sh_receiving = receiving
        self.sh_need = n * dt.words if receiving else 0
        self.sh_rcv: list = []
        if sending:
            src = self.operand(rd.srcs[0], sw, dt, n)
            offs = src[1] if src[0] == "vec" else [sw[0]]
            self.sh_snd = [int(v) for v in self.image[self.word_index(offs, dt)]]
        else:
            self.sh_snd = []
        self.sh_si = 0
        dstp = self.operand(rd.dst, dw, dt, n)
        self.sh_dst = dstp[1] if dstp[0] == "vec" else [dw[0]]
        self.sleep(self.m.cfg.rpc_setup_cycles, "shift_begin")
        return True

    def shift_begin(self) -> None:
        self.sh_adv = {}
        if self.sh_sending:
            d = (self.sh_target - self.ring_mirror[self.send_color]) % 4
            self.ring_mirror[self.send_color] = self.sh_target
            if d:
                self.sh_adv[self.send_color] = d
        if self.sh_receiving:
            d = (self.sh_target - self.ring_mirror[self.recv_color]) % 4
            self.ring_mirror[self.recv_color] = self.sh_target
            if d:
                self.sh_adv[self.recv_color] = d
        self.state = "shift_adv" if self.sh_adv else "shift_xfer"

    def shift_adv(self) -> bool:
        prog = False
        for color in list(self.sh_adv):
            if self.push(color, ADVANCE):
                self.sh_adv[color] -= 1
                if not self.sh_adv[color]:
                    del self.sh_adv[color]
                prog = True
        if not self.sh_adv:
            self.state = "shift_xfer"
        if prog:
            self.occ += 1
        return prog

    def shift_xfer(self) -> bool:
        prog = False
        snd, si, rcv = self.sh_snd, self.sh_si, self.sh_rcv
        if si < len(snd) and self.push(self.send_color, snd[si]):
            si = self.sh_si = si + 1
            prog = True
        if len(rcv) < self.sh_need:
            w = self.pop(self.recv_color)
            if w is not None:
                rcv.append(w)
                prog = True
        if prog:
            self.occ += 1
        if si == len(snd) and len(rcv) == self.sh_need:
            if self.sh_receiving:
                self.image[self.word_index(self.sh_dst, self.op_dt)] = \
                    np.asarray(rcv, dtype=np.uint16)
            self.retire()
            return True
        return prog


# --- reduction-row tiles -----------------------------------------------------


class ReduceCpu(FieldCpu):
    """Consumes the broadcast streams like any field tile; for reduction
    sends it runs the staged accumulation of its row position."""

    role = "reduce"

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
