"""Cycle-stepped tile router.

Each tile carries one router with bounded per-(color, input-port) FIFOs and a
bounded per-color delivery queue toward its own processor.  Color channels are
routed by a small ring of states; a state maps one input port to an output
port set.  Most rings, the shift colors' among them (see
`layout.SHIFT_COLOR`), have one state and never step.  Only the drains and
the reduction chains have more, and their control wavelets steer them
in-band:

  data     routed by the current ring state
  advance  absorbed by the router it was pushed into; steps that ring
  reset    routed exactly like data, and steps the ring of every router it
           traverses through a fabric port; delivered to a processor it acts
           as an end-of-stream marker

A wavelet is a plain int: a data wavelet is its 16-bit word, and `ADVANCE`
and `RESET` are the two values above 0xFFFF, so `w < ADVANCE` tells data
from control and no object is made per word.  `describe` names one for
reports.

A router moves at most one wavelet per (color, input port) per cycle.  A move
requires every destination queue to have room; multicast is all-or-nothing.
Input channels are served, and output ports arbitrated, in color order and
then C, L, R, U, D port order.

FIFOs and delivery queues are plain lists, taken from the head with
`del q[0]` or `q.pop(0)`.  Every move and every processor push checks the
destination against `fifo_depth`, so no list holds more than that many
entries, and a short list is far cheaper than a `deque`, whose empty form
already holds a 64-slot block: a fabric has several queues per tile.
"""
from __future__ import annotations

PORTS = ("C", "L", "R", "U", "D")
PORT_BIT = {p: 1 << i for i, p in enumerate(PORTS)}
OPPOSITE = {"L": "R", "R": "L", "U": "D", "D": "U"}
DELTA = {"L": (-1, 0), "R": (1, 0), "U": (0, -1), "D": (0, 1)}

ADVANCE = 0x10000
RESET = 0x10001


def data(word: int) -> int:
    """The data wavelet carrying the low 16 bits of `word`."""
    return int(word) & 0xFFFF


def describe(w: int) -> str:
    """`kind/word` of wavelet `w`: `data/7`, `advance/0` or `reset/0`."""
    if w == ADVANCE:
        return "advance/0"
    if w == RESET:
        return "reset/0"
    return f"data/{w}"


class Router:
    """Per-tile switch state; movement is driven by the machine."""

    __slots__ = ("x", "y", "index", "cpu", "rings", "ring_idx", "fifos", "chans",
                 "routes", "outbox", "__weakref__")

    def __init__(self, x: int, y: int, rings: dict):
        self.x, self.y = x, y
        self.index = 0          # position in the machine's tile order
        self.cpu = None         # index of this tile's processor, if any
        # color -> ring of states ((in_port, (out, ...)), ...), as laid out
        self.rings = rings
        # color -> state of each ring that has stepped; the rest are in state 0
        self.ring_idx: dict[int, int] = {}
        self.fifos: dict[tuple, list] = {}
        # (color, port, fifo) of every input channel, in service order
        self.chans: list[tuple] = []
        # color -> (input port, port mask, targets) of its current ring
        # state; filled by the machine on first use (see Machine.resolve),
        # dropped when the ring steps
        self.routes: dict[int, tuple] = {}
        self.outbox: dict[int, list] = {}

    def fifo(self, color: int, port: str) -> list:
        q = self.fifos.get((color, port))
        if q is None:
            q = self.fifos[(color, port)] = []
            self.chans.append((color, port, q))
            self.chans.sort(key=lambda ch: (ch[0], PORTS.index(ch[1])))
        return q

    def delivery(self, color: int) -> list:
        q = self.outbox.get(color)
        if q is None:
            q = self.outbox[color] = []
        return q

    def step_ring(self, color: int) -> None:
        ring = self.rings.get(color)
        if ring:
            self.ring_idx[color] = (self.ring_idx.get(color, 0) + 1) % len(ring)
            self.routes.pop(color, None)

    def busy_channels(self):
        """Nonempty input channels in deterministic service order."""
        out = []
        for (color, port), q in self.fifos.items():
            if q:
                out.append((color, PORTS.index(port), port))
        out.sort()
        return [(c, p) for c, _i, p in out]

    def occupancy(self) -> int:
        n = sum(len(q) for q in self.fifos.values())
        return n + sum(len(q) for q in self.outbox.values())
