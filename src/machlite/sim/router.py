"""Cycle-stepped tile router.

Each tile carries one router with bounded per-(color, input-port) FIFOs and a
bounded per-color delivery queue toward its own processor.  Color channels are
routed by a small ring of states; a state maps input ports to output port
sets.  Control wavelets steer the rings in-band:

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
"""
from __future__ import annotations

from collections import deque

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

    def __init__(self, x: int, y: int, rings: dict):
        self.x, self.y = x, y
        self.index = 0          # position in the machine's tile order
        self.cpu = None         # index of this tile's processor, if any
        # color -> ring of states ((in_port, (out, ...)), ...), as laid out
        self.rings = rings
        self.ring_idx = {c: 0 for c in self.rings}
        self.fifos: dict[tuple, deque] = {}
        # (color, port, fifo) of every input channel, in service order
        self.chans: list[tuple] = []
        # (color, input port) -> (port mask, targets) of the current ring
        # state, or (None, ()) when it does not route the port; filled by
        # the machine on first use (see Machine.resolve), dropped for a
        # color when its ring steps
        self.routes: dict[tuple, tuple] = {}
        self.outbox: dict[int, deque] = {}

    def fifo(self, color: int, port: str) -> deque:
        q = self.fifos.get((color, port))
        if q is None:
            q = self.fifos[(color, port)] = deque()
            self.chans.append((color, port, q))
            self.chans.sort(key=lambda ch: (ch[0], PORTS.index(ch[1])))
        return q

    def delivery(self, color: int) -> deque:
        q = self.outbox.get(color)
        if q is None:
            q = self.outbox[color] = deque()
        return q

    def step_ring(self, color: int) -> None:
        ring = self.rings.get(color)
        if ring:
            self.ring_idx[color] = (self.ring_idx[color] + 1) % len(ring)
            routes = self.routes
            for p in PORTS:
                routes.pop((color, p), None)

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
