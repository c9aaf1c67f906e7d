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

A router moves at most one wavelet per (color, input port) per cycle.  A move
requires every destination queue to have room; multicast is all-or-nothing.
Output ports are arbitrated in C, L, R, U, D priority order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

PORTS = ("C", "L", "R", "U", "D")
OPPOSITE = {"L": "R", "R": "L", "U": "D", "D": "U"}
DELTA = {"L": (-1, 0), "R": (1, 0), "U": (0, -1), "D": (0, 1)}

DATA = "data"
ADVANCE = "advance"
RESET = "reset"


@dataclass(slots=True)
class Wavelet:
    kind: str
    word: int = 0


def data(word: int) -> Wavelet:
    return Wavelet(DATA, int(word) & 0xFFFF)


def advance() -> Wavelet:
    return Wavelet(ADVANCE)


def reset() -> Wavelet:
    return Wavelet(RESET)


class Router:
    """Per-tile switch state; movement is driven by the machine."""

    def __init__(self, x: int, y: int, rings: dict, depth: int):
        self.x, self.y = x, y
        self.depth = depth
        # color -> list of state dicts {in_port: (out, ...)}
        self.rings = {c: [dict(st) for st in rr] for c, rr in rings.items()}
        self.ring_idx = {c: 0 for c in self.rings}
        self.fifos: dict[tuple, deque] = {}
        self.outbox: dict[int, deque] = {}

    def fifo(self, color: int, port: str) -> deque:
        q = self.fifos.get((color, port))
        if q is None:
            q = self.fifos[(color, port)] = deque()
        return q

    def delivery(self, color: int) -> deque:
        q = self.outbox.get(color)
        if q is None:
            q = self.outbox[color] = deque()
        return q

    def state(self, color: int) -> dict:
        ring = self.rings.get(color)
        if not ring:
            return {}
        return ring[self.ring_idx[color]]

    def step_ring(self, color: int) -> None:
        ring = self.rings.get(color)
        if ring:
            self.ring_idx[color] = (self.ring_idx[color] + 1) % len(ring)

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
