"""Static memory planning: liveness analysis plus best-fit block reuse.

Every memloc gets a word offset and a lifespan (first and last node id it is
live at, inclusive).  Retained variables stay live through the final node;
initialized storage is live from node 0 because its image is loaded before
execution starts.  References inside a loop body widen to the loop's full
node range, except temporaries used entirely within one iteration, whose
exact interval is safe to reuse.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from machlite.frontend.syntax import VarKind
from machlite.irg import IRGraph, MemArg, ordered_walk, subgraph_span

WORKER_WORDS = 24_576          # 48 KB of 16-bit words per PE
BANK_WORDS = 3_072             # 8 banks
N_BANKS = 8
CONTROLLER_BASE_WORDS = 0x2FF0  # byte address 0x5fe0; code sits below


class CapacityError(Exception):
    def __init__(self, space: str, size: int, budget: int):
        self.space = space
        self.size = size
        self.budget = budget
        super().__init__(
            f"{space} memory exhausted: no free block of {size} words "
            f"within the {budget}-word budget")


@dataclass(frozen=True)
class PlanEntry:
    mem_loc: int
    offset: int
    size_words: int
    lifespan: tuple[int, int]
    space: str
    alignment: int


class FreeList:
    """Sorted, coalescing free list over [0, budget)."""

    def __init__(self, budget: int):
        self.budget = budget
        self.blocks: list[tuple[int, int]] = [(0, budget)]  # (offset, size)

    def allocate(self, size: int, align: int) -> int:
        best = None
        for i, (off, sz) in enumerate(self.blocks):
            start = -(-off // align) * align
            if start + size <= off + sz:
                if best is None or sz < best[2] or (sz == best[2] and off < best[3]):
                    best = (i, start, sz, off)
        if best is None:
            raise _NoFit(size)
        i, start, sz, off = best
        del self.blocks[i]
        if start > off:
            self._insert(off, start - off)
        tail = off + sz - (start + size)
        if tail:
            self._insert(start + size, tail)
        return start

    def free(self, off: int, size: int) -> None:
        self._insert(off, size)

    def _insert(self, off: int, size: int) -> None:
        i = bisect.bisect_left(self.blocks, (off, 0))
        if i > 0 and self.blocks[i - 1][0] + self.blocks[i - 1][1] == off:
            i -= 1
            poff, psz = self.blocks.pop(i)
            off, size = poff, psz + size
        if i < len(self.blocks) and off + size == self.blocks[i][0]:
            size += self.blocks.pop(i)[1]
        self.blocks.insert(i, (off, size))


class _NoFit(Exception):
    def __init__(self, size: int):
        self.size = size


def lifespans(g: IRGraph) -> dict[int, tuple[int, int]]:
    """Liveness interval per memloc id, inclusive on both ends."""
    refs: dict[int, list[int]] = {}

    def note(mlid: int, nid: int) -> None:
        refs.setdefault(mlid, []).append(nid)

    loops: list[tuple[int, int]] = []
    loop_arg_temps: set[int] = set()
    for n in ordered_walk(g):
        if n.op_name == "loop":
            loops.append(subgraph_span(n))
            for a in n.args:
                if isinstance(a, MemArg) and g.memlocs[a.mlid].kind == "temporary":
                    loop_arg_temps.add(a.mlid)
        for a in n.args:
            if isinstance(a, MemArg):
                note(a.mlid, n.id)
        if n.result_index is not None:
            note(n.result_index, n.id)

    last = g.max_id()
    out: dict[int, tuple[int, int]] = {}
    for mlid, ml in g.memlocs.items():
        r = refs.get(mlid)
        if r is None:
            if mlid in g.inits or ml.kind == "output":
                out[mlid] = (0, last if ml.kind == "output" else 0)
            continue
        start, end = min(r), max(r)
        for ls, le in loops:
            inside = [x for x in r if ls <= x <= le]
            if not inside:
                continue
            if ml.kind == "temporary" and mlid not in loop_arg_temps \
                    and all(ls < x <= le for x in r):
                continue  # written and consumed within one iteration
            start = min(start, ls)
            end = max(end, le)
        if mlid in g.inits:
            start = 0
        if ml.kind == "output":
            end = last
        out[mlid] = (start, end)
    return out


def observables(g: IRGraph) -> list[int]:
    """The memlocs a run reports, in id order: every variable (not an
    expression temporary) that has a lifespan."""
    spans = lifespans(g)
    return [mlid for mlid, ml in sorted(g.memlocs.items())
            if ml.kind != "temporary" and mlid in spans]


def alignment_of(ml) -> int:
    if ml.var_kind is VarKind.LA:
        return BANK_WORDS
    if ml.dtype.words == 2:
        return 2
    return 1


@dataclass
class MemPlan:
    entries: dict[int, PlanEntry] = field(default_factory=dict)
    footprint: dict[str, int] = field(default_factory=lambda: {"worker": 0, "controller": 0})
    base_words: dict[str, int] = field(
        default_factory=lambda: {"worker": 0, "controller": CONTROLLER_BASE_WORDS})
    reserved: dict[str, PlanEntry] = field(default_factory=dict)
    _free: dict[str, FreeList] = field(default_factory=dict)
    _last_node: int = 0

    def address_words(self, mlid: int) -> int:
        e = self.entries[mlid]
        return self.base_words[e.space] + e.offset

    def reserve(self, space: str, label: str, size: int, align: int = 1) -> PlanEntry:
        """Statically allocate post-plan storage (participation masks)."""
        try:
            off = self._free[space].allocate(size, align)
        except _NoFit:
            raise CapacityError(space, size, self._free[space].budget) from None
        e = PlanEntry(-1 - len(self.reserved), off, size, (0, self._last_node), space, align)
        self.reserved[label] = e
        self.footprint[space] = max(self.footprint[space], off + size)
        return e

    def reserved_address_words(self, label: str) -> int:
        e = self.reserved[label]
        return self.base_words[e.space] + e.offset


def plan(g: IRGraph, *, worker_budget: int = WORKER_WORDS,
         controller_budget: int = WORKER_WORDS - CONTROLLER_BASE_WORDS) -> MemPlan:
    spans = lifespans(g)
    mp = MemPlan()
    mp._free = {"worker": FreeList(worker_budget),
                "controller": FreeList(controller_budget)}
    mp._last_node = g.max_id()

    starts: dict[int, list[int]] = {}
    ends: dict[int, list[int]] = {}
    for mlid, (s, e) in spans.items():
        starts.setdefault(s, []).append(mlid)
        ends.setdefault(e, []).append(mlid)

    for nid in range(mp._last_node + 2):
        for mlid in sorted(starts.get(nid, ())):
            ml = g.memlocs[mlid]
            space = ml.placement if ml.placement in ("worker", "controller") else "worker"
            align = alignment_of(ml)
            try:
                off = mp._free[space].allocate(ml.size_words, align)
            except _NoFit:
                raise CapacityError(space, ml.size_words,
                                    mp._free[space].budget) from None
            mp.entries[mlid] = PlanEntry(mlid, off, ml.size_words, spans[mlid],
                                         space, align)
            mp.footprint[space] = max(mp.footprint[space], off + ml.size_words)
        for mlid in sorted(ends.get(nid, ())):
            e = mp.entries[mlid]
            mp._free[e.space].free(e.offset, e.size_words)

    # later static reservations must dodge every address the plan ever used,
    # so rebuild each free list as the complement of the allocated ranges
    for space, fl in mp._free.items():
        used = sorted((e.offset, e.offset + e.size_words)
                      for e in mp.entries.values() if e.space == space)
        blocks = []
        cursor = 0
        for lo, hi in used:
            if lo > cursor:
                blocks.append((cursor, lo - cursor))
            cursor = max(cursor, hi)
        if cursor < fl.budget:
            blocks.append((cursor, fl.budget - cursor))
        fl.blocks = blocks
    return mp
