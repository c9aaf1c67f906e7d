"""Independent predictors used to cross-check the real implementations.

Each function here recomputes an expected quantity by a different route than
the module under test, working from the typed program rather than the graph
builder's own bookkeeping.
"""
from __future__ import annotations

from machlite.frontend.semantic import (
    TAssign,
    TBin,
    TDeviceFor,
    TExitIf,
    TGatherMul,
    TLit,
    TPut,
    TReduce,
    TRef,
    TShift,
    TTake,
)


def expr_node_count(t) -> int:
    """Graph nodes an expression expands to, counting its own op."""
    if isinstance(t, TLit):
        return 0
    if isinstance(t, TRef):
        return 1 if t.access.ga_index is not None else 0
    if isinstance(t, (TTake, TGatherMul)):
        return 1
    assert isinstance(t, TBin)
    return 1 + expr_node_count(t.lhs) + expr_node_count(t.rhs)


def expr_temp_count(t, is_root: bool = True) -> int:
    """Expression temporaries materialized below a statement."""
    if isinstance(t, (TLit, TRef)):
        own = 1 if isinstance(t, TRef) and t.access.ga_index is not None else 0
        return own
    if isinstance(t, (TTake, TGatherMul)):
        return 0 if is_root else 1
    assert isinstance(t, TBin)
    own = 0 if is_root else 1
    return own + expr_temp_count(t.lhs, False) + expr_temp_count(t.rhs, False)


def names_in_expr(t) -> set[str]:
    if isinstance(t, TLit):
        return set()
    if isinstance(t, TRef):
        return set() if t.is_loop_var else {t.access.var}
    if isinstance(t, TTake):
        return {t.src.var, t.idx.var}
    if isinstance(t, TGatherMul):
        return {t.src.var, t.idx.var, t.other.var}
    assert isinstance(t, TBin)
    return names_in_expr(t.lhs) | names_in_expr(t.rhs)


def names_in_stmt(s) -> set[str]:
    if isinstance(s, TAssign):
        out = {s.dst.var} | names_in_expr(s.expr)
        if s.dst.dyn:
            out.add(s.dst.dyn)
        for acc in _expr_accesses(s.expr):
            if acc.dyn:
                out.add(acc.dyn)
        return out
    if isinstance(s, TReduce):
        return {s.src.var, s.dst.var}
    if isinstance(s, TShift):
        return {s.dst.var, s.src.var}
    if isinstance(s, TPut):
        return {s.dst.var, s.idx.var, s.src.var}
    if isinstance(s, TExitIf):
        out = set()
        for o in (s.lhs, s.rhs):
            if isinstance(o, TRef) and not o.is_loop_var:
                out.add(o.access.var)
        return out
    raise TypeError(s)


def _expr_accesses(t):
    if isinstance(t, TRef):
        return [t.access] if t.access.pe is not None else []
    if isinstance(t, TBin):
        return _expr_accesses(t.lhs) + _expr_accesses(t.rhs)
    if isinstance(t, TTake):
        return [t.src, t.idx]
    if isinstance(t, TGatherMul):
        return [t.src, t.idx, t.other]
    return []


def stmt_node_count(s) -> int:
    if isinstance(s, TAssign):
        base = expr_node_count(s.expr)
        # leaf expressions still need one copy/fill node; a root binop or
        # gather writes the destination itself
        if isinstance(s.expr, (TLit, TRef)):
            base += 1
        return base
    if isinstance(s, (TReduce, TShift, TPut)):
        return 1
    if isinstance(s, TExitIf):
        n = 1
        for o in (s.lhs, s.rhs):
            if isinstance(o, TRef) and o.access.ga_index is not None:
                n += 1
        return n
    if isinstance(s, TDeviceFor):
        crossing = {s.ga.var}
        for b in s.body:
            crossing |= names_in_stmt(b)
        body = sum(stmt_node_count(b) for b in s.body)
        # export + import per crossing name, the loop node, one iterator load
        return 2 * len(crossing) + 1 + 1 + body
    raise TypeError(s)


def program_node_count(typed) -> int:
    return sum(stmt_node_count(s) for s in typed.stmts)


def overlapping_allocations(entries) -> list[tuple[int, int]]:
    """Brute-force pairwise check: same space, intersecting lifespans
    (inclusive) and intersecting address ranges."""
    bad = []
    es = list(entries)
    for i, a in enumerate(es):
        for b in es[i + 1:]:
            if a.space != b.space:
                continue
            if a.lifespan[0] > b.lifespan[1] or b.lifespan[0] > a.lifespan[1]:
                continue
            if a.offset < b.offset + b.size_words and b.offset < a.offset + a.size_words:
                bad.append((a.mem_loc, b.mem_loc))
    return bad


def live_peak(entries, space: str) -> int:
    """Max simultaneous live words, scanned one node id at a time."""
    es = [e for e in entries if e.space == space]
    if not es:
        return 0
    hi = max(e.lifespan[1] for e in es)
    peak = 0
    for t in range(hi + 1):
        peak = max(peak, sum(e.size_words for e in es
                             if e.lifespan[0] <= t <= e.lifespan[1]))
    return peak


def program_temp_count(typed) -> int:
    """Expression temps plus loop counter and iterator temps."""

    def stmt_temps(s) -> int:
        if isinstance(s, TAssign):
            return expr_temp_count(s.expr)
        if isinstance(s, TExitIf):
            n = 0
            for o in (s.lhs, s.rhs):
                if isinstance(o, TRef) and o.access.ga_index is not None:
                    n += 1
            return n
        if isinstance(s, TDeviceFor):
            return 2 + sum(stmt_temps(b) for b in s.body)
        return 0

    return sum(stmt_temps(s) for s in typed.stmts)


def expected_section_layout(g) -> list[list[int]]:
    """Boundary-enumeration oracle for the partitioner.

    Walks the flattened node order, marks boundary nodes, and collects the
    maximal worker runs in between.  A reduce feeding a worker scalar shows
    up twice in its section (send then receive); a reduce feeding a
    controller scalar ends its section.
    """
    from machlite import irg

    out: list[list[int]] = []
    run: list[int] = []

    def flush():
        nonlocal run
        if run:
            out.append(run)
            run = []

    def walk(nodes):
        nonlocal run
        for n in nodes:
            op = n.op_name
            if op in ("sg_export", "sg_import"):
                continue
            if op == "loop":
                flush()
                walk(n.subgraph.nodes)
                flush()
                continue
            if irg.node_placement(g, n) == "controller":
                flush()
                continue
            if op == "reduce_sum":
                to_gs = g.memlocs[n.result_index].placement == "controller"
                if to_gs:
                    run.append(n.id)
                    flush()
                else:
                    run.extend([n.id, n.id])
                continue
            if any(isinstance(a, irg.MemArg) and a.klass == "gs" for a in n.args):
                flush()
                out.append([n.id])
                continue
            run.append(n.id)

    walk(g.nodes)
    flush()
    return out
