"""Intermediate representation graph: nodes in execution order, explicit edges.

Node ids increase monotonically across the whole program, including loop
subgraphs, so id order is execution order.  Control flow is graph-in-graph: a
loop node owns a child IRGraph, and every non-temporary variable referenced
inside the loop appears as an export/import transfer pair across the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from machlite.diagnostics import DiagnosticSink
from machlite.frontend.intermediate import ILProgram
from machlite.frontend.semantic import (
    Access,
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
    expr_accesses,
    stmt_accesses,
    vec_len,
)
from machlite.frontend.syntax import DType, VarKind

CONTROLLER_OPS = {"ga_load", "exit_if", "loop", "sg_export", "sg_import"}
WORKER_FIELD_OPS = {"reduce_sum", "shift", "gather", "scatter", "gather_mul"}
BIN_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


@dataclass(frozen=True)
class MemLoc:
    id: int
    name: str
    kind: str                 # "persistent" | "temporary" | "output"
    placement: str            # "controller" | "worker"
    dtype: DType
    size_words: int           # per-PE words for worker placement
    var_kind: VarKind | None = None
    shape: tuple[int, ...] = ()
    mem_shape: tuple[int, ...] = ()


def full_shape(g: IRGraph, ml: MemLoc) -> tuple[int, ...]:
    """Shape of the memloc's logical array: its declared shape on the
    controller, one `mem_shape` block per worker otherwise."""
    if ml.placement == "controller":
        return ml.shape
    return g.grid + ml.mem_shape


@dataclass(frozen=True)
class MemArg:
    mlid: int
    access: Access | None     # None for expression temporaries
    klass: str                # "vector" | "pescalar" | "gs"


@dataclass(frozen=True)
class ImmArg:
    value: float
    dtype: DType


@dataclass
class IRNode:
    id: int
    op_name: str
    args: tuple
    result_index: int | None      # destination MemLoc id
    dest_slice: Access | None
    attrs: dict = field(default_factory=dict)

    @property
    def subgraph(self) -> "IRGraph | None":
        return self.attrs.get("subgraph")


@dataclass(frozen=True)
class IREdge:
    src_node: int
    dst_node: int
    arg_pos: int
    src_slice: Access | None


@dataclass
class IRGraph:
    nodes: list[IRNode] = field(default_factory=list)
    edges: list[IREdge] = field(default_factory=list)
    memlocs: dict[int, MemLoc] = field(default_factory=dict)
    inits: dict[int, np.ndarray] = field(default_factory=dict)
    transfers: list[tuple[int, int, int]] = field(default_factory=list)  # export id, import id, memloc
    grid: tuple[int, int] = (0, 0)
    by_name: dict[str, int] = field(default_factory=dict)
    outputs: tuple[int, ...] = ()

    def max_id(self) -> int:
        last = -1
        for n in ordered_walk(self):
            last = max(last, n.id)
        return last


def ordered_walk(g: IRGraph):
    """Yield nodes in ascending id order, descending into loop subgraphs."""
    for n in g.nodes:
        yield n
        sub = n.subgraph
        if sub is not None:
            yield from ordered_walk(sub)


def subgraph_span(loop_node: IRNode) -> tuple[int, int]:
    """Inclusive id range covered by a loop node and its body."""
    last = loop_node.id
    for n in ordered_walk(loop_node.subgraph):
        last = max(last, n.id)
    return loop_node.id, last


def klass_of_memloc(ml: MemLoc) -> str:
    if ml.placement == "controller":
        return "gs"
    if ml.var_kind is VarKind.LA or ml.mem_shape:
        return "vector"
    return "pescalar"


class _Builder:
    def __init__(self, il: ILProgram):
        self.il = il
        self.next_node = 0
        self.next_mlid = 0
        self.next_temp = 0
        self.root = IRGraph(grid=(il.grid.nx, il.grid.ny))
        self.last_writer: dict[int, IRNode] = {}
        self.loop_var_ml: dict[str, int] = {}

    def new_memloc(self, name: str, kind: str, placement: str, dtype: DType,
                   size_words: int, var_kind: VarKind | None = None,
                   shape: tuple[int, ...] = (), mem_shape: tuple[int, ...] = ()) -> MemLoc:
        ml = MemLoc(self.next_mlid, name, kind, placement, dtype, size_words,
                    var_kind, shape, mem_shape)
        self.root.memlocs[ml.id] = ml
        self.next_mlid += 1
        return ml

    def temp(self, placement: str, dtype: DType, words: int, mem_shape=()) -> MemLoc:
        name = f"%t{self.next_temp}"
        self.next_temp += 1
        return self.new_memloc(name, "temporary", placement, dtype, words,
                               None, (), mem_shape)

    def declare_vars(self) -> None:
        for name in self.il.order:
            v = self.il.variables[name]
            placement = "controller" if v.kind in (VarKind.GS, VarKind.GA) else "worker"
            if v.kind is VarKind.LA:
                per_pe = int(np.prod(v.mem_shape)) * v.dtype.words
            elif v.kind is VarKind.GA:
                per_pe = v.shape[0] * v.dtype.words
            else:
                per_pe = v.dtype.words
            kind = "output" if v.output else "persistent"
            ml = self.new_memloc(name, kind, placement, v.dtype, per_pe,
                                 v.kind, v.shape, v.mem_shape)
            self.root.by_name[name] = ml.id
            if v.init is not None:
                self.root.inits[ml.id] = v.init

    def emit(self, graph: IRGraph, op: str, args: list, dest: MemLoc | None,
             dest_slice: Access | None, attrs: dict | None = None,
             region=None) -> IRNode:
        attrs = dict(attrs or {})
        if dest_slice is not None and dest_slice.pe is not None:
            region = dest_slice.pe
        if region is not None and op not in CONTROLLER_OPS:
            attrs["region"] = region
        # a shared dynamic stop becomes a trailing per-worker length operand
        dyn = attrs.pop("dyn_var", None)
        if dest_slice is not None and dest_slice.dyn:
            dyn = dest_slice.dyn
        for a in args:
            if isinstance(a, MemArg) and a.access is not None and a.access.dyn:
                dyn = a.access.dyn
        if dyn is not None and op in ("add", "sub", "mul", "div", "copy", "fill"):
            acc = Access(dyn, VarKind.LS, DType.I16, pe=region)
            attrs["dyn_len_arg"] = len(args)
            args = list(args) + [MemArg(self.root.by_name[dyn], acc, "pescalar")]
        node = IRNode(self.next_node, op, tuple(args),
                      dest.id if dest is not None else None, dest_slice, attrs)
        self.next_node += 1
        graph.nodes.append(node)
        for pos, a in enumerate(node.args):
            if isinstance(a, MemArg):
                w = self.last_writer.get(a.mlid)
                if w is not None:
                    self.root.edges.append(IREdge(w.id, node.id, pos, a.access))
        if dest is not None:
            self.last_writer[dest.id] = node
        return node

    # -- expressions --------------------------------------------------------

    def arg_of(self, t, graph: IRGraph, region):
        """Lower an expression operand to an arg, materializing temps."""
        if isinstance(t, TLit):
            return ImmArg(t.value, t.dtype)
        if isinstance(t, TRef):
            if t.is_loop_var:
                return MemArg(self.loop_var_ml[t.access.var], None, "gs")
            mlid = self.root.by_name[t.access.var]
            if t.access.ga_index is not None:
                tmp = self.temp("controller", t.dtype, t.dtype.words)
                self.emit(graph, "ga_load", [MemArg(mlid, t.access, "gs")], tmp, None,
                          {"index": t.access.ga_index})
                return MemArg(tmp.id, None, "gs")
            return MemArg(mlid, t.access, t.klass)
        if isinstance(t, (TTake, TGatherMul)):
            n = self.emit_gather(t, graph, None, region)
            return MemArg(n.result_index, None, "vector")
        assert isinstance(t, TBin)
        node = self.emit_binop(t, graph, None, region)
        ml = self.root.memlocs[node.result_index]
        return MemArg(ml.id, None, klass_of_memloc(ml))

    def emit_binop(self, t: TBin, graph: IRGraph, dest, region) -> IRNode:
        a = self.arg_of(t.lhs, graph, region)
        b = self.arg_of(t.rhs, graph, region)
        attrs = {}
        if dest is None:
            dest_ml, dest_slice = self.temp_for(t, region), None
            dyn = expr_dyn(t)
            if t.klass == "vector" and dyn:
                attrs = {"dyn_var": dyn}
        else:
            dest_ml, dest_slice = dest
        return self.emit(graph, BIN_OPS[t.op], [a, b], dest_ml, dest_slice,
                         attrs, region=region)

    def temp_for(self, t, region) -> MemLoc:
        if t.klass == "vector":
            ln = vec_len(t)
            return self.temp("worker", t.dtype, ln * t.dtype.words, (ln,))
        if t.klass == "pescalar":
            return self.temp("worker", t.dtype, t.dtype.words)
        return self.temp("controller", t.dtype, t.dtype.words)

    def emit_gather(self, t, graph: IRGraph, dest, region) -> IRNode:
        if dest is None:
            ln = t.idx.mem_len
            dest_ml, dest_slice = self.temp("worker", t.dtype, ln * t.dtype.words, (ln,)), None
        else:
            dest_ml, dest_slice = dest

        def marg(acc: Access) -> MemArg:
            return MemArg(self.root.by_name[acc.var], acc, "vector")

        if isinstance(t, TTake):
            return self.emit(graph, "gather", [marg(t.src), marg(t.idx)],
                             dest_ml, dest_slice, region=t.src.pe)
        return self.emit(graph, "gather_mul", [marg(t.src), marg(t.idx), marg(t.other)],
                         dest_ml, dest_slice, region=t.src.pe)

    # -- statements ---------------------------------------------------------

    def build_stmt(self, s, graph: IRGraph) -> None:
        if isinstance(s, TAssign):
            self.build_assign(s, graph)
        elif isinstance(s, TReduce):
            src = MemArg(self.root.by_name[s.src.var], s.src, "vector")
            dest_ml = self.root.memlocs[self.root.by_name[s.dst.var]]
            self.emit(graph, "reduce_sum", [src], dest_ml, None, region=s.src.pe)
        elif isinstance(s, TShift):
            src = MemArg(self.root.by_name[s.src.var], s.src,
                         "vector" if s.src.kind is VarKind.LA else "pescalar")
            dest_ml = self.root.memlocs[self.root.by_name[s.dst.var]]
            self.emit(graph, "shift", [src], dest_ml, s.dst,
                      {"axis": s.axis, "offset": s.offset})
        elif isinstance(s, TPut):
            args = [MemArg(self.root.by_name[s.src.var], s.src, "vector"),
                    MemArg(self.root.by_name[s.idx.var], s.idx, "vector"),
                    MemArg(self.root.by_name[s.dst.var], s.dst, "vector")]
            dest_ml = self.root.memlocs[self.root.by_name[s.dst.var]]
            self.emit(graph, "scatter", args, dest_ml, s.dst)
        elif isinstance(s, TDeviceFor):
            self.build_loop(s, graph)
        elif isinstance(s, TExitIf):
            args = [self.arg_of(o, graph, None) for o in (s.lhs, s.rhs)]
            self.emit(graph, "exit_if", args, None, None, {"cmp": s.cmp})
        else:
            raise TypeError(f"unexpected statement {s!r}")

    def build_assign(self, s: TAssign, graph: IRGraph) -> None:
        dest_ml = self.root.memlocs[self.root.by_name[s.dst.var]]
        dest = (dest_ml, s.dst)
        region = s.dst.pe
        t = s.expr
        if isinstance(t, TBin):
            self.emit_binop(t, graph, dest, region)
        elif isinstance(t, (TTake, TGatherMul)):
            self.emit_gather(t, graph, dest, region)
        elif isinstance(t, TLit):
            self.emit(graph, "fill", [ImmArg(t.value, t.dtype)], dest_ml, s.dst)
        else:
            assert isinstance(t, TRef)
            arg = self.arg_of(t, graph, region)
            if s.dst.kind is VarKind.LA:
                op = "copy" if t.klass == "vector" else "fill"
            elif s.dst.kind in (VarKind.LS, VarKind.ULS):
                op = "copy" if t.klass == "pescalar" else "fill"
            else:
                op = "copy"
            self.emit(graph, op, [arg], dest_ml, s.dst)

    def build_loop(self, s: TDeviceFor, graph: IRGraph) -> None:
        ga_ml = self.root.by_name[s.ga.var]
        counter = self.temp("controller", DType.I16, 1)
        outer_refs = sorted(self.collect_outer_refs(s.body) | {ga_ml})
        export_nodes = {}
        for mlid in outer_refs:
            ml = self.root.memlocs[mlid]
            n = self.emit(graph, "sg_export",
                          [MemArg(mlid, None, klass_of_memloc(ml))],
                          None, None)
            export_nodes[mlid] = n
        sub = IRGraph(grid=self.root.grid, memlocs=self.root.memlocs,
                      inits=self.root.inits, by_name=self.root.by_name)
        start, stop = s.ga.ga_range
        loop_node = self.emit(
            graph, "loop",
            [MemArg(ga_ml, s.ga, "gs"), MemArg(counter.id, None, "gs")],
            None, None,
            {"start": start, "extent": stop - start, "subgraph": sub})
        self.last_writer[counter.id] = loop_node
        for mlid in outer_refs:
            ml = self.root.memlocs[mlid]
            imp = self.emit(sub, "sg_import",
                            [MemArg(mlid, None, klass_of_memloc(ml))],
                            None, None)
            self.root.transfers.append((export_nodes[mlid].id, imp.id, mlid))
        loop_ml = self.temp("controller", s.ga.dtype, s.ga.dtype.words)
        self.loop_var_ml[s.var] = loop_ml.id
        self.emit(sub, "ga_load",
                  [MemArg(ga_ml, s.ga, "gs"), MemArg(counter.id, None, "gs")],
                  loop_ml, None, {"counter": counter.id})
        for b in s.body:
            self.build_stmt(b, sub)
        del self.loop_var_ml[s.var]
        # after the loop, reads of body-written variables depend on the loop node
        for n in ordered_walk(sub):
            if n.result_index is not None \
                    and self.root.memlocs[n.result_index].kind != "temporary":
                self.last_writer[n.result_index] = loop_node

    def collect_outer_refs(self, body) -> set[int]:
        by_name = self.root.by_name
        refs: set[int] = set()
        for b in body:
            for acc in stmt_accesses(b):
                refs.add(by_name[acc.var])
                if acc.dyn:
                    refs.add(by_name[acc.dyn])
        return refs

    def run(self) -> IRGraph:
        self.declare_vars()
        for s in self.il.stmts:
            self.build_stmt(s, self.root)
        self.root.outputs = tuple(
            mlid for mlid in sorted(self.root.by_name.values())
            if self.root.memlocs[mlid].kind == "output")
        return self.root


def expr_dyn(t) -> str | None:
    """The dynamic stop an expression's operands share, if any."""
    return next((acc.dyn for acc in expr_accesses(t) if acc.dyn), None)


def build(il: ILProgram) -> IRGraph:
    """Lower an IL program to its IR graph."""
    return _Builder(il).run()


def node_placement(g: IRGraph, n: IRNode) -> str:
    """Whether a node executes on the controller or across the worker field."""
    if n.op_name in CONTROLLER_OPS:
        return "controller"
    if n.op_name in WORKER_FIELD_OPS:
        return "worker"
    if n.result_index is not None and g.memlocs[n.result_index].placement == "controller":
        return "controller"
    return "worker"


def validate(g: IRGraph) -> list:
    """Check graph invariants; returns diagnostics (empty when healthy)."""
    sink = DiagnosticSink()
    seen: set[int] = set()
    prev = -1
    nodes_by_id: dict[int, IRNode] = {}
    for n in ordered_walk(g):
        if n.id in seen:
            sink.error(f"node id {n.id} appears more than once")
        seen.add(n.id)
        if n.id <= prev:
            sink.error(f"node ids not increasing at {n.id} (after {prev})")
        prev = n.id
        nodes_by_id[n.id] = n
        if n.result_index is not None and n.result_index not in g.memlocs:
            sink.error(f"node {n.id} writes unknown memloc {n.result_index}")
        for pos, a in enumerate(n.args):
            if isinstance(a, MemArg) and a.mlid not in g.memlocs:
                sink.error(f"node {n.id} arg {pos} references unknown memloc {a.mlid}")
    for e in g.edges:
        if e.src_node >= e.dst_node:
            sink.error(f"edge {e.src_node}->{e.dst_node} does not point forward")
        if e.src_node not in nodes_by_id or e.dst_node not in nodes_by_id:
            sink.error(f"edge {e.src_node}->{e.dst_node} references missing nodes")
            continue
        dst = nodes_by_id[e.dst_node]
        if not 0 <= e.arg_pos < len(dst.args):
            sink.error(f"edge into node {e.dst_node} has arg position {e.arg_pos} "
                       f"outside its {len(dst.args)} args")
    # temporaries must be written before any read
    temp_written: set[int] = set()
    for n in ordered_walk(g):
        if n.op_name == "loop":
            temp_written.add(n.args[1].mlid)  # the loop counter
        for a in n.args:
            if isinstance(a, MemArg):
                ml = g.memlocs[a.mlid]
                if ml.kind == "temporary" and a.mlid not in temp_written \
                        and a.mlid not in g.inits:
                    sink.error(f"temporary {ml.name} read at node {n.id} before any write")
        if n.result_index is not None:
            temp_written.add(n.result_index)
    # every non-temporary referenced inside a loop needs a transfer pair
    for n in ordered_walk(g):
        if n.op_name != "loop":
            continue
        sub = n.subgraph
        sub_ids = {m.id for m in ordered_walk(sub)}
        declared = {ml for _, imp, ml in g.transfers if imp in sub_ids}
        inner_refs: set[int] = set()
        for m in ordered_walk(sub):
            for a in m.args:
                if isinstance(a, MemArg) and g.memlocs[a.mlid].kind != "temporary":
                    inner_refs.add(a.mlid)
            if m.result_index is not None \
                    and g.memlocs[m.result_index].kind != "temporary":
                inner_refs.add(m.result_index)
        for mlid in inner_refs - declared:
            sink.error(f"loop node {n.id} references '{g.memlocs[mlid].name}' "
                       "without a subgraph transfer")
    return sink.items
