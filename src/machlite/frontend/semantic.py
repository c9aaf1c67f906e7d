"""Semantic analysis: kind/shape/placement checking and slice resolution.

Produces a TypedProgram whose statements carry fully resolved accesses:
PE-grid participation regions plus per-axis memory windows.  Compile-time
range loops are unrolled here; device loops over GA stay structured.

The field forms (take, gather_mul, put, shift and reduce) share one set of
operand rules, `Analyzer.check_operands`, checked in this order at the
form's location; the first rule that fails ends the check:

- each operand is an la slice (shift also takes ls and uls slices), and
  the index of take, gather_mul and put is an i16 la slice;
- the operands have one dtype (the index is i16 by the rule above);
- every operand with a PE region selects the statement's region, the
  destination's (`Analyzer.check_region`, which assignments run too);
- no operand uses a dynamic stop;
- the index and the operands moved element for element have one element
  count (the table a gather reads or a scatter writes may differ).

Each message names the form and the operand.  Checks that belong to one
form keep their own code: the shift step and la/ls pairing, the reduce
target, the uls-destination rules and read-before-write.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from machlite.diagnostics import DiagnosticSink, Loc
from machlite.frontend.syntax import (
    Assign,
    AxisSlice,
    BinOp,
    DeviceFor,
    DType,
    ExitIf,
    GatherMul,
    InitSpec,
    Lit,
    Put,
    RangeFor,
    Reduce,
    Ref,
    Shift,
    SourceProgram,
    Take,
    TensorDecl,
    VarKind,
)

PEAxis = tuple[int, int, int]  # start, stop, step


@dataclass(frozen=True)
class MemAxis:
    start: int
    stop: int | None          # None when the stop is dynamic
    extent: int               # declared extent of this axis
    dyn: str | None = None    # LS variable supplying the stop at run time

    @property
    def static_len(self) -> int:
        # for dynamic axes this is the maximum possible length
        stop = self.extent if self.stop is None else self.stop
        return stop - self.start


@dataclass(frozen=True)
class Access:
    """A resolved tensor reference: who participates and which elements."""

    var: str
    kind: VarKind
    dtype: DType
    pe: tuple[PEAxis, PEAxis] | None = None
    mem: tuple[MemAxis, ...] = ()
    ga_index: int | None = None        # constant GA element reads
    ga_range: tuple[int, int] | None = None  # device-loop iteration windows

    @property
    def mem_len(self) -> int:
        n = 1
        for ax in self.mem:
            n *= ax.static_len
        return n

    @property
    def dyn(self) -> str | None:
        for ax in self.mem:
            if ax.dyn is not None:
                return ax.dyn
        return None


# typed expression nodes ----------------------------------------------------

@dataclass(frozen=True)
class TRef:
    access: Access
    klass: str  # "gs" | "pescalar" | "vector"
    dtype: DType
    is_loop_var: bool = False


@dataclass(frozen=True)
class TLit:
    value: float
    dtype: DType
    klass: str = "lit"


@dataclass(frozen=True)
class TBin:
    op: str
    lhs: object
    rhs: object
    klass: str = "gs"
    dtype: DType = DType.F32


@dataclass(frozen=True)
class TTake:
    src: Access
    idx: Access
    klass: str = "vector"
    dtype: DType = DType.F32


@dataclass(frozen=True)
class TGatherMul:
    src: Access
    idx: Access
    other: Access
    klass: str = "vector"
    dtype: DType = DType.F32


def expr_accesses(t) -> list[Access]:
    """The accesses a typed expression reads, left to right; literals and
    loop variables read none."""
    if isinstance(t, TBin):
        return expr_accesses(t.lhs) + expr_accesses(t.rhs)
    if isinstance(t, TTake):
        return [t.src, t.idx]
    if isinstance(t, TGatherMul):
        return [t.src, t.idx, t.other]
    if isinstance(t, TRef) and not t.is_loop_var:
        return [t.access]
    return []


def vec_len(t) -> int:
    """Element count of a typed expression: 1 unless it yields a vector."""
    if isinstance(t, TBin):
        return max(vec_len(t.lhs), vec_len(t.rhs))
    if isinstance(t, (TTake, TGatherMul)):
        return t.idx.mem_len
    if isinstance(t, TRef) and t.klass == "vector":
        return t.access.mem_len
    return 1


# typed statements ----------------------------------------------------------

@dataclass(frozen=True)
class TAssign:
    dst: Access
    expr: object
    loc: Loc = field(default=Loc(0, 0), compare=False)


@dataclass(frozen=True)
class TDeviceFor:
    var: str
    ga: Access
    body: tuple
    loc: Loc = field(default=Loc(0, 0), compare=False)


@dataclass(frozen=True)
class TExitIf:
    lhs: object
    cmp: str
    rhs: object
    loc: Loc = field(default=Loc(0, 0), compare=False)


@dataclass(frozen=True)
class TReduce:
    dst: Access        # the gs or uls target, written whole
    src: Access
    loc: Loc = field(default=Loc(0, 0), compare=False)


@dataclass(frozen=True)
class TShift:
    dst: Access
    src: Access
    axis: str
    offset: int
    loc: Loc = field(default=Loc(0, 0), compare=False)


@dataclass(frozen=True)
class TPut:
    dst: Access
    idx: Access
    src: Access
    loc: Loc = field(default=Loc(0, 0), compare=False)


def stmt_accesses(s) -> list[Access]:
    """The accesses a typed statement other than a device loop writes and
    reads: the destination first (an exit_if has none), then the reads."""
    if isinstance(s, TAssign):
        return [s.dst] + expr_accesses(s.expr)
    if isinstance(s, (TReduce, TShift)):
        return [s.dst, s.src]
    if isinstance(s, TPut):
        return [s.dst, s.idx, s.src]
    return expr_accesses(s.lhs) + expr_accesses(s.rhs)


@dataclass(frozen=True)
class GridConfig:
    nx: int
    ny: int


@dataclass
class VarInfo:
    decl: TensorDecl
    init: InitSpec | None
    written: bool = False


@dataclass
class TypedProgram:
    grid: GridConfig
    variables: dict[str, VarInfo]
    stmts: tuple
    order: tuple[str, ...]  # declaration order


def _unroll(stmts, bindings: dict[str, int]):
    """Expand RangeFor loops and substitute their iterators as int literals."""
    out = []
    for s in stmts:
        if isinstance(s, RangeFor):
            for i in range(s.extent):
                out.extend(_unroll(s.body, {**bindings, s.var: i}))
        elif isinstance(s, DeviceFor):
            out.append(replace(s, body=tuple(_unroll(s.body, bindings))))
        else:
            out.append(_subst(s, bindings))
    return out


def _subst(node, bindings: dict[str, int]):
    if not bindings:
        return node
    if isinstance(node, Ref) and node.axes is None and node.name in bindings:
        return Lit(float(bindings[node.name]), True, node.loc)
    if isinstance(node, BinOp):
        return replace(node, lhs=_subst(node.lhs, bindings), rhs=_subst(node.rhs, bindings))
    if isinstance(node, Assign):
        return replace(node, expr=_subst(node.expr, bindings))
    if isinstance(node, ExitIf):
        return replace(node, lhs=_subst(node.lhs, bindings), rhs=_subst(node.rhs, bindings))
    return node


class Analyzer:
    def __init__(self, program: SourceProgram, grid: GridConfig, sink: DiagnosticSink):
        self.program = program
        self.grid = grid
        self.sink = sink
        self.vars: dict[str, VarInfo] = {}
        self.rejected: set[str] = set()   # declared with an invalid shape
        self.order: list[str] = []
        self.loop_vars: dict[str, DType] = {}

    # -- declarations -------------------------------------------------------

    def check_decls(self) -> None:
        host_inits: dict[str, InitSpec] = {}
        for p in self.program.pragmas:
            if p.kind != "host":
                continue
            for name, init in p.host_inits:
                if name in host_inits:
                    self.sink.error(f"duplicate host init for '{name}'", p.loc)
                host_inits[name] = init
        for d in self.program.decls:
            if d.name in self.vars or d.name in self.rejected:
                self.sink.error(f"duplicate declaration of '{d.name}'", d.loc)
                continue
            init = d.init
            if d.name in host_inits:
                if init is not None:
                    self.sink.error(f"'{d.name}' has both an inline and a host init", d.loc)
                init = host_inits.pop(d.name)
            if not self.check_shape(d):
                # uses of the name are skipped instead of indexing its shape
                self.rejected.add(d.name)
                continue
            if init is not None:
                self.check_init(d, init)
            self.vars[d.name] = VarInfo(d, init)
            self.order.append(d.name)
        for name in host_inits:
            self.sink.error(f"host init for undeclared variable '{name}'")

    def check_shape(self, d: TensorDecl) -> bool:
        """Report what is wrong with the declared shape; True if nothing is."""
        reported = len(self.sink.items)
        if d.kind in (VarKind.GS, VarKind.LS, VarKind.ULS):
            if d.shape:
                self.sink.error(f"{d.kind.value} '{d.name}' must be scalar-shaped", d.loc)
        elif d.kind is VarKind.GA:
            if len(d.shape) != 1 or d.shape[0] < 1:
                self.sink.error(f"ga '{d.name}' needs a 1-D shape", d.loc)
        else:  # LA
            if len(d.shape) < 3:
                self.sink.error(f"la '{d.name}' must have rank >= 3", d.loc)
            elif len(d.shape) > 4:
                self.sink.error(f"la '{d.name}' rank {len(d.shape)} exceeds the supported limit of 4", d.loc)
            else:
                if d.shape[0] > self.grid.nx or d.shape[1] > self.grid.ny:
                    self.sink.error(
                        f"la '{d.name}' grid dims {d.shape[:2]} exceed the "
                        f"{self.grid.nx}x{self.grid.ny} worker grid", d.loc)
                if any(x < 1 for x in d.shape):
                    self.sink.error(f"la '{d.name}' has a non-positive extent", d.loc)
        return len(self.sink.items) == reported

    def check_init(self, d: TensorDecl, init: InitSpec) -> None:
        if d.kind is VarKind.ULS and init.form in ("rand", "randint"):
            self.sink.error(f"uls '{d.name}' requires a uniform init", d.loc)
        if d.kind is VarKind.LA and d.shape[:2] != (self.grid.nx, self.grid.ny):
            # the initializer fills every worker's block
            self.sink.error(
                f"initialized la '{d.name}' grid dims {d.shape[:2]} must equal "
                f"the {self.grid.nx}x{self.grid.ny} worker grid", d.loc)
        if init.form == "literal":
            need = 1
            for x in d.shape:
                need *= x
            if d.kind is VarKind.LS:
                need = self.grid.nx * self.grid.ny
            if len(init.values) != need:
                self.sink.error(
                    f"literal init for '{d.name}' has {len(init.values)} values, expected {need}", d.loc)
        if init.form == "randint" and init.lo >= init.hi:
            self.sink.error(f"randint bounds for '{d.name}' are empty", d.loc)
        if d.dtype is DType.I16 and init.form == "constant" and not init.is_int:
            self.sink.error(f"i16 '{d.name}' initialized with a float constant", d.loc)

    # -- reference resolution ----------------------------------------------

    def lookup(self, name: str, loc: Loc) -> VarInfo | None:
        info = self.vars.get(name)
        if info is None and name not in self.loop_vars and name not in self.rejected:
            self.sink.error(f"unknown identifier '{name}'", loc)
        return info

    def resolve_pe_axis(self, ax: AxisSlice, extent: int, loc: Loc, what: str) -> PEAxis | None:
        if ax.index is not None:
            if not 0 <= ax.index < extent:
                self.sink.error(f"{what} index {ax.index} out of range [0, {extent})", loc)
                return None
            return (ax.index, ax.index + 1, 1)
        if isinstance(ax.stop, str):
            self.sink.error(f"dynamic stop '{ax.stop}' is only allowed on memory axes", loc)
            return None
        start = ax.start or 0
        stop = extent if ax.stop is None else ax.stop
        step = ax.step or 1
        if step < 1:
            self.sink.error(f"{what} step must be >= 1", loc)
            return None
        if not (0 <= start < stop <= extent):
            self.sink.error(f"{what} slice {start}:{stop} out of range [0, {extent}]", loc)
            return None
        return (start, stop, step)

    def resolve_mem_axis(self, ax: AxisSlice, extent: int, loc: Loc) -> MemAxis | None:
        if ax.step is not None:
            self.sink.error("memory axes do not support a slice step", loc)
            return None
        if ax.index is not None:
            if not 0 <= ax.index < extent:
                self.sink.error(f"memory index {ax.index} out of range [0, {extent})", loc)
                return None
            return MemAxis(ax.index, ax.index + 1, extent)
        start = ax.start or 0
        if isinstance(ax.stop, str):
            info = self.vars.get(ax.stop)
            if info is None:
                if ax.stop not in self.rejected:
                    self.sink.error(f"unknown identifier '{ax.stop}' as dynamic stop", loc)
                return None
            if info.decl.kind is not VarKind.LS or info.decl.dtype is not DType.I16:
                self.sink.error(f"dynamic stop '{ax.stop}' must be an i16 ls variable", loc)
                return None
            if not 0 <= start < extent:
                self.sink.error(f"memory slice start {start} out of range", loc)
                return None
            return MemAxis(start, None, extent, dyn=ax.stop)
        stop = extent if ax.stop is None else ax.stop
        if not (0 <= start < stop <= extent):
            self.sink.error(f"memory slice {start}:{stop} out of range [0, {extent}]", loc)
            return None
        return MemAxis(start, stop, extent)

    def resolve_ref(self, ref: Ref, want: str = "any") -> TRef | None:
        """Resolve a surface reference to a typed access.

        want: "any" | "scalar" (GS contexts) | "field" (LA/LS participation).
        """
        if ref.name in self.loop_vars and ref.name not in self.vars:
            if ref.axes is not None:
                self.sink.error(f"loop variable '{ref.name}' cannot be sliced", ref.loc)
                return None
            acc = Access(ref.name, VarKind.GS, self.loop_vars[ref.name])
            return TRef(acc, "gs", self.loop_vars[ref.name], is_loop_var=True)
        info = self.lookup(ref.name, ref.loc)
        if info is None:
            return None
        d = info.decl
        if d.kind is VarKind.GS:
            if ref.axes is not None:
                self.sink.error(f"gs '{ref.name}' cannot be sliced", ref.loc)
                return None
            return TRef(Access(d.name, d.kind, d.dtype), "gs", d.dtype)
        if d.kind is VarKind.GA:
            if ref.axes is None or len(ref.axes) != 1 or ref.axes[0].index is None:
                self.sink.error(f"ga '{ref.name}' requires a constant element index here", ref.loc)
                return None
            idx = ref.axes[0].index
            if not 0 <= idx < d.shape[0]:
                self.sink.error(f"ga index {idx} out of range [0, {d.shape[0]})", ref.loc)
                return None
            return TRef(Access(d.name, d.kind, d.dtype, ga_index=idx), "gs", d.dtype)
        if d.kind in (VarKind.LS, VarKind.ULS):
            axes = ref.axes or ()
            if len(axes) > 2:
                self.sink.error(f"{d.kind.value} '{ref.name}' takes at most 2 slice axes", ref.loc)
                return None
            full = (AxisSlice.full(), AxisSlice.full())
            axes = tuple(axes) + full[len(axes):]
            px = self.resolve_pe_axis(axes[0], self.grid.nx, ref.loc, "pe")
            py = self.resolve_pe_axis(axes[1], self.grid.ny, ref.loc, "pe")
            if px is None or py is None:
                return None
            acc = Access(d.name, d.kind, d.dtype, pe=(px, py))
            return TRef(acc, "pescalar", d.dtype)
        # LA
        rank = len(d.shape)
        axes = ref.axes
        if axes is None:
            axes = tuple(AxisSlice.full() for _ in range(rank))
        if len(axes) > rank:
            self.sink.error(f"la '{ref.name}' has rank {rank}, got {len(axes)} axes", ref.loc)
            return None
        axes = tuple(axes) + tuple(AxisSlice.full() for _ in range(rank - len(axes)))
        px = self.resolve_pe_axis(axes[0], d.shape[0], ref.loc, "pe")
        py = self.resolve_pe_axis(axes[1], d.shape[1], ref.loc, "pe")
        mem = []
        ok = px is not None and py is not None
        for ax, extent in zip(axes[2:], d.shape[2:]):
            m = self.resolve_mem_axis(ax, extent, ref.loc)
            if m is None:
                ok = False
            else:
                mem.append(m)
        if not ok:
            return None
        dyns = [i for i, m in enumerate(mem) if m.dyn]
        if len(dyns) > 1:
            self.sink.error("at most one dynamic stop per reference", ref.loc)
            return None
        if dyns and dyns[0] != len(mem) - 1:
            self.sink.error("a dynamic stop is only allowed on the last memory axis", ref.loc)
            return None
        acc = Access(d.name, d.kind, d.dtype, pe=(px, py), mem=tuple(mem))
        return TRef(acc, "vector", d.dtype)

    # -- expressions --------------------------------------------------------

    def type_expr(self, e, ctx_dtype: DType | None, loc: Loc):
        if isinstance(e, Lit):
            dt = ctx_dtype or (DType.I16 if e.is_int else DType.F32)
            if dt is DType.I16 and not e.is_int:
                self.sink.error("float literal in an i16 context", e.loc)
            return TLit(e.value, dt)
        if isinstance(e, Ref):
            return self.resolve_ref(e)
        if isinstance(e, Take):
            ops = self.resolve_operands(e.src, e.idx)
            if ops is None or not self.check_operands("take()", e.loc, (),
                                                      table=ops[0], idx=ops[1]):
                return None
            return TTake(*ops, "vector", ops[0].dtype)
        if isinstance(e, GatherMul):
            ops = self.resolve_operands(e.src, e.idx, e.other)
            if ops is None or not self.check_operands("gather_mul()", e.loc, ops[2:],
                                                      table=ops[0], idx=ops[1]):
                return None
            return TGatherMul(*ops, "vector", ops[0].dtype)
        if isinstance(e, BinOp):
            lhs = self.type_expr(e.lhs, ctx_dtype, e.loc)
            rhs = self.type_expr(e.rhs, ctx_dtype, e.loc)
            if lhs is None or rhs is None:
                return None
            klass = self.combine_klass(lhs, rhs, e.loc)
            dtype = self.combine_dtype(lhs, rhs, e.loc)
            if klass is None or dtype is None:
                return None
            lhs, rhs = self.adapt_lit(lhs, dtype), self.adapt_lit(rhs, dtype)
            return TBin(e.op, lhs, rhs, klass, dtype)
        raise TypeError(f"unexpected expression node {e!r}")

    def adapt_lit(self, t, dtype: DType):
        if isinstance(t, TLit) and t.dtype is not dtype:
            return TLit(t.value, dtype)
        return t

    def combine_klass(self, lhs, rhs, loc: Loc) -> str | None:
        rank = {"lit": 0, "gs": 1, "pescalar": 2, "vector": 3}
        a, b = rank[lhs.klass], rank[rhs.klass]
        hi = max(a, b)
        lo = min(a, b)
        if hi == 3 and lo == 3:
            la, lb = vec_len(lhs), vec_len(rhs)
            if la != lb:
                self.sink.error(f"element count mismatch {la} vs {lb}", loc)
                return None
        return {0: "lit", 1: "gs", 2: "pescalar", 3: "vector"}[hi]

    def combine_dtype(self, lhs, rhs, loc: Loc) -> DType | None:
        dts = {t.dtype for t in (lhs, rhs) if not isinstance(t, TLit)}
        if len(dts) > 1:
            self.sink.error("mixed f32/i16 operands; no implicit casts", loc)
            return None
        if dts:
            return dts.pop()
        return lhs.dtype  # all literals

    # -- operand rules (see the module docstring) -----------------------------

    def resolve_operands(self, *refs: Ref) -> list[Access] | None:
        """The accesses of a form's operands; every operand is resolved so
        that all their errors are reported, and None returned if any failed."""
        typed = [self.resolve_ref(r) for r in refs]
        if any(t is None for t in typed):
            return None
        return [t.access for t in typed]

    def check_operands(self, form: str, loc: Loc, elems, table: Access | None = None,
                       idx: Access | None = None, stmt=None, ls_ok: bool = False) -> bool:
        """The shared operand rules of a field form.  `elems` are the operands
        moved element for element, `table` the array a gather reads or a
        scatter writes, `idx` the index; `stmt` is the typed statement whose
        region the operands must select (None for an expression)."""
        values = ([table] if table else []) + list(elems)
        kinds = (VarKind.LA, VarKind.LS, VarKind.ULS) if ls_ok else (VarKind.LA,)
        bad = next((acc for acc in values if acc.kind not in kinds), None)
        if bad is not None:
            self.sink.error(f"{form} operand '{bad.var}' must be an "
                            f"{'la or ls' if ls_ok else 'la'} slice", loc)
        bad_idx = idx is not None and (idx.kind is not VarKind.LA or idx.dtype is not DType.I16)
        if bad_idx:
            self.sink.error(f"{form} index '{idx.var}' must be an i16 la slice", loc)
        if bad is not None or bad_idx:
            return False
        first = values[0]
        for acc in values[1:]:
            if acc.dtype is not first.dtype:
                self.sink.error(
                    f"{form} operand dtypes differ: '{first.var}' is {first.dtype.value}, "
                    f"'{acc.var}' is {acc.dtype.value}", loc)
                return False
        if stmt is not None and not self.check_region(stmt, loc):
            return False
        if not self.check_static(form, [a for a in (table, idx, *elems) if a is not None], loc):
            return False
        counted = ([idx] if idx else []) + list(elems)
        for acc in counted[1:]:
            if acc.mem_len != counted[0].mem_len:
                self.sink.error(
                    f"{form} element counts differ: '{counted[0].var}' has "
                    f"{counted[0].mem_len}, '{acc.var}' has {acc.mem_len}", loc)
                return False
        return True

    def check_region(self, t, loc: Loc) -> bool:
        """Every operand of `t` with a PE region selects the region of its
        destination; one error for each operand that does not."""
        dst, *reads = stmt_accesses(t)
        ok = True
        for acc in reads:
            if acc.pe is not None and acc.pe != dst.pe:
                self.sink.error(
                    f"operand '{acc.var}' participates on {acc.pe}, statement region "
                    f"is {dst.pe}; slices must select the same workers", loc)
                ok = False
        return ok

    def check_static(self, form: str, accs, loc: Loc) -> bool:
        """No operand of a form without dynamic-stop support uses one."""
        for acc in accs:
            if acc.dyn:
                self.sink.error(f"{form} does not support dynamic stops: "
                                f"'{acc.var}' stops at '{acc.dyn}'", loc)
                return False
        return True

    # -- statements ---------------------------------------------------------

    def check_stmt(self, s, in_loop: bool):
        if isinstance(s, Assign):
            return self.check_assign(s)
        if isinstance(s, DeviceFor):
            return self.check_device_for(s)
        if isinstance(s, ExitIf):
            if not in_loop:
                self.sink.error("exit_if is only allowed inside a device loop", s.loc)
                return None
            return self.check_exit_if(s)
        if isinstance(s, (Reduce, Shift, Put)):
            return self.check_field_stmt(s)
        raise TypeError(f"unexpected statement {s!r}")

    def first_write_ok(self, name: str, dst: Access | None) -> None:
        """Uninitialized storage must first be written in full."""
        info = self.vars.get(name)
        if info is None or info.written or info.init is not None:
            return
        d = info.decl
        full = dst is not None and dst.ga_index is None
        if full and d.kind is VarKind.LA:
            (xs, xe, xst), (ys, ye, yst) = dst.pe
            full = (xs, xe, xst) == (0, d.shape[0], 1) and (ys, ye, yst) == (0, d.shape[1], 1)
            full = full and all(
                m.dyn is None and m.start == 0 and m.stop == m.extent for m in dst.mem)
        elif full and d.kind in (VarKind.LS, VarKind.ULS):
            (xs, xe, xst), (ys, ye, yst) = dst.pe
            full = (xs, xe, xst) == (0, self.grid.nx, 1) and (ys, ye, yst) == (0, self.grid.ny, 1)
        if not full:
            self.sink.error(
                f"'{name}' has no initializer; its first reference must write the full extent",
                d.loc)
        info.written = True

    def note_read(self, name: str, loc: Loc) -> None:
        info = self.vars.get(name)
        if info is not None and not info.written and info.init is None:
            self.sink.error(f"'{name}' is read before any value is written", loc)

    def check_assign(self, s: Assign) -> TAssign | None:
        dst = self.resolve_ref(s.dst)
        if dst is None:
            return None
        if isinstance(dst, TRef) and dst.is_loop_var:
            self.sink.error(f"cannot assign to loop variable '{s.dst.name}'", s.loc)
            return None
        if dst.access.kind is VarKind.GA:
            self.sink.error("ga variables are read-only after initialization", s.loc)
            return None
        expr = s.expr
        if s.op != "=":
            expr = BinOp(s.op[0], s.dst, expr, s.loc)
        texpr = self.type_expr(expr, dst.dtype, s.loc)
        if texpr is None:
            return None
        reads = expr_accesses(texpr)
        for acc in reads:
            self.note_read(acc.var, s.loc)
        if not isinstance(texpr, TLit) and texpr.dtype is not dst.dtype:
            self.sink.error(
                f"dtype mismatch: '{dst.access.var}' is {dst.dtype.value}, "
                f"expression is {texpr.dtype.value}", s.loc)
            return None
        texpr = self.adapt_lit(texpr, dst.dtype)
        eklass = texpr.klass
        if dst.klass == "gs":
            if eklass not in ("gs", "lit"):
                self.sink.error("a gs destination takes controller-scalar expressions only", s.loc)
                return None
        elif dst.klass == "pescalar":
            if dst.access.kind is VarKind.ULS and eklass == "pescalar":
                self.sink.error("a uls destination requires a uniform (gs or literal) value", s.loc)
                return None
            if dst.access.kind is VarKind.ULS and dst.access.pe != (
                    (0, self.grid.nx, 1), (0, self.grid.ny, 1)):
                self.sink.error("a uls destination must be written on every worker", s.loc)
                return None
            if eklass == "vector":
                self.sink.error("cannot assign a vector expression to a per-worker scalar", s.loc)
                return None
        elif eklass == "vector" and vec_len(texpr) != dst.access.mem_len:
            self.sink.error(
                f"element count mismatch: destination {dst.access.mem_len}, "
                f"expression {vec_len(texpr)}", s.loc)
            return None
        t = TAssign(dst.access, texpr, s.loc)
        if not self.check_region(t, s.loc):
            return None
        if dst.klass == "vector":
            dyns = {acc.dyn for acc in reads + [dst.access] if acc.dyn}
            if len(dyns) > 1:
                self.sink.error("all operands must share a single dynamic stop", s.loc)
                return None
            if isinstance(texpr, (TTake, TGatherMul)) and not self.check_static(
                    "take()" if isinstance(texpr, TTake) else "gather_mul()",
                    [dst.access], s.loc):
                return None
            if dyns:
                # every LA operand must use the shared dynamic stop, on an
                # axis with a common start and extent so effective element
                # counts agree on every worker
                name = dyns.pop()
                windows = set()
                for acc in reads + [dst.access]:
                    if acc.kind is not VarKind.LA:
                        continue
                    if acc.dyn != name:
                        self.sink.error(
                            f"operand '{acc.var}' must use the shared dynamic stop '{name}'", s.loc)
                        return None
                    ax = acc.mem[-1]
                    windows.add((ax.start, ax.extent))
                if len(windows) > 1:
                    self.sink.error(
                        "dynamic-stop operands must agree on the last axis start and extent", s.loc)
                    return None
        self.first_write_ok(dst.access.var, dst.access)
        return t

    def check_device_for(self, s: DeviceFor) -> TDeviceFor | None:
        info = self.lookup(s.iterable.name, s.loc)
        if info is None:
            return None
        if info.decl.kind is not VarKind.GA:
            self.sink.error("device loops iterate over a ga variable", s.loc)
            return None
        extent = info.decl.shape[0]
        axes = s.iterable.axes
        if axes is None:
            start, stop = 0, extent
        elif len(axes) == 1 and axes[0].index is None and axes[0].step is None \
                and not isinstance(axes[0].stop, str):
            start = axes[0].start or 0
            stop = extent if axes[0].stop is None else axes[0].stop
            if not (0 <= start < stop <= extent):
                self.sink.error(f"loop range {start}:{stop} out of ga extent [0, {extent}]", s.loc)
                return None
        else:
            self.sink.error("device loop range must be a plain start:stop window", s.loc)
            return None
        if s.var in self.vars or s.var in self.loop_vars:
            self.sink.error(f"loop variable '{s.var}' shadows an existing name", s.loc)
            return None
        self.loop_vars[s.var] = info.decl.dtype
        body = []
        for b in s.body:
            if isinstance(b, DeviceFor):
                self.sink.error("device loops do not nest", b.loc)
                continue
            t = self.check_stmt(b, in_loop=True)
            if t is not None:
                body.append(t)
        del self.loop_vars[s.var]
        ga = Access(info.decl.name, VarKind.GA, info.decl.dtype, ga_range=(start, stop))
        return TDeviceFor(s.var, ga, tuple(body), s.loc)

    def check_exit_if(self, s: ExitIf) -> TExitIf | None:
        def operand(o):
            if isinstance(o, Lit):
                return TLit(o.value, DType.I16 if o.is_int else DType.F32)
            t = self.resolve_ref(o)
            if t is None:
                return None
            if t.klass != "gs":
                self.sink.error("exit_if compares controller scalars or literals", s.loc)
                return None
            if not t.is_loop_var:
                self.note_read(t.access.var, s.loc)
            return t

        lhs = operand(s.lhs)
        rhs = operand(s.rhs)
        if lhs is None or rhs is None:
            return None
        dts = {t.dtype for t in (lhs, rhs) if isinstance(t, TRef)}
        if len(dts) > 1:
            self.sink.error("exit_if operand dtypes differ", s.loc)
            return None
        dt = dts.pop() if dts else lhs.dtype
        if isinstance(lhs, TLit):
            lhs = TLit(lhs.value, dt)
        if isinstance(rhs, TLit):
            rhs = TLit(rhs.value, dt)
        return TExitIf(lhs, s.cmp, rhs, s.loc)

    def check_field_stmt(self, s):
        """A reduce, shift or put: the shared operand rules, then the form's
        own checks and the reads and writes it makes."""
        if isinstance(s, Reduce):
            ops = self.resolve_operands(s.src)
            if ops is None or not self.check_operands("reduce()", s.loc, ops):
                return None
            (src,) = ops
            self.note_read(src.var, s.loc)
            if s.target in self.loop_vars:
                self.sink.error(f"reduce() target '{s.target}' is a loop variable, "
                                "not a uls or gs variable", s.loc)
                return None
            info = self.lookup(s.target, s.loc)
            if info is None:
                return None
            d = info.decl
            if d.kind not in (VarKind.ULS, VarKind.GS):
                self.sink.error("reduce() target must be a uls or gs variable", s.loc)
                return None
            if d.dtype is not src.dtype:
                self.sink.error("reduce() target dtype differs from the source", s.loc)
                return None
            self.first_write_ok(d.name, None)
            return TReduce(Access(d.name, d.kind, d.dtype), src, s.loc)
        if isinstance(s, Shift):
            ops = self.resolve_operands(s.dst, s.src)
            if ops is None:
                return None
            t = TShift(*ops, s.axis, s.offset, s.loc)
            if not self.check_operands("shift()", s.loc, ops, stmt=t, ls_ok=True):
                return None
            (_, _, xst), (_, _, yst) = t.dst.pe
            if xst != 1 or yst != 1:
                self.sink.error("shift regions must be contiguous (step 1)", s.loc)
                return None
            if (t.dst.kind is VarKind.LA) != (t.src.kind is VarKind.LA):
                self.sink.error("shift operands must both be la or both ls", s.loc)
                return None
            if t.dst.kind is VarKind.ULS:
                self.sink.error(f"shift() destination '{t.dst.var}' is a uls, which "
                                "must hold one value on every worker", s.loc)
                return None
            self.note_read(t.src.var, s.loc)
            self.first_write_ok(t.dst.var, None)
            return t
        ops = self.resolve_operands(s.dst, s.idx, s.src)
        if ops is None:
            return None
        t = TPut(*ops, s.loc)
        if not self.check_operands("put()", s.loc, [t.src], table=t.dst, idx=t.idx, stmt=t):
            return None
        for acc in (t.src, t.idx, t.dst):  # a scatter keeps the elements it skips
            self.note_read(acc.var, s.loc)
        self.vars[t.dst.var].written = True
        return t

    def run(self) -> TypedProgram | None:
        if self.grid.nx < 2 or self.grid.ny < 2 or self.grid.nx % 2 or self.grid.ny % 2:
            self.sink.error(
                f"worker grid {self.grid.nx}x{self.grid.ny} must have even dims >= 2 "
                "(the reduction fabric splits the field into symmetric halves)")
            return None
        self.check_decls()
        stmts = _unroll(self.program.stmts, {})
        typed = []
        for s in stmts:
            t = self.check_stmt(s, in_loop=False)
            if t is not None:
                typed.append(t)
        if self.sink.has_errors:
            return None
        return TypedProgram(self.grid, self.vars, tuple(typed), tuple(self.order))


def analyze(program: SourceProgram, grid: GridConfig) -> tuple[TypedProgram | None, list]:
    """Type-check a parsed program against a worker grid configuration."""
    sink = DiagnosticSink()
    typed = Analyzer(program, grid, sink).run()
    return typed, sink.items
