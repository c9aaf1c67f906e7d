"""Unified-memory reference interpreter for IR graphs.

Walks nodes in id order over dense numpy arrays.  Two storage modes:

* symbolic: one array per memloc, keyed by id.
* planned: every access goes through the addresses a MemPlan assigned, over
  a flat word image per worker and one for the controller, laid out by
  `memwords.store_words`/`load_words` exactly as the simulator's images
  are.  A planner bug that overlaps live allocations shows up as corrupted
  values against the symbolic run.

f32 reductions accumulate sequentially in float32, workers in C-order over
(x, y) and elements in memory order; that ordering is the definition other
backends are measured against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from machlite.diagnostics import SimFault
from machlite.frontend.syntax import DType, VarKind
from machlite.irg import (
    IRGraph,
    IRNode,
    ImmArg,
    MemArg,
    MemLoc,
    full_shape,
    ordered_walk,
)
from machlite.memplan import MemPlan, observables
from machlite.memwords import (
    CMPS, alu, fold_sum, initial_array, load_words, np_dtype, store_words)


@dataclass
class RefResult:
    values: dict[int, np.ndarray]
    loop_trips: dict[int, int]
    tainted: set[int]

    def by_name(self, g: IRGraph, name: str) -> np.ndarray:
        return self.values[g.by_name[name]]


class SymbolicStore:
    def __init__(self, g: IRGraph):
        self.g = g
        self.arrays: dict[int, np.ndarray] = {}
        for mlid, ml in g.memlocs.items():
            shape = full_shape(g, ml)
            init = g.inits.get(mlid)
            self.arrays[mlid] = (np.zeros(shape, dtype=np_dtype(ml.dtype))
                                 if init is None
                                 else initial_array(init, ml.dtype, shape))

    def read(self, mlid: int) -> np.ndarray:
        return self.arrays[mlid]

    def write(self, mlid: int, arr: np.ndarray) -> None:
        self.arrays[mlid] = arr


class PlannedStore:
    """Backs every variable with the word addresses the plan assigned, in
    the same worker and controller images the simulator starts from."""

    def __init__(self, g: IRGraph, plan: MemPlan):
        self.g = g
        self.plan = plan
        nx, ny = g.grid
        self.worker = np.zeros((nx, ny, plan.footprint["worker"]), dtype=np.uint16)
        ctrl_budget = plan._free["controller"].budget
        self.controller = np.zeros(ctrl_budget, dtype=np.uint16)
        for mlid, ml in g.memlocs.items():
            init = g.inits.get(mlid)
            if init is not None:
                self.write(mlid, initial_array(init, ml.dtype, full_shape(g, ml)))

    def _place(self, mlid: int):
        ml = self.g.memlocs[mlid]
        image = self.controller if ml.placement == "controller" else self.worker
        return image, self.plan.entries[mlid], ml

    def read(self, mlid: int) -> np.ndarray:
        image, e, ml = self._place(mlid)
        return load_words(image, e.offset, e.size_words, ml.dtype,
                          full_shape(self.g, ml))

    def write(self, mlid: int, arr: np.ndarray) -> None:
        image, e, ml = self._place(mlid)
        store_words(image, e.offset, e.size_words, arr, ml.dtype)


class _Break(Exception):
    pass


@dataclass
class _Interp:
    g: IRGraph
    store: object
    loop_trips: dict[int, int] = field(default_factory=dict)

    # -- window helpers -----------------------------------------------------

    def region_of(self, n: IRNode):
        r = n.attrs.get("region")
        if r is not None:
            return r
        if n.dest_slice is not None and n.dest_slice.pe is not None:
            return n.dest_slice.pe
        nx, ny = self.g.grid
        return ((0, nx, 1), (0, ny, 1))

    def mem_slices(self, access, ml: MemLoc, x=None, y=None):
        """Memory-axis slices; per-PE dynamic stop resolved when x, y given."""
        if access is None or not access.mem:
            if ml.mem_shape:
                return tuple(slice(0, d) for d in ml.mem_shape)
            return ()
        out = []
        for ax in access.mem:
            stop = ax.stop
            if stop is None:
                nval = int(self.store.read(self.g.by_name[ax.dyn])[x, y])
                if not ax.start <= nval <= ax.extent:
                    raise SimFault(
                        f"dynamic stop {nval} outside [{ax.start}, {ax.extent}] "
                        f"for axis of extent {ax.extent} at PE ({x}, {y})")
                stop = nval
            out.append(slice(ax.start, stop))
        return tuple(out)

    def fetch_vec(self, a: MemArg, region, x=None, y=None) -> np.ndarray:
        """A vector operand as (RX, RY, L), or flat (L,) per PE when x, y given."""
        ml = self.g.memlocs[a.mlid]
        arr = self.store.read(a.mlid)
        ms = self.mem_slices(a.access, ml, x, y)
        if x is not None:
            return arr[(x, y) + ms].reshape(-1)
        (xs, xe, xst), (ys, ye, yst) = region
        win = arr[(slice(xs, xe, xst), slice(ys, ye, yst)) + ms]
        return win.reshape(win.shape[0], win.shape[1], -1)

    def scalar_value(self, a) -> np.ndarray:
        if isinstance(a, ImmArg):
            return np.asarray(a.value, dtype=np_dtype(a.dtype))
        return np.asarray(self.store.read(a.mlid))

    def fetch_arg(self, a, region, dtype: DType, x=None, y=None):
        if isinstance(a, ImmArg):
            return np.asarray(a.value, dtype=np_dtype(a.dtype))
        if a.klass == "gs":
            return np.asarray(self.store.read(a.mlid))
        if a.klass == "pescalar":
            arr = self.store.read(a.mlid)
            if x is not None:
                return arr[x, y]
            (xs, xe, xst), (ys, ye, yst) = region
            return arr[xs:xe:xst, ys:ye:yst][..., None]
        return self.fetch_vec(a, region, x, y)

    @staticmethod
    def _assign(view: np.ndarray, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=view.dtype)
        if value.ndim == 0 or value.size == view.size:
            if value.ndim and value.size == view.size:
                view[...] = value.reshape(view.shape)
            else:
                view[...] = value
            return
        # per-worker scalar broadcast into a wider window
        assert value.shape[-1] == 1 and value.shape[:2] == view.shape[:2]
        view[...] = value.reshape(view.shape[:2] + (1,) * (view.ndim - 2))

    def write_dest(self, n: IRNode, region, value, x=None, y=None) -> None:
        mlid = n.result_index
        ml = self.g.memlocs[mlid]
        arr = self.store.read(mlid)
        if ml.placement == "controller":
            self.store.write(mlid, np.asarray(value, dtype=np_dtype(ml.dtype)))
            return
        ms = self.mem_slices(n.dest_slice, ml, x, y)
        (xs, xe, xst), (ys, ye, yst) = region
        if x is not None:
            self._assign(arr[(x, y) + ms], value)
        elif ml.var_kind in (VarKind.LS, VarKind.ULS) or (
                not ml.mem_shape and ml.var_kind is None):
            self._assign(arr[xs:xe:xst, ys:ye:yst], value)
        else:
            self._assign(arr[(slice(xs, xe, xst), slice(ys, ye, yst)) + ms], value)
        self.store.write(mlid, arr)

    # -- evaluation ---------------------------------------------------------

    def run(self) -> None:
        for n in self.g.nodes:
            self.eval_node(n)

    def eval_node(self, n: IRNode) -> None:
        op = n.op_name
        if op in ("sg_export", "sg_import"):
            return
        if op == "loop":
            self.eval_loop(n)
            return
        if op == "exit_if":
            a = self.scalar_value(n.args[0])
            b = self.scalar_value(n.args[1])
            if CMPS[n.attrs["cmp"]](a, b):
                raise _Break
            return
        if op == "ga_load":
            ga = self.store.read(n.args[0].mlid)
            if "index" in n.attrs:
                k = n.attrs["index"]
            else:
                k = int(self.store.read(n.args[1].mlid))
            self.store.write(n.result_index, np.asarray(ga[k]))
            return
        if op == "reduce_sum":
            self.eval_reduce(n)
            return
        if op == "shift":
            self.eval_shift(n)
            return
        if op in ("gather", "gather_mul", "scatter"):
            self.eval_gather_scatter(n)
            return
        self.eval_elementwise(n)

    def eval_elementwise(self, n: IRNode) -> None:
        ml = self.g.memlocs[n.result_index]
        dtype = ml.dtype
        nargs = n.args
        dyn_pos = n.attrs.get("dyn_len_arg")
        if dyn_pos is not None:
            nargs = n.args[:dyn_pos]
        if ml.placement == "controller":
            vals = [self.fetch_arg(a, None, dtype) for a in nargs]
            self.store.write(n.result_index, alu(n.op_name, dtype, *vals))
            return
        region = self.region_of(n)
        has_dyn = dyn_pos is not None or (
            n.dest_slice is not None and n.dest_slice.dyn is not None)
        if has_dyn:
            (xs, xe, xst), (ys, ye, yst) = region
            for x in range(xs, xe, xst):
                for y in range(ys, ye, yst):
                    vals = [self.fetch_arg(a, region, dtype, x, y) for a in nargs]
                    self.write_dest(n, region, alu(n.op_name, dtype, *vals), x, y)
            return
        vals = [self.fetch_arg(a, region, dtype) for a in nargs]
        self.write_dest(n, region, alu(n.op_name, dtype, *vals))

    def eval_reduce(self, n: IRNode) -> None:
        src = n.args[0]
        ml = self.g.memlocs[src.mlid]
        region = self.region_of(n)
        (xs, xe, xst), (ys, ye, yst) = region
        arr = self.store.read(src.mlid)
        result = fold_sum(np.concatenate([
            arr[(x, y) + self.mem_slices(src.access, ml, x, y)].reshape(-1)
            for x in range(xs, xe, xst) for y in range(ys, ye, yst)]), ml.dtype)
        dest = self.g.memlocs[n.result_index]
        if dest.placement == "controller":
            self.store.write(n.result_index, np.asarray(result))
        else:  # uls target: every worker holds the value
            out = self.store.read(n.result_index)
            out[...] = result
            self.store.write(n.result_index, out)

    def eval_shift(self, n: IRNode) -> None:
        src = n.args[0]
        sml = self.g.memlocs[src.mlid]
        dml = self.g.memlocs[n.result_index]
        axis, off = n.attrs["axis"], n.attrs["offset"]
        dx, dy = (off, 0) if axis == "row" else (0, off)
        (xs, xe, _), (ys, ye, _) = n.dest_slice.pe
        sarr = self.store.read(src.mlid)
        darr = self.store.read(n.result_index)
        snapshot = sarr.copy()
        for x in range(xs, xe):
            for y in range(ys, ye):
                px, py = x - dx, y - dy
                if not (xs <= px < xe and ys <= py < ye):
                    continue  # boundary keeps its previous contents
                sval = snapshot[(px, py) + self.mem_slices(src.access, sml)]
                if dml.var_kind is VarKind.LA:
                    dview = darr[(x, y) + self.mem_slices(n.dest_slice, dml)]
                    dview[...] = sval.reshape(dview.shape)
                else:
                    darr[x, y] = sval
        self.store.write(n.result_index, darr)

    def eval_gather_scatter(self, n: IRNode) -> None:
        op = n.op_name
        region = self.region_of(n)
        (xs, xe, xst), (ys, ye, yst) = region
        if op == "scatter":
            src_a, idx_a, dst_a = n.args[0], n.args[1], n.args[2]
        elif op == "gather":
            src_a, idx_a = n.args[0], n.args[1]
        else:
            src_a, idx_a, mul_a = n.args[0], n.args[1], n.args[2]
        sml = self.g.memlocs[src_a.mlid]
        iml = self.g.memlocs[idx_a.mlid]
        dml = self.g.memlocs[n.result_index]
        sarr = self.store.read(src_a.mlid)
        iarr = self.store.read(idx_a.mlid)
        darr = self.store.read(n.result_index)
        marr = self.store.read(n.args[2].mlid) if op == "gather_mul" else None
        for x in range(xs, xe, xst):
            for y in range(ys, ye, yst):
                swin = sarr[(x, y) + self.mem_slices(src_a.access, sml, x, y)].reshape(-1)
                idx = iarr[(x, y) + self.mem_slices(idx_a.access, iml, x, y)].reshape(-1)
                if op == "scatter":
                    dview = darr[(x, y) + self.mem_slices(n.dest_slice, dml, x, y)]
                    flat = dview.copy().reshape(-1)
                    for k, j in enumerate(idx):
                        j = int(j)
                        if not 0 <= j < flat.size:
                            raise SimFault(
                                f"scatter index {j} outside window of {flat.size} "
                                f"elements at PE ({x}, {y}), element {k}")
                        flat[j] = swin[k]
                    dview[...] = flat.reshape(dview.shape)
                    continue
                dview = darr[(x, y) + self.mem_slices(n.dest_slice, dml, x, y)]
                mwin = None
                if op == "gather_mul":
                    mwin = marr[(x, y) + self.mem_slices(
                        mul_a.access, self.g.memlocs[mul_a.mlid], x, y)].reshape(-1)
                out = np.empty(idx.size, dtype=darr.dtype)
                with np.errstate(over="ignore"):
                    for k, j in enumerate(idx):
                        j = int(j)
                        if not 0 <= j < swin.size:
                            raise SimFault(
                                f"gather index {j} outside window of {swin.size} "
                                f"elements at PE ({x}, {y}), element {k}")
                        if op == "gather":
                            out[k] = swin[j]
                        else:
                            out[k] = np.asarray(swin[j] * mwin[k], dtype=darr.dtype)
                dview[...] = out.reshape(dview.shape)
        self.store.write(n.result_index, darr)

    def eval_loop(self, n: IRNode) -> None:
        start = n.attrs["start"]
        extent = n.attrs["extent"]
        counter_mlid = n.args[1].mlid
        trips = 0
        try:
            for k in range(start, start + extent):
                self.store.write(counter_mlid, np.asarray(k, dtype=np.int16))
                trips += 1
                for b in n.subgraph.nodes:
                    self.eval_node(b)
        except _Break:
            pass
        self.loop_trips[n.id] = trips


def reduce_taint(g: IRGraph) -> set[int]:
    """Memlocs whose values depend on an f32 reduction result."""
    tainted: set[int] = set()
    changed = True
    while changed:
        changed = False
        for n in ordered_walk(g):
            if n.result_index is None:
                continue
            hit = False
            if n.op_name == "reduce_sum" \
                    and g.memlocs[n.result_index].dtype is DType.F32:
                hit = True
            elif any(isinstance(a, MemArg) and a.mlid in tainted for a in n.args):
                hit = True
            if hit and n.result_index not in tainted:
                tainted.add(n.result_index)
                changed = True
    return tainted


def run(g: IRGraph, plan: MemPlan | None = None) -> RefResult:
    store = SymbolicStore(g) if plan is None else PlannedStore(g, plan)
    interp = _Interp(g, store)
    interp.run()
    # both modes report the same observable set
    values = {mlid: np.asarray(store.read(mlid)) for mlid in observables(g)}
    return RefResult(values, interp.loop_trips, reduce_taint(g))


# absolute guard of the f32 reduction-result comparison, for near-zero values
ABS_TOL = 1e-6


def diff_results(g: IRGraph, a: RefResult, b: RefResult, *,
                 rel: float = 1e-5) -> list[str]:
    """Mismatch report with per-variable tolerance classes.

    Integer variables and untainted f32 compare exactly; variables carrying
    f32 reduction results compare to relative tolerance `rel`, with the
    absolute guard `ABS_TOL` for near-zero values.
    """
    out = []
    for mlid in sorted(a.values):
        ml = g.memlocs[mlid]
        if ml.kind == "temporary":
            continue
        va, vb = a.values[mlid], b.values.get(mlid)
        if vb is None:
            out.append(f"{ml.name}: missing from second result")
            continue
        if va.shape != vb.shape:
            out.append(f"{ml.name}: shape {va.shape} vs {vb.shape}")
            continue
        if ml.dtype is DType.I16 or mlid not in a.tainted:
            same = np.array_equal(va, vb)
        else:
            same = np.allclose(va, vb, rtol=rel, atol=ABS_TOL)
        if not same:
            if va.ndim == 0:
                out.append(f"{ml.name}: {va!r} vs {vb!r}")
            else:
                idx = tuple(int(i) for i in np.unravel_index(
                    int(np.argmax(np.abs(va.astype(np.float64) - vb.astype(np.float64)))),
                    va.shape))
                out.append(f"{ml.name}: values differ, worst at {idx}: "
                           f"{float(va[idx])!r} vs {float(vb[idx])!r}")
    if a.loop_trips != b.loop_trips:
        out.append(f"loop trip counts differ: {a.loop_trips} vs {b.loop_trips}")
    return out
