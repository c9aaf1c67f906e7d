"""Unified-memory reference interpreter for IR graphs.

Walks nodes in id order, reading and writing one numpy array per memloc in
place.  Two storage modes:

* symbolic: each array is a fresh array of its own.
* planned: each array is a live view (`memwords.word_view`) of the words at
  the absolute address a MemPlan assigned, in the images
  `memwords.initial_images` builds for the simulator too.  A planner bug
  that overlaps live allocations shows up as corrupted values against the
  symbolic run.

f32 reductions accumulate sequentially in float32, workers in C-order over
(x, y) and elements in memory order; that ordering is the definition other
backends are measured against.  The per-PE rules come from `memwords`, as
the simulator's do: the ALU, the reduction fold, the gather and scatter
moves, the index and dynamic-stop checks and the shift pairing.  The walk
stops at the first fault in (node, x, y, element) order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    CMPS, alu, check_index, check_stop, fold_sum, gather, initial_images,
    np_dtype, scatter, shift_ends, word_view)


@dataclass
class RefResult:
    values: dict[int, np.ndarray]
    loop_trips: dict[int, int]
    tainted: set[int]

    def by_name(self, g: IRGraph, name: str) -> np.ndarray:
        return self.values[g.by_name[name]]


def memory(g: IRGraph, plan: MemPlan | None = None) -> dict[int, np.ndarray]:
    """Each memloc's logical array, holding its initializer: a fresh array
    (symbolic), or a view of the words at its planned address in the
    images the simulator starts from (planned), which hold the plan's
    spans and nothing else."""
    if plan is None:
        arrays = {mlid: np.zeros(full_shape(g, ml), dtype=np_dtype(ml.dtype))
                  for mlid, ml in g.memlocs.items()}
        for mlid, init in g.inits.items():
            arrays[mlid][...] = init
        return arrays
    place = {mlid: (ml.placement, plan.address_words(mlid), ml.size_words,
                    ml.dtype, full_shape(g, ml))
             for mlid, ml in g.memlocs.items() if mlid in plan.entries}
    worker, ctrl = initial_images(
        *g.grid, plan.spans("worker"),
        (place[mlid] + (init,) for mlid, init in g.inits.items()))
    return {mlid: word_view(ctrl if space == "controller" else worker, *rest)
            for mlid, (space, *rest) in place.items()}


class _Break(Exception):
    pass


@dataclass
class _Interp:
    g: IRGraph
    arrays: dict[int, np.ndarray]
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
                stop = check_stop(int(self.arrays[self.g.by_name[ax.dyn]][x, y]),
                                  ax.start, ax.extent, x, y)
            out.append(slice(ax.start, stop))
        return tuple(out)

    def fetch_vec(self, a: MemArg, region, x=None, y=None) -> np.ndarray:
        """A vector operand as (RX, RY, L), or flat (L,) per PE when x, y given."""
        ml = self.g.memlocs[a.mlid]
        arr = self.arrays[a.mlid]
        ms = self.mem_slices(a.access, ml, x, y)
        if x is not None:
            return arr[(x, y) + ms].reshape(-1)
        (xs, xe, xst), (ys, ye, yst) = region
        win = arr[(slice(xs, xe, xst), slice(ys, ye, yst)) + ms]
        return win.reshape(win.shape[0], win.shape[1], -1)

    def scalar_value(self, a) -> np.ndarray:
        if isinstance(a, ImmArg):
            return np.asarray(a.value, dtype=np_dtype(a.dtype))
        return self.arrays[a.mlid]

    def fetch_arg(self, a, region, dtype: DType, x=None, y=None):
        if isinstance(a, ImmArg):
            return np.asarray(a.value, dtype=np_dtype(a.dtype))
        if a.klass == "gs":
            return self.arrays[a.mlid]
        if a.klass == "pescalar":
            arr = self.arrays[a.mlid]
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
        ml = self.g.memlocs[n.result_index]
        arr = self.arrays[n.result_index]
        if ml.placement == "controller":
            arr[...] = value
            return
        ms = self.mem_slices(n.dest_slice, ml, x, y)
        if x is not None:
            self._assign(arr[(x, y) + ms], value)
        else:
            (xs, xe, xst), (ys, ye, yst) = region
            self._assign(arr[(slice(xs, xe, xst), slice(ys, ye, yst)) + ms], value)

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
            ga = self.arrays[n.args[0].mlid]
            if "index" in n.attrs:
                k = n.attrs["index"]
            else:
                k = int(self.arrays[n.args[1].mlid])
            self.arrays[n.result_index][...] = ga[k]
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
            self.arrays[n.result_index][...] = alu(n.op_name, dtype, *vals)
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
        arr = self.arrays[src.mlid]
        result = fold_sum(np.concatenate([
            arr[(x, y) + self.mem_slices(src.access, ml, x, y)].reshape(-1)
            for x in range(xs, xe, xst) for y in range(ys, ye, yst)]), ml.dtype)
        # a gs target holds the value; a uls target, every worker
        self.arrays[n.result_index][...] = result

    def eval_shift(self, n: IRNode) -> None:
        src = n.args[0]
        sml = self.g.memlocs[src.mlid]
        dml = self.g.memlocs[n.result_index]
        axis, off = n.attrs["axis"], n.attrs["offset"]
        dx, dy = (off, 0) if axis == "row" else (0, off)
        (xs, xe, _), (ys, ye, _) = n.dest_slice.pe
        darr = self.arrays[n.result_index]
        snapshot = self.arrays[src.mlid].copy()
        for x in range(xs, xe):
            for y in range(ys, ye):
                if not shift_ends(x, y, dx, dy, xs, xe, ys, ye)[1]:
                    continue  # boundary keeps its previous contents
                sval = snapshot[(x - dx, y - dy) + self.mem_slices(src.access, sml)]
                if dml.var_kind is VarKind.LA:
                    dview = darr[(x, y) + self.mem_slices(n.dest_slice, dml)]
                    dview[...] = sval.reshape(dview.shape)
                else:
                    darr[x, y] = sval

    def eval_gather_scatter(self, n: IRNode) -> None:
        """Gather or `gather_mul` from the window of args[0] at the indices
        of args[1] (times args[2]), or scatter args[0] into the
        destination window at the indices of args[1]."""
        op = n.op_name
        (xs, xe, xst), (ys, ye, yst) = self.region_of(n)

        def window(mlid, access, x, y):
            ml = self.g.memlocs[mlid]
            return self.arrays[mlid][(x, y) + self.mem_slices(access, ml, x, y)]
        for x in range(xs, xe, xst):
            for y in range(ys, ye, yst):
                src, idx = (window(a.mlid, a.access, x, y) for a in n.args[:2])
                dst = window(n.result_index, n.dest_slice, x, y)
                if op == "scatter":
                    check_index(op, idx, dst.size, x, y)
                    scatter(dst, idx, src)
                else:
                    check_index(op, idx, src.size, x, y)
                    mul = (window(n.args[2].mlid, n.args[2].access, x, y)
                           if op == "gather_mul" else None)
                    dst[...] = gather(src, idx, mul).reshape(dst.shape)

    def eval_loop(self, n: IRNode) -> None:
        start = n.attrs["start"]
        extent = n.attrs["extent"]
        counter_mlid = n.args[1].mlid
        trips = 0
        try:
            for k in range(start, start + extent):
                self.arrays[counter_mlid][...] = k
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
    arrays = memory(g, plan)
    interp = _Interp(g, arrays)
    interp.run()
    # both modes report the same observable set, as copies that alias no image
    values = {mlid: arrays[mlid].copy() for mlid in observables(g, plan)}
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
            same = np.array_equal(va, vb, equal_nan=True)
        else:
            same = np.allclose(va, vb, rtol=rel, atol=ABS_TOL, equal_nan=True)
        if not same:
            if va.ndim == 0:
                out.append(f"{ml.name}: {va!r} vs {vb!r}")
            else:
                fa, fb = va.astype(np.float64), vb.astype(np.float64)
                # equal positions, NaN or inf on both sides among them, keep
                # gap 0 and are not subtracted; argmax ranks a NaN gap first
                gap = np.zeros(fa.shape)
                np.subtract(fa, fb, out=gap, where=~((fa == fb) | (np.isnan(fa) & np.isnan(fb))))
                idx = tuple(int(i) for i in np.unravel_index(
                    int(np.argmax(np.abs(gap))), va.shape))
                out.append(f"{ml.name}: values differ, worst at {idx}: "
                           f"{float(va[idx])!r} vs {float(vb[idx])!r}")
    if a.loop_trips != b.loop_trips:
        out.append(f"loop trip counts differ: {a.loop_trips} vs {b.loop_trips}")
    return out
