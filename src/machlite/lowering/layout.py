"""Physical grid layout: tile roles, color assignments, and static routes.

For an nx x ny worker field (both even, >= 2) the fabric is (nx+4) x (ny+3)
tiles.  Rows top to bottom: the upper worker half, the upper reduction row,
the control row, the lower reduction row, the lower worker half.  Worker
columns occupy x in [2, nx+2); the two columns on each edge are free for
control-row response tiles.

The control row holds the merge tile and the executive tile side by side at
the center, flanked by response tiles working outward in drain order
(left-inner, right-inner, left-next, right-next, ...).

Routes are expressed per tile per color as a ring of states; a state maps an
input port to one or more output ports.  Ports: C (the tile's own processor),
L, R (x-1, x+1), U, D (y-1, y+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import CompileError, Diagnostic

# Color channel ids (the fabric provides 24; we use 15).
CTRL_DRAIN = 0      # response -> merge: RPC id chunks
ARGS_DRAIN = 1      # response -> merge: argument word chunks
CTRL_BCAST = 2      # merge -> field: RPC id stream
ARGS_BCAST = 3      # merge -> field: argument stream
WAKE = 4            # executive -> responses: section index, splices, go
ACK = 5             # merge -> executive: section drain complete
RED_COL = 6         # reduction stage 1: worker columns into reduction rows
RED_ROW = 7         # reduction stage 2: along reduction rows to inner tiles
RED_UP_E = 8        # reduction stage 3: upper-right inner tile to final tile
RED_UP_S = 9        # reduction stage 3: lower inner pair to final tile
RED_BCAST = 10      # reduction stage 4: final tile to every worker
RED_CTRL = 11       # reduction stage 4: final tile to the executive
SHIFT_A = 12        # neighbor exchange: phase-A transmit, phase-B receive
SHIFT_B = 13        # neighbor exchange: phase-B transmit, phase-A receive
LOOPBACK = 14       # self-routed index stream for gather/scatter
N_COLORS = 24

COLOR_NAMES = {
    CTRL_DRAIN: "ctrl_drain", ARGS_DRAIN: "args_drain",
    CTRL_BCAST: "ctrl_bcast", ARGS_BCAST: "args_bcast",
    WAKE: "wake", ACK: "ack",
    RED_COL: "red_col", RED_ROW: "red_row",
    RED_UP_E: "red_up_e", RED_UP_S: "red_up_s",
    RED_BCAST: "red_bcast", RED_CTRL: "red_ctrl",
    SHIFT_A: "shift_a", SHIFT_B: "shift_b",
    LOOPBACK: "loopback",
}
COLOR_IDS = {v: k for k, v in COLOR_NAMES.items()}

EXEC, MERGE, RESP, WORKER, REDUCE, SPINE, UNUSED = (
    "exec", "merge", "resp", "worker", "reduce", "spine", "unused")


def ring(*states):
    """Build a route ring; each state is a dict {in_port: (out, ...)}."""
    return tuple(tuple(sorted((i, tuple(o)) for i, o in st.items())) for st in states)


@dataclass
class FabricLayout:
    nx: int
    ny: int
    n_resp: int
    gw: int = 0
    gh: int = 0
    yru: int = 0              # upper reduction row
    yc: int = 0               # control row
    yrl: int = 0              # lower reduction row
    xm: int = 0               # merge column
    xe: int = 0               # executive column
    roles: dict = field(default_factory=dict)
    routes: dict = field(default_factory=dict)
    resp_order: list = field(default_factory=list)
    role_params: dict = field(default_factory=dict)

    @property
    def merge_xy(self):
        return (self.xm, self.yc)

    def fabric_of(self, wx: int, wy: int):
        """Fabric coordinates of worker (wx, wy)."""
        fy = wy if wy < self.ny // 2 else wy + 3
        return (wx + 2, fy)

    def worker_of(self, x: int, y: int):
        """Worker coordinates of a fabric tile, or None."""
        if not 2 <= x < self.nx + 2:
            return None
        if y < self.ny // 2:
            return (x - 2, y)
        if self.yrl < y < self.gh:
            return (x - 2, y - 3)
        return None

    def phase(self, wx: int, wy: int) -> int:
        return (wx + wy) % 2

    def workers(self):
        for wx in range(self.nx):
            for wy in range(self.ny):
                yield wx, wy


def _add(routes, xy, color, rr):
    routes.setdefault(xy, {})[color] = rr


def build_layout(nx: int, ny: int, n_resp: int = 4) -> FabricLayout:
    if nx < 2 or ny < 2 or nx % 2 or ny % 2:
        raise CompileError([Diagnostic("error", f"worker grid {nx}x{ny} must be even and at least 2x2")])
    if n_resp < 2 or n_resp % 2:
        raise CompileError([Diagnostic("error", f"response tile count {n_resp} must be even and at least 2")])
    lay = FabricLayout(nx=nx, ny=ny, n_resp=n_resp)
    lay.gw, lay.gh = nx + 4, ny + 3
    half = ny // 2
    lay.yru, lay.yc, lay.yrl = half, half + 1, half + 2
    lay.xm = 2 + nx // 2 - 1
    lay.xe = lay.xm + 1
    per_side = n_resp // 2
    if lay.xm - per_side < 0 or lay.xe + per_side >= lay.gw:
        raise CompileError([Diagnostic(
            "error",
            f"{n_resp} response tiles do not fit the control row of a {nx}x{ny} field")])

    roles, routes, params = lay.roles, lay.routes, lay.role_params
    for x in range(lay.gw):
        for y in range(lay.gh):
            roles[(x, y)] = UNUSED

    # Drain order alternates sides inside-out.
    for k in range(n_resp):
        side = k % 2                      # 0 left of merge, 1 right of exec
        step = k // 2 + 1
        xy = (lay.xm - step, lay.yc) if side == 0 else (lay.xe + step, lay.yc)
        lay.resp_order.append(xy)
        roles[xy] = RESP
        last = k + 2 >= n_resp
        params[xy] = {"position": k, "side": "left" if side == 0 else "right",
                      "last_on_side": last}
    roles[(lay.xm, lay.yc)] = MERGE
    roles[(lay.xe, lay.yc)] = EXEC
    for x in range(2, nx + 2):
        roles[(x, lay.yru)] = REDUCE
        roles[(x, lay.yrl)] = REDUCE
        if roles[(x, lay.yc)] == UNUSED:
            roles[(x, lay.yc)] = SPINE
    for wx, wy in lay.workers():
        roles[lay.fabric_of(wx, wy)] = WORKER

    _control_routes(lay)
    _broadcast_routes(lay)
    _reduction_routes(lay)
    _shift_routes(lay)
    _worker_local_routes(lay)
    _role_params(lay)
    return lay


def _control_routes(lay: FabricLayout) -> None:
    xm, xe, yc = lay.xm, lay.xe, lay.yc
    # Wake: executive to both response flanks; the merge consumes a copy.
    _add(lay.routes, (xe, yc), WAKE, ring({"C": ("L", "R")}))
    _add(lay.routes, (xm, yc), WAKE, ring({"R": ("C", "L")}))
    for xy in lay.resp_order:
        p = lay.role_params[xy]
        inward = "R" if p["side"] == "left" else "L"
        outs = ("C",) if _last_outward(lay, xy) else ("C", _opp(inward))
        _add(lay.routes, xy, WAKE, ring({inward: outs}))
    # Ack: merge back to the executive.
    _add(lay.routes, (xm, yc), ACK, ring({"C": ("R",)}))
    _add(lay.routes, (xe, yc), ACK, ring({"L": ("C",)}))
    # Drain rings: state 0 sends the tile's own chunk toward the merge,
    # state 1 lets the outward neighbor's chunk flow through.  Advanced
    # in-band by the terminator wavelets each response appends to its chunk.
    for xy in lay.resp_order:
        p = lay.role_params[xy]
        inward = "R" if p["side"] == "left" else "L"   # direction of the merge
        outward = _opp(inward)
        for color in (CTRL_DRAIN, ARGS_DRAIN):
            _add(lay.routes, xy, color, ring({"C": (inward,)}, {outward: (inward,)}))
    for color in (CTRL_DRAIN, ARGS_DRAIN):
        # right-flank chunks pass through the executive on their way in
        _add(lay.routes, (xe, yc), color, ring({"R": ("L",)}))
        _add(lay.routes, (xm, yc), color, ring({"L": ("C",)}, {"R": ("C",)}))


def _last_outward(lay, xy) -> bool:
    return lay.role_params[xy]["last_on_side"]


def _opp(d: str) -> str:
    return {"L": "R", "R": "L", "U": "D", "D": "U"}[d]


def _broadcast_routes(lay: FabricLayout) -> None:
    """Merge egress up/down to the reduction rows, along them, into columns."""
    xm, yru, yrl = lay.xm, lay.yru, lay.yrl
    for color in (CTRL_BCAST, ARGS_BCAST):
        _add(lay.routes, (xm, lay.yc), color, ring({"C": ("U", "D")}))
        for y, into in ((yru, "U"), (yrl, "D")):
            feed = "D" if y == yru else "U"   # side facing the merge
            _add(lay.routes, (xm, y), color, ring({feed: _spread_outs(lay, into, True)}))
            for x in range(2, lay.nx + 2):
                if x == xm:
                    continue
                _add(lay.routes, (x, y), color, ring({_row_in(lay, x): _row_outs(lay, x, into)}))
        _feed_columns(lay, color)


def _row_in(lay, x) -> str:
    """Input side of a reduction-row tile for streams spreading from the merge column."""
    return "R" if x < lay.xm else "L"


def _spread_outs(lay, into: str, consume: bool) -> tuple:
    """Outputs at the merge-column tile that fans a stream along its row."""
    outs = ["C"] if consume else []
    if lay.xm > 2:
        outs.append("L")
    outs.append("R")
    outs.append(into)
    return tuple(outs)


def _row_outs(lay, x, into) -> tuple:
    outs = ["C"]
    if (x < lay.xm and x > 2) or (x > lay.xm and x < lay.nx + 1):
        outs.append(_opp(_row_in(lay, x)))
    outs.append(into)
    return tuple(outs)


def _feed_columns(lay: FabricLayout, color: int) -> None:
    for wx in range(lay.nx):
        x = wx + 2
        for wy in range(lay.ny):
            _, fy = lay.fabric_of(wx, wy)
            if wy < lay.ny // 2:
                outs = ("C",) if wy == 0 else ("C", "U")
                _add(lay.routes, (x, fy), color, ring({"D": outs}))
            else:
                outs = ("C",) if wy == lay.ny - 1 else ("C", "D")
                _add(lay.routes, (x, fy), color, ring({"U": outs}))


def _reduction_routes(lay: FabricLayout) -> None:
    xm, xe, yru, yrl, yc = lay.xm, lay.xe, lay.yru, lay.yrl, lay.yc
    # Stage 1: columns drain toward the nearer reduction row, closest first.
    for wx in range(lay.nx):
        x = wx + 2
        for wy in range(lay.ny):
            _, fy = lay.fabric_of(wx, wy)
            if wy < lay.ny // 2:
                _add(lay.routes, (x, fy), RED_COL, ring({"C": ("D",)}, {"U": ("D",)}))
            else:
                _add(lay.routes, (x, fy), RED_COL, ring({"C": ("U",)}, {"D": ("U",)}))
        _add(lay.routes, (x, yru), RED_COL, ring({"U": ("C",)}))
        _add(lay.routes, (x, yrl), RED_COL, ring({"D": ("C",)}))
    # Stage 2: row halves drain to the two inner tiles of each row.
    for y in (yru, yrl):
        for x in range(2, xm):
            _add(lay.routes, (x, y), RED_ROW, ring({"C": ("R",)}, {"L": ("R",)}))
        for x in range(xe + 1, lay.nx + 2):
            _add(lay.routes, (x, y), RED_ROW, ring({"C": ("L",)}, {"R": ("L",)}))
        _add(lay.routes, (xm, y), RED_ROW, ring({"L": ("C",)}))
        _add(lay.routes, (xe, y), RED_ROW, ring({"R": ("C",)}))
    # Stage 3 into the final tile (xm, yru): upper-right comes straight across;
    # the lower pair chains through the lower-left tile and up the merge column.
    _add(lay.routes, (xe, yru), RED_UP_E, ring({"C": ("L",)}))
    _add(lay.routes, (xm, yru), RED_UP_E, ring({"R": ("C",)}))
    _add(lay.routes, (xe, yrl), RED_UP_S, ring({"C": ("L",)}))
    _add(lay.routes, (xm, yrl), RED_UP_S, ring({"C": ("U",)}, {"R": ("U",)}))
    _add(lay.routes, (xm, yc), RED_UP_S, ring({"D": ("U",)}))
    _add(lay.routes, (xm, yru), RED_UP_S, ring({"D": ("C",)}))
    # Stage 4a: broadcast to every worker, tree mirroring the args broadcast.
    _add(lay.routes, (xm, yru), RED_BCAST, ring({"C": _spread_outs(lay, "U", False) + ("D",)}))
    _add(lay.routes, (xm, yc), RED_BCAST, ring({"U": ("D",)}))
    _add(lay.routes, (xm, yrl), RED_BCAST, ring({"U": _spread_outs(lay, "D", False)}))
    for y, into in ((yru, "U"), (yrl, "D")):
        for x in range(2, lay.nx + 2):
            if x == xm:
                continue
            outs = tuple(o for o in _row_outs(lay, x, into) if o != "C")
            _add(lay.routes, (x, y), RED_BCAST, ring({_row_in(lay, x): outs}))
    _feed_columns(lay, RED_BCAST)
    # Stage 4b: scalar targets travel to the executive instead.
    _add(lay.routes, (xm, yru), RED_CTRL, ring({"C": ("D",)}))
    _add(lay.routes, (xm, yc), RED_CTRL, ring({"U": ("R",)}))
    _add(lay.routes, (xe, yc), RED_CTRL, ring({"L": ("C",)}))


def _shift_routes(lay: FabricLayout) -> None:
    send = [{"C": ("R",)}, {"C": ("D",)}, {"C": ("L",)}, {"C": ("U",)}]
    recv = [{"L": ("C",)}, {"U": ("C",)}, {"R": ("C",)}, {"D": ("C",)}]
    for wx, wy in lay.workers():
        xy = lay.fabric_of(wx, wy)
        a, b = (send, recv) if lay.phase(wx, wy) == 0 else (recv, send)
        _add(lay.routes, xy, SHIFT_A, ring(*a))
        _add(lay.routes, xy, SHIFT_B, ring(*b))
    # Vertical pass-through across the three-strip for column shifts.
    for x in range(2, lay.nx + 2):
        for y in (lay.yru, lay.yc, lay.yrl):
            for color in (SHIFT_A, SHIFT_B):
                _add(lay.routes, (x, y), color, ring({"U": ("D",), "D": ("U",)}))


def _worker_local_routes(lay: FabricLayout) -> None:
    for wx, wy in lay.workers():
        _add(lay.routes, lay.fabric_of(wx, wy), LOOPBACK, ring({"C": ("C",)}))


def _role_params(lay: FabricLayout) -> None:
    half = lay.ny // 2
    for wx, wy in lay.workers():
        xy = lay.fabric_of(wx, wy)
        upper = wy < half
        lay.role_params[xy] = {
            "wx": wx, "wy": wy, "phase": lay.phase(wx, wy), "upper": upper,
            # the column's farthest-from-strip worker closes the stage-1 drain
            "col_end": wy == 0 if upper else wy == lay.ny - 1,
        }
    for y, row in ((lay.yru, "upper"), (lay.yrl, "lower")):
        for x in range(2, lay.nx + 2):
            p = {"row": row, "wx": x - 2}
            if x < lay.xm:
                p["seg"] = "left"
                p["seg_end"] = x == 2
            elif x > lay.xe:
                p["seg"] = "right"
                p["seg_end"] = x == lay.nx + 1
            else:
                p["seg"] = "inner"
                p["corner"] = ("final" if (x, y) == (lay.xm, lay.yru) else
                               "ur" if (x, y) == (lay.xe, lay.yru) else
                               "ll" if (x, y) == (lay.xm, lay.yrl) else "lr")
            # upstream tiles feeding this one in stage 2
            p["seg_feed"] = (lay.xm - 2 if p["seg"] == "inner" and x == lay.xm
                             else lay.nx + 1 - lay.xe if p["seg"] == "inner"
                             else 0)
            lay.role_params[(x, y)] = p
