"""Physical grid layout: tile roles, color assignments, and static routes.

For an nx x ny worker field (both even, >= 2) the fabric is (nx+4) x (ny+3)
tiles.  Rows top to bottom: the upper worker half, the upper reduction row,
the control row, the lower reduction row, the lower worker half.  Worker
columns occupy x in [2, nx+2); the two columns on each edge are free for
control-row response tiles.

The control row holds the merge tile and the executive tile side by side at
the center, flanked by response tiles working outward in drain order
(left-inner, right-inner, left-next, right-next, ...).

Routes are expressed per tile per color as a ring of states; a state maps one
input port to one or more output ports.  Ports: C (the tile's own processor),
L, R (x-1, x+1), U, D (y-1, y+1).  Only the drains and the reduction chains
have rings of more than one state, which their control wavelets step; every
other route, the shifts' included, is static.

A layout depends on (nx, ny, n_resp) alone: a program adds only RPCs,
sections and memory.  So a layout is a frozen value shared per
(nx, ny, n_resp): `build_layout` builds it on the first request for that key
and returns the same object after, and every program and machine on the
grid reads it and none mutates it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..diagnostics import CompileError, Diagnostic

# Color channel ids (the fabric provides 24; we use 21).
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
SHIFT_E0, SHIFT_E1 = 12, 13     # neighbor exchange east, sent by phase 0 / 1
LOOPBACK = 14       # self-routed index stream for gather/scatter
SHIFT_S0, SHIFT_S1 = 15, 16     # neighbor exchange south
SHIFT_W0, SHIFT_W1 = 17, 18     # neighbor exchange west
SHIFT_N0, SHIFT_N1 = 19, 20     # neighbor exchange north
N_COLORS = 24

# SHIFT_COLOR[(dx, dy), phase]: the color a worker of that phase sends a
# shift by (dx, dy) on, and the one its neighbor at +(dx, dy) receives on;
# SHIFT_PORT[(dx, dy)] is the port the words leave the sender by
SHIFT_COLOR = {
    ((1, 0), 0): SHIFT_E0, ((1, 0), 1): SHIFT_E1,
    ((0, 1), 0): SHIFT_S0, ((0, 1), 1): SHIFT_S1,
    ((-1, 0), 0): SHIFT_W0, ((-1, 0), 1): SHIFT_W1,
    ((0, -1), 0): SHIFT_N0, ((0, -1), 1): SHIFT_N1,
}
SHIFT_PORT = {(1, 0): "R", (0, 1): "D", (-1, 0): "L", (0, -1): "U"}

COLOR_NAMES = {
    CTRL_DRAIN: "ctrl_drain", ARGS_DRAIN: "args_drain",
    CTRL_BCAST: "ctrl_bcast", ARGS_BCAST: "args_bcast",
    WAKE: "wake", ACK: "ack",
    RED_COL: "red_col", RED_ROW: "red_row",
    RED_UP_E: "red_up_e", RED_UP_S: "red_up_s",
    RED_BCAST: "red_bcast", RED_CTRL: "red_ctrl",
    SHIFT_E0: "shift_e0", SHIFT_E1: "shift_e1", LOOPBACK: "loopback",
    SHIFT_S0: "shift_s0", SHIFT_S1: "shift_s1", SHIFT_W0: "shift_w0",
    SHIFT_W1: "shift_w1", SHIFT_N0: "shift_n0", SHIFT_N1: "shift_n1",
}
COLOR_IDS = {v: k for k, v in COLOR_NAMES.items()}

EXEC, MERGE, RESP, WORKER, REDUCE, SPINE, UNUSED = (
    "exec", "merge", "resp", "worker", "reduce", "spine", "unused")


def ring(*states):
    """Build a route ring; each state is a dict {in_port: (out, ...)} of
    one input port, stored as the pair (in_port, (out, ...)).

    Rings are shared values: every tile of a layout that routes a colour
    the same way holds the same tuple, and no holder mutates it.
    """
    for st in states:
        if len(st) != 1:
            raise ValueError(f"route state {st} has {len(st)} input ports, not one")
    return tuple((i, tuple(o)) for st in states for i, o in st.items())


def _ring_pool():
    """`ring` for one layout: an equal ring comes back as the same tuple."""
    seen: dict = {}

    def shared(*states):
        rr = ring(*states)
        return seen.setdefault(rr, rr)
    return shared


@dataclass(frozen=True, eq=False)
class FabricLayout:
    """Tile roles, colour routes and role parameters of one worker grid.

    A frozen value shared per (nx, ny, n_resp) (see `build_layout`):
    assigning a field raises, and no holder mutates its maps, lists or rings.
    Equality is identity, as for any value made once per key.
    """
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

    def phase(self, wx: int, wy: int) -> int:
        return (wx + wy) % 2

    def workers(self):
        for wx in range(self.nx):
            for wy in range(self.ny):
                yield wx, wy


def _add(routes, xy, color, rr):
    routes.setdefault(xy, {})[color] = rr


# layouts kept; a compile pass over many programs meets a handful of grids
LAYOUT_CACHE_SIZE = 32


def build_layout(nx: int, ny: int, n_resp: int = 4) -> FabricLayout:
    """The shared layout of an nx x ny worker field with n_resp response
    tiles: built on the first request for the key, the same object after."""
    # positional here, so that keyword and default arguments share a key
    return _layout(nx, ny, n_resp)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(nx: int, ny: int, n_resp: int) -> FabricLayout:
    if nx < 2 or ny < 2 or nx % 2 or ny % 2:
        raise CompileError([Diagnostic(f"worker grid {nx}x{ny} must be even and at least 2x2")])
    if n_resp < 2 or n_resp % 2:
        raise CompileError([Diagnostic(f"response tile count {n_resp} must be even and at least 2")])
    gw, half = nx + 4, ny // 2
    xm = 2 + nx // 2 - 1
    xe = xm + 1
    per_side = n_resp // 2
    if xm - per_side < 0 or xe + per_side >= gw:
        raise CompileError([Diagnostic(
            f"{n_resp} response tiles do not fit the control row of a {nx}x{ny} field")])
    lay = FabricLayout(nx=nx, ny=ny, n_resp=n_resp, gw=gw, gh=ny + 3,
                       yru=half, yc=half + 1, yrl=half + 2, xm=xm, xe=xe)

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

    # equal rings are one tuple; the per-worker loops reuse rings built before them
    shared = _ring_pool()
    _control_routes(lay, shared)
    _broadcast_routes(lay, shared)
    _reduction_routes(lay, shared)
    _shift_routes(lay, shared)
    _worker_local_routes(lay, shared)
    _role_params(lay)
    return lay


def _control_routes(lay: FabricLayout, shared) -> None:
    xm, xe, yc = lay.xm, lay.xe, lay.yc
    # Wake: executive to both response flanks; the merge consumes a copy.
    _add(lay.routes, (xe, yc), WAKE, shared({"C": ("L", "R")}))
    _add(lay.routes, (xm, yc), WAKE, shared({"R": ("C", "L")}))
    for xy in lay.resp_order:
        p = lay.role_params[xy]
        inward = "R" if p["side"] == "left" else "L"
        outs = ("C",) if _last_outward(lay, xy) else ("C", _opp(inward))
        _add(lay.routes, xy, WAKE, shared({inward: outs}))
    # Ack: merge back to the executive.
    _add(lay.routes, (xm, yc), ACK, shared({"C": ("R",)}))
    _add(lay.routes, (xe, yc), ACK, shared({"L": ("C",)}))
    # Drain rings: state 0 sends the tile's own chunk toward the merge,
    # state 1 lets the outward neighbor's chunk flow through.  Advanced
    # in-band by the terminator wavelets each response appends to its chunk.
    for xy in lay.resp_order:
        p = lay.role_params[xy]
        inward = "R" if p["side"] == "left" else "L"   # direction of the merge
        outward = _opp(inward)
        for color in (CTRL_DRAIN, ARGS_DRAIN):
            _add(lay.routes, xy, color, shared({"C": (inward,)}, {outward: (inward,)}))
    for color in (CTRL_DRAIN, ARGS_DRAIN):
        # right-flank chunks pass through the executive on their way in
        _add(lay.routes, (xe, yc), color, shared({"R": ("L",)}))
        _add(lay.routes, (xm, yc), color, shared({"L": ("C",)}, {"R": ("C",)}))


def _last_outward(lay, xy) -> bool:
    return lay.role_params[xy]["last_on_side"]


def _opp(d: str) -> str:
    return {"L": "R", "R": "L", "U": "D", "D": "U"}[d]


def _broadcast_routes(lay: FabricLayout, shared) -> None:
    """Merge egress up/down to the reduction rows, along them, into columns."""
    xm, yru, yrl = lay.xm, lay.yru, lay.yrl
    for color in (CTRL_BCAST, ARGS_BCAST):
        _add(lay.routes, (xm, lay.yc), color, shared({"C": ("U", "D")}))
        for y, into in ((yru, "U"), (yrl, "D")):
            feed = "D" if y == yru else "U"   # side facing the merge
            _add(lay.routes, (xm, y), color, shared({feed: _spread_outs(lay, into, True)}))
            for x in range(2, lay.nx + 2):
                if x == xm:
                    continue
                _add(lay.routes, (x, y), color, shared({_row_in(lay, x): _row_outs(lay, x, into)}))
        _feed_columns(lay, shared, color)


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


def _feed_columns(lay: FabricLayout, shared, color: int) -> None:
    # down from the upper row (the top worker ends the column), up from the lower
    upper, upper_end = shared({"D": ("C", "U")}), shared({"D": ("C",)})
    lower, lower_end = shared({"U": ("C", "D")}), shared({"U": ("C",)})
    for wx in range(lay.nx):
        x = wx + 2
        for wy in range(lay.ny):
            _, fy = lay.fabric_of(wx, wy)
            if wy < lay.ny // 2:
                rr = upper_end if wy == 0 else upper
            else:
                rr = lower_end if wy == lay.ny - 1 else lower
            _add(lay.routes, (x, fy), color, rr)


def _reduction_routes(lay: FabricLayout, shared) -> None:
    xm, xe, yru, yrl, yc = lay.xm, lay.xe, lay.yru, lay.yrl, lay.yc
    # Stage 1: columns drain toward the nearer reduction row, closest first.
    down, up = shared({"C": ("D",)}, {"U": ("D",)}), shared({"C": ("U",)}, {"D": ("U",)})
    into_upper, into_lower = shared({"U": ("C",)}), shared({"D": ("C",)})
    for wx in range(lay.nx):
        x = wx + 2
        for wy in range(lay.ny):
            _, fy = lay.fabric_of(wx, wy)
            _add(lay.routes, (x, fy), RED_COL, down if wy < lay.ny // 2 else up)
        _add(lay.routes, (x, yru), RED_COL, into_upper)
        _add(lay.routes, (x, yrl), RED_COL, into_lower)
    # Stage 2: row halves drain to the two inner tiles of each row.
    right, left = shared({"C": ("R",)}, {"L": ("R",)}), shared({"C": ("L",)}, {"R": ("L",)})
    for y in (yru, yrl):
        for x in range(2, xm):
            _add(lay.routes, (x, y), RED_ROW, right)
        for x in range(xe + 1, lay.nx + 2):
            _add(lay.routes, (x, y), RED_ROW, left)
        _add(lay.routes, (xm, y), RED_ROW, shared({"L": ("C",)}))
        _add(lay.routes, (xe, y), RED_ROW, shared({"R": ("C",)}))
    # Stage 3 into the final tile (xm, yru): upper-right comes straight across;
    # the lower pair chains through the lower-left tile and up the merge column.
    _add(lay.routes, (xe, yru), RED_UP_E, shared({"C": ("L",)}))
    _add(lay.routes, (xm, yru), RED_UP_E, shared({"R": ("C",)}))
    _add(lay.routes, (xe, yrl), RED_UP_S, shared({"C": ("L",)}))
    _add(lay.routes, (xm, yrl), RED_UP_S, shared({"C": ("U",)}, {"R": ("U",)}))
    _add(lay.routes, (xm, yc), RED_UP_S, shared({"D": ("U",)}))
    _add(lay.routes, (xm, yru), RED_UP_S, shared({"D": ("C",)}))
    # Stage 4a: broadcast to every worker, tree mirroring the args broadcast.
    _add(lay.routes, (xm, yru), RED_BCAST, shared({"C": _spread_outs(lay, "U", False) + ("D",)}))
    _add(lay.routes, (xm, yc), RED_BCAST, shared({"U": ("D",)}))
    _add(lay.routes, (xm, yrl), RED_BCAST, shared({"U": _spread_outs(lay, "D", False)}))
    for y, into in ((yru, "U"), (yrl, "D")):
        for x in range(2, lay.nx + 2):
            if x == xm:
                continue
            outs = tuple(o for o in _row_outs(lay, x, into) if o != "C")
            _add(lay.routes, (x, y), RED_BCAST, shared({_row_in(lay, x): outs}))
    _feed_columns(lay, shared, RED_BCAST)
    # Stage 4b: scalar targets travel to the executive instead.
    _add(lay.routes, (xm, yru), RED_CTRL, shared({"C": ("D",)}))
    _add(lay.routes, (xm, yc), RED_CTRL, shared({"U": ("R",)}))
    _add(lay.routes, (xe, yc), RED_CTRL, shared({"L": ("C",)}))


def _shift_routes(lay: FabricLayout, shared) -> None:
    """One static route per shift color: out of each sender, into its
    neighbor at +d, and across the three-strip for the column shifts."""
    for (d, p), color in SHIFT_COLOR.items():
        out = SHIFT_PORT[d]
        send, recv = shared({"C": (out,)}), shared({_opp(out): ("C",)})
        for wx, wy in lay.workers():
            _add(lay.routes, lay.fabric_of(wx, wy), color,
                 send if lay.phase(wx, wy) == p else recv)
        if out in ("U", "D"):
            through = shared({_opp(out): (out,)})
            for x in range(2, lay.nx + 2):
                for y in (lay.yru, lay.yc, lay.yrl):
                    _add(lay.routes, (x, y), color, through)


def _worker_local_routes(lay: FabricLayout, shared) -> None:
    loop = shared({"C": ("C",)})
    for wx, wy in lay.workers():
        _add(lay.routes, lay.fabric_of(wx, wy), LOOPBACK, loop)


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
