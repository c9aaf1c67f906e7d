"""Random program generator for differential testing.

Programs are generated as source text and pushed through the whole
pipeline, so a single seed exercises the parser, the planner, lowering,
and both execution backends.  Generation is shaped so the comparison
stays meaningful:

- f32 programs use only + and * and start from nonnegative inits, so
  values never cancel and the relative tolerance on reduction results
  stays honest; i16 programs may also subtract since wraparound is exact
  in both backends.
- break conditions only read scalars the controller computed itself,
  never a reduction result, so control flow is bit-reproducible.
- gather and scatter index arrays are initialized within the window they
  index, and a chain-magnitude bound keeps multiply chains clear of
  float32 overflow.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

MAX_STMTS = 10
MAX_LOOP_BODY = 4
MAX_ARRAYS = 5
MAX_LOOPS = 2
GRIDS = ((2, 2), (4, 2), (4, 4), (2, 6), (6, 4), (6, 6), (8, 4))
MAG_CAP = 25.0          # log10 bound before another multiply is refused


@dataclass
class _Arr:
    name: str
    mem: tuple[int, ...]
    dtype: str
    mag: float = 0.0
    prot: bool = False      # never written; keeps gather indexes in range


@dataclass
class _Scalar:
    name: str
    kind: str               # "gs" | "uls" | "ls"
    dtype: str
    mag: float = 0.0
    tainted: bool = False   # carries a reduction result


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.nx, self.ny = self.rng.choice(GRIDS)
        self.arrays: list[_Arr] = []
        self.scalars: list[_Scalar] = []
        self.gathers: list[tuple] = []   # (src, idx, dst) triples
        self.decls: list[str] = []
        self.body: list[str] = []
        self.loops_used = 0
        self.dyn_var: _Scalar | None = None
        self.dyn_extent = 0

    # --- declarations --------------------------------------------------------

    def declare(self) -> None:
        rng = self.rng
        dtype = rng.choice(("f32", "f32", "i16"))
        n_arr = rng.randint(2, MAX_ARRAYS)
        mem = (rng.randint(2, 10),)
        if rng.random() < 0.25:
            mem = (rng.randint(2, 4), rng.randint(2, 5))
        for i in range(n_arr):
            a = _Arr(f"a{i}", mem, dtype)
            self.arrays.append(a)
            dims = ",".join(str(d) for d in (self.nx, self.ny) + mem)
            self.decls.append(f"la {a.name}[{dims}] {dtype} = rand")
        if rng.random() < 0.45 and len(mem) == 1:
            s = self.arrays[0]
            n_idx = rng.randint(1, mem[0])
            idx = _Arr("ix", (n_idx,), "i16", prot=True)
            dst = _Arr("gd", (n_idx,), dtype)
            self.arrays += [idx, dst]
            self.gathers.append((s, idx, dst))
            self.decls.append(
                f"la ix[{self.nx},{self.ny},{n_idx}] i16 = randint(0, {mem[0]})")
            self.decls.append(
                f"la gd[{self.nx},{self.ny},{n_idx}] {dtype} = rand")
        for i in range(rng.randint(0, 2)):
            sc = _Scalar(f"g{i}", "gs", dtype)
            self.scalars.append(sc)
            zero = "0.0" if dtype == "f32" else "0"
            self.decls.append(f"gs {sc.name} {dtype} = {zero}")
        if rng.random() < 0.4:
            sc = _Scalar("u0", "uls", dtype)
            self.scalars.append(sc)
            zero = "0.0" if dtype == "f32" else "0"
            self.decls.append(f"uls {sc.name} {dtype} = {zero}")
        if rng.random() < 0.3 and len(mem) == 1 and mem[0] >= 2:
            stop = rng.randint(0, mem[0])
            self.dyn_var = _Scalar("nn", "ls", "i16")
            self.dyn_extent = mem[0]
            self.decls.append(f"ls nn i16 = {stop}")

    # --- pieces --------------------------------------------------------------

    def pe_region(self, dense: bool = False) -> str:
        rng = self.rng
        if rng.random() < 0.6:
            return ":, :"
        def axis(n):
            lo = rng.randint(0, n - 1)
            hi = rng.randint(lo + 1, n)
            if not dense and rng.random() < 0.25 and hi - lo > 2:
                return f"{lo}:{hi}:{rng.randint(2, 3)}"
            return f"{lo}:{hi}"
        return f"{axis(self.nx)}, {axis(self.ny)}"

    def window(self, extent: int, length: int) -> str:
        lo = self.rng.randint(0, extent - length)
        return f"{lo}:{lo + length}"

    def op_for(self, *vals) -> str:
        dtype = ([v for v in vals if v is not None][0]).dtype
        mags = [v.mag for v in vals if v is not None]
        if dtype == "i16":
            return self.rng.choice("+-*")
        if sum(mags) < MAG_CAP and self.rng.random() < 0.4:
            return "*"
        return "+"

    def bump(self, dst, op: str, *srcs) -> None:
        mags = [s.mag for s in srcs if s is not None] + [dst.mag]
        dst.mag = (sum(mags) if op == "*" else max(mags)) + 0.1

    # --- statements ----------------------------------------------------------

    def st_elementwise(self) -> str:
        rng = self.rng
        a = rng.choice([x for x in self.arrays if not x.prot])
        peers = [x for x in self.arrays if x.mem == a.mem and x.dtype == a.dtype]
        b = rng.choice(peers)
        op = self.op_for(a, b)
        self.bump(a, op, b)
        if rng.random() < 0.55:
            return f"{a.name} {op}= {b.name}"
        reg = self.pe_region()
        ln = rng.randint(1, a.mem[-1])
        wa = ", ".join(self.window(e, min(ln, e)) for e in a.mem[:-1])
        pre = (wa + ", ") if wa else ""
        wl = self.window(a.mem[-1], ln)
        wr = self.window(b.mem[-1], ln)
        return (f"{a.name}[{reg}, {pre}{wl}] {op}= "
                f"{b.name}[{reg}, {pre}{wr}]")

    def st_dyn(self) -> str:
        arrs = [x for x in self.arrays
                if len(x.mem) == 1 and x.mem[0] == self.dyn_extent
                and not x.prot]
        a, b = self.rng.choice(arrs), self.rng.choice(arrs)
        if a.dtype != b.dtype:
            b = a
        op = self.op_for(a, b)
        self.bump(a, op, b)
        return f"{a.name}[:, :, 0:nn] {op}= {b.name}[:, :, 0:nn]"

    def st_scalar(self) -> str:
        rng = self.rng
        cands = [s for s in self.scalars if s.kind in ("gs", "uls")]
        a = rng.choice([x for x in self.arrays if not x.prot])
        peers = [s for s in cands if s.dtype == a.dtype]
        if peers and rng.random() < 0.6:
            s = rng.choice(peers)
            op = self.op_for(a, s)
            self.bump(a, op, s)
            return f"{a.name} {op}= {s.name}"
        lit = "1.25" if a.dtype == "f32" else str(rng.randint(1, 9))
        op = self.op_for(a)
        self.bump(a, op)
        return f"{a.name} {op}= {lit}"

    def st_shift(self) -> str:
        rng = self.rng
        a = rng.choice([x for x in self.arrays if not x.prot])
        peers = [x for x in self.arrays if x.mem == a.mem and x.dtype == a.dtype
                 and x is not a and not x.prot]
        b = rng.choice(peers) if peers else a
        b.mag = max(a.mag, b.mag)
        axis = rng.choice(("row", "col"))
        off = rng.choice((1, -1))
        reg = self.pe_region(dense=True)
        win = ", ".join(f"0:{e}" for e in a.mem)
        return (f"shift({b.name}[{reg}, {win}], {a.name}[{reg}, {win}], "
                f"{axis}, {off})")

    def st_gather(self) -> str:
        src, idx, dst = self.rng.choice(self.gathers)
        reg = self.pe_region()
        kind = self.rng.randrange(3)
        if kind == 0:
            dst.mag = src.mag
            return f"{dst.name}[{reg}, :] = take({src.name}[{reg}, :], {idx.name}[{reg}, :])"
        if kind == 1:
            src.mag = max(src.mag, dst.mag)
            return f"put({src.name}[{reg}, :], {idx.name}[{reg}, :], {dst.name}[{reg}, :])"
        if src.mag + dst.mag >= MAG_CAP:
            dst.mag = src.mag
            return f"{dst.name}[{reg}, :] = take({src.name}[{reg}, :], {idx.name}[{reg}, :])"
        dst.mag += src.mag + 0.1
        return (f"{dst.name}[{reg}, :] = gather_mul({src.name}[{reg}, :], "
                f"{idx.name}[{reg}, :], {dst.name}[{reg}, :])")

    def st_reduce(self) -> str:
        rng = self.rng
        a = rng.choice(self.arrays)
        peers = [s for s in self.scalars if s.dtype == a.dtype]
        if not peers:
            return self.st_elementwise()
        t = rng.choice(peers)
        t.tainted = t.dtype == "f32"
        t.mag = a.mag + math.log10(self.nx * self.ny * math.prod(a.mem)) + 1
        if rng.random() < 0.6:
            return f"reduce({a.name}, {t.name})"
        reg = self.pe_region()
        win = ", ".join(f"0:{e}" for e in a.mem)
        return f"reduce({a.name}[{reg}, {win}], {t.name})"

    def st_loop(self) -> list[str]:
        rng = self.rng
        self.loops_used += 1
        n = rng.randint(2, 6)
        ga = f"w{self.loops_used}"
        self.decls.append(f"ga {ga}[{n}] f32 = rand")
        lines = [f"for e{self.loops_used} in {ga} {{"]
        ev = _Scalar(f"e{self.loops_used}", "gs", "f32", mag=0.0)
        body_n = rng.randint(1, MAX_LOOP_BODY)
        accum = [s for s in self.scalars
                 if s.kind == "gs" and s.dtype == "f32" and not s.tainted]
        acc = rng.choice(accum) if accum else None
        for _ in range(body_n):
            r = rng.random()
            if r < 0.45:
                a = rng.choice([x for x in self.arrays if x.dtype == "f32"]
                               or self.arrays)
                if a.dtype == "f32":
                    op = self.op_for(a, ev)
                    self.bump(a, op, ev)
                    lines.append(f"    {a.name} {op}= {ev.name}")
                else:
                    lines.append("    " + self.st_elementwise())
            else:
                lines.append("    " + rng.choice(
                    [self.st_elementwise, self.st_scalar])())
        if acc is not None:
            lines.append(f"    {acc.name} += {ev.name}")
            acc.mag = max(acc.mag, 1.0)
            if rng.random() < 0.7:
                thr = round(rng.uniform(0.2, 1.6) * n * 0.5, 2)
                lines.append(f"    exit_if {acc.name} > {thr}")
        lines.append("}")
        return lines

    # --- assembly ------------------------------------------------------------

    def statement(self) -> list[str]:
        rng = self.rng
        picks: list = [self.st_elementwise] * 5 + [self.st_scalar] * 2
        if self.gathers:
            picks += [self.st_gather] * 2
        if self.dyn_var is not None:
            picks.append(self.st_dyn)
        if self.scalars:
            picks.append(self.st_reduce)
        if min(self.nx, self.ny) >= 2:
            picks.append(self.st_shift)
        if self.loops_used < MAX_LOOPS:
            picks.append(self.st_loop)
        out = rng.choice(picks)()
        return out if isinstance(out, list) else [out]

    def generate(self) -> str:
        self.declare()
        n = self.rng.randint(3, MAX_STMTS)
        while len(self.body) < n:
            self.body.extend(self.statement())
        return "\n".join(self.decls + [""] + self.body) + "\n"


def gen_source(seed: int) -> str:
    """Deterministic random program for one fuzz seed."""
    return _Gen(seed).generate()

