"""Container for a fully lowered program plus its integrity checks.

A VMachineProgram is self-contained: symbols carry absolute word addresses,
inits carry frozen logical arrays, and build_images materializes the byte
state every tile starts from.  Nothing here refers back to the source graph:
the simulator and the listings need only this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diagnostics import CompileError, Diagnostic
from ..frontend.syntax import DType, VarKind
from ..memplan import WORKER_WORDS
from ..memwords import initial_array, store_words
from .distribute import resp_words
from .layout import FabricLayout
from .masks import MaskTable, region_members
from .rpc import RpcTable
from .sections import Instr, Section

@dataclass(frozen=True)
class MemSym:
    mlid: int
    name: str
    space: str              # "worker" | "controller"
    address: int            # absolute word address within its space
    size_words: int         # per-tile size for worker space
    dtype: DType
    kind: str               # "persistent" | "temporary" | "output"
    var_kind: VarKind
    shape: tuple            # full logical shape
    mem_shape: tuple


@dataclass
class VMachineProgram:
    nx: int
    ny: int
    n_resp: int
    layout: FabricLayout
    instrs: list[Instr]
    sections: list[Section]
    chunks: list            # per drain position: one RespChunk per section
    rpcs: RpcTable
    masks: MaskTable
    symbols: list[MemSym]
    inits: dict             # mlid -> frozen logical ndarray
    observables: list[int]
    worker_words: int       # per-tile image size: the plan's worker footprint
    worker_node_ids: set = field(default_factory=set)
    loop_ids: list = field(default_factory=list)
    task_table_size: int = 16
    resp_capacity: int = 3000

    @property
    def virtual_tasks(self) -> bool:
        return len(self.rpcs.defs) > self.task_table_size

    def symbol(self, mlid: int) -> MemSym:
        return self._by_mlid[mlid]

    def __post_init__(self):
        self._by_mlid = {s.mlid: s for s in self.symbols}

    # --- integrity ----------------------------------------------------------

    def validate(self) -> None:
        errs = []
        for sec in self.sections:
            need = sum(self.rpcs.defs[rid].arity for rid in sec.ctrl_vector)
            if need != len(sec.args_vector):
                errs.append(f"section {sec.index}: rpc arities total {need} "
                            f"but args vector has {len(sec.args_vector)} words")
        self._check_distribution(errs)
        self._check_masks(errs)
        self._check_footprint(errs)
        covered = set()
        for sec in self.sections:
            covered.update(sec.node_ids)
        missing = self.worker_node_ids - covered
        if missing:
            errs.append(f"worker nodes missing from all sections: {sorted(missing)}")
        stray = covered - self.worker_node_ids
        if stray:
            errs.append(f"sections contain non-worker nodes: {sorted(stray)}")
        for pos, per_pos in enumerate(self.chunks):
            words = resp_words(per_pos)
            if words > self.resp_capacity:
                errs.append(f"response position {pos} holds {words} words, "
                            f"capacity {self.resp_capacity}")
        if errs:
            raise CompileError([Diagnostic(e) for e in errs])

    def _check_distribution(self, errs) -> None:
        """Concatenating chunks in drain order must rebuild every section."""
        for sec in self.sections:
            ctrl, args = [], []
            starts = []
            for pos in range(self.n_resp):
                chunk = self.chunks[pos][sec.index]
                starts.append(len(args))
                ctrl.extend(chunk.ctrl)
                args.extend(chunk.args)
            if ctrl != sec.ctrl_vector or args != sec.args_vector:
                errs.append(f"section {sec.index}: chunk concatenation does not "
                            f"reconstruct the vectors")
                continue
            sizes = [len(self.chunks[p][sec.index].ctrl) for p in range(self.n_resp)]
            asz = [len(self.chunks[p][sec.index].args) for p in range(self.n_resp)]
            for name, sz in (("ctrl", sizes), ("args", asz)):
                if sz and max(sz) - min(sz) > 1:
                    errs.append(f"section {sec.index}: uneven {name} split {sz}")
            # every spliced word lands in exactly one chunk, at its position
            spliced = [p + w for p, width, _a in sec.splices for w in range(width)]
            holders = [[] for _ in spliced]
            for pos in range(self.n_resp):
                patch = self.chunks[pos][sec.index].patch
                if len(patch) != len(spliced):
                    errs.append(f"section {sec.index}: position {pos} patches "
                                f"{len(patch)} of {len(spliced)} spliced words")
                    continue
                for j, local in enumerate(patch):
                    if local is not None:
                        holders[j].append(starts[pos] + local)
            bad = [j for j, at in enumerate(holders) if at != [spliced[j]]]
            if bad:
                errs.append(f"section {sec.index}: spliced words {bad} are not "
                            f"held once at their position")

    def _check_masks(self, errs) -> None:
        addrs = [e.address for e in self.masks.ordered()]
        if len(addrs) != len(set(addrs)):
            errs.append("mask table reuses a word address")
        bits = self.masks.image_bits(self.nx, self.ny)
        for e in self.masks.ordered():
            got = {(x, y) for x in range(self.nx) for y in range(self.ny)
                   if bits[e.address][x][y]}
            if got != region_members(e.sig, self.nx, self.ny):
                errs.append(f"mask {e.sig} bits disagree with slice enumeration")

    def _check_footprint(self, errs) -> None:
        for s in self.symbols:
            if s.space == "worker" and s.address + s.size_words > self.worker_words:
                errs.append(f"symbol {s.name} ends at word {s.address + s.size_words}, "
                            f"past the {self.worker_words}-word worker footprint")
        for e in self.masks.ordered():
            if e.address >= self.worker_words:
                errs.append(f"mask {e.sig} at word {e.address} is past the "
                            f"{self.worker_words}-word worker footprint")

    # --- initial memory state ----------------------------------------------

    def build_images(self):
        """Initial (worker, controller) memory images.

        Worker image is (nx, ny, worker_words); the controller image spans
        WORKER_WORDS.  Every persistent init (laid out by
        `memwords.store_words`, as the reference store lays it out) and every
        mask word is in place before cycle 0.
        """
        worker = np.zeros((self.nx, self.ny, self.worker_words), dtype=np.uint16)
        ctrl = np.zeros(WORKER_WORDS, dtype=np.uint16)
        for sym in self.symbols:
            init = self.inits.get(sym.mlid)
            if init is not None:
                image = ctrl if sym.space == "controller" else worker
                store_words(image, sym.address, sym.size_words,
                            initial_array(init, sym.dtype, sym.shape), sym.dtype)
        for addr, bits in self.masks.image_bits(self.nx, self.ny).items():
            worker[:, :, addr] = bits
        return worker, ctrl
