"""Container for a fully lowered program plus its integrity checks.

A VMachineProgram is self-contained: symbols carry absolute word addresses,
inits carry frozen logical arrays, and build_images materializes the byte
state every tile starts from.  Nothing here refers back to the source graph,
which is what makes the textual round trip possible.
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
            raise CompileError([Diagnostic("error", e) for e in errs])

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
            seen = set()
            for pos in range(self.n_resp):
                chunk = self.chunks[pos][sec.index]
                for local, width, (slot, word) in chunk.splices:
                    gpos, gwidth, _addr = sec.splices[slot]
                    if starts[pos] + local != gpos + word or width != 1:
                        errs.append(f"section {sec.index}: splice slot {slot} "
                                    f"maps badly at position {pos}")
                    seen.add((slot, word))
            want = {(slot, w) for slot, (_p, gw, _a) in enumerate(sec.splices)
                    for w in range(gw)}
            if seen != want:
                errs.append(f"section {sec.index}: splice words {want - seen} "
                            f"not covered by any chunk")

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

    # --- initial memory state ----------------------------------------------

    def build_images(self):
        """Initial (worker, controller) memory images, one 24,576-word span each.

        Worker image is (nx, ny, words); every persistent init (laid out by
        `memwords.store_words`, as the reference store lays it out) and every
        mask word is in place before cycle 0.
        """
        worker = np.zeros((self.nx, self.ny, WORKER_WORDS), dtype=np.uint16)
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
