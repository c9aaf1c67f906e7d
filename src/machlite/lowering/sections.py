"""Graph partitioning into broadcast sections plus the executive program.

Straight-line worker operations accumulate into one section.  A boundary is
forced at every control-flow node, at every controller-resident operation, and
at every worker operation that consumes a controller scalar: the scalar's
current value must be spliced into the argument stream at broadcast time, so
such a node becomes a singleton section.

The executive program is a flat instruction list over controller memory:
  mov dst, src            load_ga dst, base, idx      bin op dst, a, b
  cmp_br cmp a, b, tgt    jump tgt                    trip loop_id
  bcast section           recv dst                    halt
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.syntax import DType
from ..irg import MAP_OPS, IRGraph, IRNode, ImmArg, MemArg, node_placement
from . import rpc as rpcmod
from .masks import MaskTable
from .rpc import ADDR, OperandSpec, RpcTable, encode_frame, operand_spec, operand_words


@dataclass
class Section:
    index: int
    ctrl_vector: list = field(default_factory=list)     # dense RPC ids
    args_vector: list = field(default_factory=list)     # 16-bit words
    splices: list = field(default_factory=list)         # (pos, width, ctrl word addr)
    node_ids: list = field(default_factory=list)


@dataclass
class Instr:
    op: str
    dtype: str = ""
    binop: str = ""
    cmp: str = ""
    dst: int = -1               # controller word address
    a: tuple = ()               # ('a', addr) | ('i', (word, ...))
    b: tuple = ()
    base: int = -1              # load_ga: array base address
    width: int = 1              # load_ga: element width in words
    target: int = -1
    section: int = -1
    loop_id: int = -1


class GraphLowerer:
    def __init__(self, g: IRGraph, plan):
        self.g = g
        self.plan = plan
        self.masks = MaskTable()
        self.rpcs = RpcTable()
        self.sections: list[Section] = []
        self.instrs: list[Instr] = []
        self.run: list[tuple] = []          # pending (rpcdef, words, spliced, node id)
        self.loop_exit_patches: list[list[int]] = []

    # --- operand helpers ---------------------------------------------------

    def addr(self, mlid: int) -> int:
        return self.plan.address_words(mlid)

    def exec_operand(self, a) -> tuple:
        if isinstance(a, ImmArg):
            return ("i", tuple(rpcmod.imm_words(a.value, a.dtype)))
        return ("a", self.addr(a.mlid))

    def operand_dtype(self, args) -> DType:
        for a in args:
            if isinstance(a, MemArg):
                return self.g.memlocs[a.mlid].dtype
        return args[0].dtype

    def mask_word(self, n: IRNode) -> int:
        return self.masks.intern(n.attrs["region"], self.plan).address

    def static_len(self, n: IRNode) -> int:
        ml = self.g.memlocs[n.result_index]
        acc = n.dest_slice
        if acc is not None and acc.mem:
            return acc.mem_len
        size = 1
        for d in ml.mem_shape:
            size *= d
        return size

    def node_dyn_split(self, n: IRNode):
        pos = n.attrs.get("dyn_len_arg")
        if pos is None:
            return n.args, None
        return n.args[:pos], n.args[pos]

    def vec_spec_words(self, a: MemArg, *, sized: bool):
        ml = self.g.memlocs[a.mlid]
        spec = operand_spec(ml, a.access, sized=sized)
        return spec, operand_words(spec, ml, a.access, self.plan)

    def src_spec_words(self, a):
        """Encode one source: its spec, its words and, for a controller
        scalar spliced in as an immediate, the scalar's address."""
        if isinstance(a, ImmArg):
            words = rpcmod.imm_words(a.value, a.dtype)
            return OperandSpec("ai", len(words)), words, None
        if a.klass == "gs":
            width = self.g.memlocs[a.mlid].dtype.words
            return OperandSpec("ai", width), [0] * width, self.addr(a.mlid)
        if a.klass == "pescalar":
            return ADDR, [self.addr(a.mlid)], None
        spec, words = self.vec_spec_words(a, sized=False)
        return spec, words, None

    # --- section construction ---------------------------------------------

    def queue_map(self, n: IRNode) -> None:
        args, dyn = self.node_dyn_split(n)
        dt = self.g.memlocs[n.result_index].dtype.value
        specs, fields, spliced = [], {}, []
        for k, a in enumerate(args):
            spec, fields[f"src{k}"], addr = self.src_spec_words(a)
            specs.append(spec)
            if addr is not None:
                spliced.append((f"src{k}", addr))
        dspec, fields["dst"] = self.dst_spec_words(n, sized=False)
        fields.update(mask=[self.mask_word(n)], len=[self.static_len(n)])
        if dyn is not None:
            fields["dyn_stop"] = [self.addr(dyn.mlid)]
        rd = self.rpcs.intern("map", n.op_name, dt, specs, dspec)
        self.queue(rd, n, fields, spliced)

    def dst_spec_words(self, n: IRNode, *, sized: bool):
        dml = self.g.memlocs[n.result_index]
        spec = operand_spec(dml, n.dest_slice, sized=sized)
        return spec, operand_words(spec, dml, n.dest_slice, self.plan)

    def queue_gather(self, n: IRNode) -> None:
        dt = self.g.memlocs[n.result_index].dtype.value
        op = n.op_name
        # the window the indices address (a gather's source, a scatter's
        # destination) is explicitly sized; so is a scatter's index, as it
        # iterates as many elements as that holds, while a gather takes its
        # count from the destination
        sized = (op != "scatter", op == "scatter", False)
        specs, fields = [], {}
        # a scatter's third argument is its destination
        for k, a in enumerate(n.args[:3 if op == "gather_mul" else 2]):
            spec, fields[f"src{k}"] = self.vec_spec_words(a, sized=sized[k])
            specs.append(spec)
        dspec, fields["dst"] = self.dst_spec_words(n, sized=(op == "scatter"))
        fields.update(mask=[self.mask_word(n)], len=[self.static_len(n)])
        self.queue(self.rpcs.intern(op, op, dt, specs, dspec), n, fields)

    def queue_shift(self, n: IRNode) -> None:
        dt = self.g.memlocs[n.result_index].dtype.value
        sspec, src0 = self.vec_spec_words(n.args[0], sized=False)
        dspec, dst = self.dst_spec_words(n, sized=False)
        axis, off = n.attrs["axis"], n.attrs["offset"]
        dx, dy = (off, 0) if axis == "row" else (0, off)
        (x0, x1, _), (y0, y1, _) = n.dest_slice.pe
        rd = self.rpcs.intern("shift", "shift", dt, [sspec], dspec)
        self.queue(rd, n, dict(src0=src0, dst=dst, len=[self.static_len(n)],
                               dx=[dx & 0xFFFF], dy=[dy & 0xFFFF],
                               x0=[x0], x1=[x1], y0=[y0], y1=[y1]))

    def queue_reduce(self, n: IRNode) -> bool:
        """Queue the send (and for uls targets the receive); True for gs targets."""
        src = n.args[0]
        sml = self.g.memlocs[src.mlid]
        dt = sml.dtype.value
        to_gs = self.g.memlocs[n.result_index].placement == "controller"
        if sml.mem_shape:
            spec, words = self.vec_spec_words(src, sized=True)
        else:
            spec, words = ADDR, [self.addr(src.mlid)]
        rd = self.rpcs.intern("reduce_send", "reduce", dt, [spec], None,
                              target="gs" if to_gs else "uls")
        self.queue(rd, n, dict(src0=words, mask=[self.mask_word(n)]))
        if not to_gs:
            recv = self.rpcs.intern("reduce_bcast", "reduce", dt, [], ADDR)
            self.queue(recv, n, dict(dst=[self.addr(n.result_index)]))
        return to_gs

    def queue(self, rd, n: IRNode, fields: dict, spliced=()) -> None:
        """Queue one task of `rd`; `spliced` names the fields, each with its
        controller scalar's address, whose words are spliced in at broadcast."""
        self.run.append((rd, encode_frame(rd, **fields), spliced, n.id))

    def flush(self) -> None:
        if not self.run:
            return
        sec = Section(index=len(self.sections))
        for rd, words, spliced, nid in self.run:
            base = len(sec.args_vector)
            sec.ctrl_vector.append(rd.rid)
            sec.args_vector.extend(words)
            for name, addr in spliced:
                spec, s = rd.frame[name]
                sec.splices.append((base + s.start, spec.words, addr))
            sec.node_ids.append(nid)
        self.run = []
        self.sections.append(sec)
        self.instrs.append(Instr("bcast", section=sec.index))

    # --- controller instructions -------------------------------------------

    def emit_controller(self, n: IRNode) -> None:
        op = n.op_name
        dml = self.g.memlocs[n.result_index]
        dt = dml.dtype.value
        dst = self.addr(n.result_index)
        if op == "ga_load":
            ga = n.args[0]
            gml = self.g.memlocs[ga.mlid]
            cnt = n.attrs.get("counter")
            idx = (("a", self.addr(cnt)) if cnt is not None
                   else ("i", (n.attrs["index"],)))
            self.instrs.append(Instr("load_ga", dtype=dt, dst=dst,
                                     base=self.addr(ga.mlid), a=idx,
                                     width=gml.dtype.words))
            return
        if op in ("copy", "fill"):
            self.instrs.append(Instr("mov", dtype=dt, dst=dst,
                                     a=self.exec_operand(n.args[0])))
            return
        assert op in ("add", "sub", "mul", "div"), op
        self.instrs.append(Instr("bin", dtype=dt, binop=op, dst=dst,
                                 a=self.exec_operand(n.args[0]),
                                 b=self.exec_operand(n.args[1])))

    def emit_exit_if(self, n: IRNode) -> None:
        self.flush()
        dt = self.operand_dtype(n.args).value
        ins = Instr("cmp_br", dtype=dt, cmp=n.attrs["cmp"],
                    a=self.exec_operand(n.args[0]),
                    b=self.exec_operand(n.args[1]))
        self.loop_exit_patches[-1].append(len(self.instrs))
        self.instrs.append(ins)

    def emit_loop(self, n: IRNode) -> None:
        self.flush()
        start, extent = n.attrs["start"], n.attrs["extent"]
        cnt = self.addr(n.args[1].mlid)
        i16 = DType.I16.value
        self.instrs.append(Instr("mov", dtype=i16, dst=cnt,
                                 a=("i", tuple(rpcmod.imm_words(start, DType.I16)))))
        top = len(self.instrs)
        stop_imm = ("i", tuple(rpcmod.imm_words(start + extent, DType.I16)))
        head = Instr("cmp_br", dtype=i16, cmp=">=", a=("a", cnt), b=stop_imm)
        head_at = len(self.instrs)
        self.instrs.append(head)
        self.instrs.append(Instr("trip", loop_id=n.id))
        self.loop_exit_patches.append([head_at])
        self.walk(n.subgraph.nodes)
        self.flush()
        one = ("i", tuple(rpcmod.imm_words(1, DType.I16)))
        self.instrs.append(Instr("bin", dtype=i16, binop="add", dst=cnt,
                                 a=("a", cnt), b=one))
        self.instrs.append(Instr("jump", target=top))
        end = len(self.instrs)
        for at in self.loop_exit_patches.pop():
            self.instrs[at].target = end

    # --- the walk -----------------------------------------------------------

    def walk(self, nodes) -> None:
        for n in nodes:
            op = n.op_name
            if op in ("sg_export", "sg_import"):
                continue
            if op == "loop":
                self.emit_loop(n)
            elif op == "exit_if":
                self.emit_exit_if(n)
            elif op == "reduce_sum":
                if self.queue_reduce(n):
                    self.flush()
                    dml = self.g.memlocs[n.result_index]
                    self.instrs.append(Instr("recv", dtype=dml.dtype.value,
                                             dst=self.addr(n.result_index)))
            elif op == "shift":
                self.queue_shift(n)
            elif op in ("gather", "gather_mul", "scatter"):
                self.queue_gather(n)
            elif op in MAP_OPS and node_placement(self.g, n) == "controller":
                self.flush()
                self.emit_controller(n)
            elif op == "ga_load":
                self.flush()
                self.emit_controller(n)
            else:
                assert op in MAP_OPS, op
                if any(isinstance(a, MemArg) and a.klass == "gs" for a in n.args):
                    # controller scalar operand: singleton spliced section
                    self.flush()
                    self.queue_map(n)
                    self.flush()
                else:
                    self.queue_map(n)

    def lower(self):
        self.walk(self.g.nodes)
        self.flush()
        self.instrs.append(Instr("halt"))
        return self.sections, self.instrs, self.rpcs
