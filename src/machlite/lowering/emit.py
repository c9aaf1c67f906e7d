"""Deterministic textual listings for a lowered program.

emit_text produces one pseudo-assembly file per role plus a layout file.
The exec file lists the program state (instructions, sections, symbols, init
data, masks); the worker file carries the RPC table. The other files are
derived views of the same state.
"""

from __future__ import annotations

import numpy as np

from ..memwords import encode_words
from .layout import COLOR_NAMES
from .rpc import MASKED_KINDS, RpcDef
from .sections import Instr
from .vmprog import VMachineProgram

ROLE_FILES = ("exec.asm", "worker.asm", "reduce.asm", "resp.asm", "merge.asm",
              "paint.txt")


# --- helpers ----------------------------------------------------------------

def _hex(words) -> str:
    return " ".join(f"{int(w) & 0xFFFF:04x}" for w in words)


def _operand(o: tuple) -> str:
    if not o:
        return "-"
    if o[0] == "a":
        return f"@{o[1]}"
    return "#" + ":".join(str(int(w) & 0xFFFF) for w in o[1])


def _instr_line(i: int, ins: Instr) -> str:
    if ins.op == "mov":
        return f"{i}: mov.{ins.dtype} @{ins.dst}, {_operand(ins.a)}"
    if ins.op == "bin":
        return f"{i}: {ins.binop}.{ins.dtype} @{ins.dst}, {_operand(ins.a)}, {_operand(ins.b)}"
    if ins.op == "cmp_br":
        return (f"{i}: cmp_br.{ins.dtype} {ins.cmp} {_operand(ins.a)}, "
                f"{_operand(ins.b)} -> {ins.target}")
    if ins.op == "load_ga":
        return (f"{i}: load_ga.{ins.dtype} @{ins.dst}, @{ins.base}"
                f"[{_operand(ins.a)}]*{ins.width}")
    if ins.op == "jump":
        return f"{i}: jump {ins.target}"
    if ins.op == "trip":
        return f"{i}: trip {ins.loop_id}"
    if ins.op == "bcast":
        return f"{i}: bcast {ins.section}"
    if ins.op == "recv":
        return f"{i}: recv.{ins.dtype} @{ins.dst}"
    if ins.op == "halt":
        return f"{i}: halt"
    raise ValueError(ins.op)


def _rpc_line(d: RpcDef) -> str:
    srcs = ",".join(f"{s.token}/{s.words}" for s in d.srcs) or "-"
    dst = f"{d.dst.token}/{d.dst.words}" if d.dst else "-"
    tail = f" target={d.target}" if d.target else ""
    return (f"{d.rid} {d.name} kind={d.kind} op={d.op or '-'} dt={d.dtype} "
            f"srcs={srcs} dst={dst} arity={d.arity}{tail}")


def _ring_str(rr) -> str:
    states = []
    for st in rr:
        states.append("&".join(f"{i}>{'+'.join(outs)}" for i, outs in st))
    return "|".join(states)


def _kernel_body(d: RpcDef) -> list[str]:
    """Readable restatement of what the worker does for one RPC."""
    out = [f"  recv ctrl; recv args[{d.arity}]"]
    at = 0
    for k, s in enumerate(d.srcs):
        out.append(f"  src{k} {s.token} args[{at}:{at + s.words}]")
        at += s.words
    if d.dst is not None:
        out.append(f"  dst {d.dst.token} args[{at}:{at + d.dst.words}]")
        at += d.dst.words
    if d.kind in MASKED_KINDS:
        out.append(f"  mask @args[{at}]; len args[{at + 1}]")
        at += 2
    if d.kind == "reduce_send":
        out.append(f"  mask @args[{at}]")
        at += 1
    if d.has_dyn:
        out.append(f"  dyn_stop @args[{at}]")
        at += 1
    act = {
        "map": f"  apply {d.op}.{d.dtype} over len*mask elements",
        "gather": "  loopback indexes; 2 cycles per element",
        "gather_mul": "  loopback indexes, multiply; 2 cycles per element",
        "scatter": "  loopback indexes, store; 2 cycles per element",
        "shift": "  exchange with the checkerboard neighbor",
        "reduce_send": "  partial sum -> reduction column",
        "reduce_bcast": "  recv broadcast value -> local scalar",
    }[d.kind]
    out.append(act)
    return out


# --- emission ---------------------------------------------------------------

def emit_exec(vm: VMachineProgram) -> str:
    L = ["; executive program", "[meta]",
         f"grid {vm.nx} {vm.ny}",
         f"resp {vm.n_resp}",
         f"resp_capacity {vm.resp_capacity}",
         f"task_table {vm.task_table_size}",
         "[exec]"]
    L += [_instr_line(i, ins) for i, ins in enumerate(vm.instrs)]
    L.append("[sections]")
    for sec in vm.sections:
        nodes = ",".join(str(n) for n in sec.node_ids)
        L.append(f"section {sec.index} nodes={nodes}")
        L.append("  ctrl: " + " ".join(str(r) for r in sec.ctrl_vector))
        L.append("  args: " + _hex(sec.args_vector))
        for pos, width, addr in sec.splices:
            L.append(f"  splice pos={pos} width={width} addr={addr}")
    L.append("[symbols]")
    for s in vm.symbols:
        shape = ",".join(str(d) for d in s.shape) or "-"
        mem = ",".join(str(d) for d in s.mem_shape) or "-"
        obs = " obs" if s.mlid in vm.observables else ""
        vk = s.var_kind.value if s.var_kind is not None else "-"
        L.append(f"{s.mlid} {s.name} {s.space} @{s.address} size={s.size_words} "
                 f"{s.dtype.value} {vk} {s.kind} "
                 f"shape={shape} mem={mem}{obs}")
    L.append("[data]")
    for mlid in sorted(vm.inits):
        arr = np.asarray(vm.inits[mlid])
        L.append(f"{mlid}: " + _hex(encode_words(arr, vm.symbol(mlid).dtype)))
    L.append("[masks]")
    for e in vm.masks.ordered():
        sig = "x".join("(" + ",".join(str(v) for v in ax) + ")" for ax in e.sig)
        L.append(f"{e.index} @{e.address} {sig}")
    if vm.virtual_tasks:
        L.append("[virtual_tasks]")
        for d in vm.rpcs.defs:
            L.append(f"{d.rid} -> bank={d.rid // vm.task_table_size} "
                     f"slot={d.rid % vm.task_table_size}")
    return "\n".join(L) + "\n"


def emit_worker(vm: VMachineProgram) -> str:
    L = ["; worker kernels", "[rpcs]"]
    for d in vm.rpcs.defs:
        L.append(_rpc_line(d))
        L += _kernel_body(d)
    return "\n".join(L) + "\n"


def emit_reduce(vm: VMachineProgram) -> str:
    L = ["; reduction row program",
         "; stage 1: accumulate column partials until the column-end marker",
         "; stage 2: drain row segments inward, outermost marker restores rings",
         "; stage 3: corner tiles merge into the final tile",
         "; stage 4: broadcast to workers (uls) or to the executive (gs)",
         "[stubs]"]
    for d in vm.rpcs.defs:
        if d.kind == "reduce_send":
            L.append(f"{d.rid} {d.name}: accumulate.{d.dtype}")
        elif d.kind == "reduce_bcast":
            L.append(f"{d.rid} {d.name}: pass")
        else:
            L.append(f"{d.rid} {d.name}: drain args[{d.arity}]")
    return "\n".join(L) + "\n"


def emit_resp(vm: VMachineProgram) -> str:
    L = ["; response tile assignments (chunks in drain order)"]
    for pos in range(vm.n_resp):
        x, y = vm.layout.resp_order[pos]
        p = vm.layout.role_params[(x, y)]
        L.append(f"position {pos} tile={x},{y} side={p['side']} "
                 f"last={'yes' if p['last_on_side'] else 'no'}")
        for chunk in vm.chunks[pos]:
            L.append(f"  section {chunk.section}: ctrl[{len(chunk.ctrl)}] "
                     f"args[{len(chunk.args)}] "
                     f"splices[{sum(p is not None for p in chunk.patch)}]")
    return "\n".join(L) + "\n"


def emit_merge(vm: VMachineProgram) -> str:
    x, y = vm.layout.merge_xy
    return "\n".join([
        "; merge tile program",
        f"tile={x},{y}",
        "loop:",
        "  pop ctrl_drain -> push ctrl_bcast; chunk markers advance the ring",
        "  pop args_drain -> push args_bcast; chunk markers advance the ring",
        f"  after {vm.n_resp} markers on both colors: push ack",
    ]) + "\n"


def emit_paint(vm: VMachineProgram) -> str:
    lay = vm.layout
    L = ["; fabric layout", f"[grid] {lay.gw} {lay.gh} workers {lay.nx} {lay.ny} "
         f"resp {lay.n_resp}"]
    L.append("[roles]")
    letter = {"exec": "E", "merge": "M", "resp": "R", "worker": "w",
              "reduce": "r", "spine": "s", "unused": "."}
    for y in range(lay.gh):
        row = "".join(letter[lay.roles[(x, y)]] for x in range(lay.gw))
        L.append(f"y={y:<2d} {row}")
    L.append("[resp_order] " + " ".join(f"{x},{y}" for x, y in lay.resp_order))
    L.append("[routes]")
    for (x, y) in sorted(lay.routes):
        for color in sorted(lay.routes[(x, y)]):
            L.append(f"{x},{y} {COLOR_NAMES[color]} "
                     f"{_ring_str(lay.routes[(x, y)][color])}")
    L.append("[params]")
    for (x, y) in sorted(lay.role_params):
        kv = " ".join(f"{k}={v}" for k, v in sorted(lay.role_params[(x, y)].items()))
        L.append(f"{x},{y} {kv}")
    return "\n".join(L) + "\n"


def emit_text(vm: VMachineProgram) -> dict[str, str]:
    return {
        "exec.asm": emit_exec(vm),
        "worker.asm": emit_worker(vm),
        "reduce.asm": emit_reduce(vm),
        "resp.asm": emit_resp(vm),
        "merge.asm": emit_merge(vm),
        "paint.txt": emit_paint(vm),
    }

