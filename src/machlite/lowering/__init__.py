"""Lowering: turn a planned graph into per-role virtual machine programs.

partition     graph -> broadcast sections + executive instruction list
lower         the whole pipeline, returning a validated VMachineProgram
emit_text     deterministic textual listings (see emit)
"""

from __future__ import annotations

from ..irg import IRGraph, full_shape, node_placement, ordered_walk
from ..memplan import MemPlan, observables
from .distribute import RespChunk, assign_sections, chunk_sizes, resp_words, split_even
from .layout import COLOR_IDS, COLOR_NAMES, FabricLayout, build_layout
from .masks import MaskEntry, MaskTable, mask_bit, region_members
from .rpc import RpcDef, RpcTable
from .sections import GraphLowerer, Instr, Section
from .vmprog import MemSym, VMachineProgram

__all__ = [
    "COLOR_IDS", "COLOR_NAMES", "FabricLayout", "GraphLowerer", "Instr",
    "MaskEntry", "MaskTable", "MemSym", "RespChunk", "RpcDef", "RpcTable",
    "Section", "VMachineProgram", "assign_sections",
    "build_layout", "chunk_sizes", "lower",
    "mask_bit", "partition", "region_members", "resp_words", "split_even",
]


def partition(g: IRGraph, plan: MemPlan):
    """Sections plus the executive skeleton; returns (sections, instrs, rpcs, masks)."""
    low = GraphLowerer(g, plan)
    sections, instrs, rpcs = low.lower()
    return sections, instrs, rpcs, low.masks


def worker_nodes(g: IRGraph) -> set[int]:
    return {n.id for n in ordered_walk(g)
            if n.op_name not in ("sg_export", "sg_import")
            and node_placement(g, n) == "worker"}


def lower(g: IRGraph, plan: MemPlan, *, n_resp: int = 4,
          resp_capacity: int = 3000, task_table_size: int = 16) -> VMachineProgram:
    nx, ny = g.grid
    sections, instrs, rpcs, masks = partition(g, plan)
    while True:
        chunks = assign_sections(sections, n_resp)
        if max(resp_words(per) for per in chunks) <= resp_capacity:
            break
        n_resp += 2             # reserve tiles join the flanks on demand
    layout = build_layout(nx, ny, n_resp)

    symbols = []
    for mlid in sorted(plan.entries):
        ml = g.memlocs[mlid]
        e = plan.entries[mlid]
        symbols.append(MemSym(
            mlid=mlid, name=ml.name, space=e.space,
            address=plan.address_words(mlid), size_words=e.size_words,
            dtype=ml.dtype, kind=ml.kind, var_kind=ml.var_kind,
            shape=full_shape(g, ml), mem_shape=tuple(ml.mem_shape)))
    loop_ids = [n.id for n in ordered_walk(g) if n.op_name == "loop"]

    prog = VMachineProgram(
        nx=nx, ny=ny, n_resp=n_resp, layout=layout, instrs=instrs,
        sections=sections, chunks=chunks, rpcs=rpcs, masks=masks,
        symbols=symbols, inits=dict(g.inits), observables=observables(g, plan),
        worker_words=plan.footprint["worker"], worker_spans=plan.spans("worker"),
        worker_node_ids=worker_nodes(g), loop_ids=loop_ids,
        task_table_size=task_table_size, resp_capacity=resp_capacity)
    prog.validate()
    return prog
