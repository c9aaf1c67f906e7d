"""Graph construction tests.

Expected node/temp counts come from the predictors in oracles.py, which walk
the typed program directly; headline numbers are additionally frozen as
literals so a simultaneous bug in both walkers cannot slip through.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

import oracles
from helpers import LISTING1, graph_of, typed_of
from machlite import cli, irg
from machlite.frontend import lower_to_il
from machlite.fuzz import gen_source

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))


def temp_count(g: irg.IRGraph) -> int:
    return sum(1 for ml in g.memlocs.values() if ml.kind == "temporary")


def test_two_node_expression():
    src = """\
la A[4,4,8] f32 = rand
la B[4,4,8] f32 = rand
la D[4,4,8] f32 = rand
out la E[4,4,8] f32
E = (A + B) * D
"""
    g = graph_of(src)
    assert [n.op_name for n in g.nodes] == ["add", "mul"]
    assert len(g.nodes) == 2 == oracles.program_node_count(typed_of(src))
    assert temp_count(g) == 1 == oracles.program_temp_count(typed_of(src))
    add, mul = g.nodes
    assert g.memlocs[add.result_index].kind == "temporary"
    assert g.memlocs[mul.result_index].name == "E"
    assert g.memlocs[mul.result_index].kind == "output"
    assert g.edges == [irg.IREdge(add.id, mul.id, 0, None)]
    # non-tmp declarations are all retained through the end of the program
    assert g.outputs == tuple(g.by_name[v] for v in "ABDE")


def test_listing1_shape():
    typed = typed_of(LISTING1, 10, 10)
    g = graph_of(LISTING1, 10, 10)
    ops = [n.op_name for n in irg.ordered_walk(g)]
    assert ops == [
        "sg_export", "sg_export", "sg_export", "loop",
        "sg_import", "sg_import", "sg_import", "ga_load",
        "add", "exit_if", "add", "reduce_sum",
    ]
    assert len(ops) == 12 == oracles.program_node_count(typed)
    assert temp_count(g) == 2 == oracles.program_temp_count(typed)
    assert [n.id for n in irg.ordered_walk(g)] == list(range(12))
    crossing = {g.memlocs[ml].name for _, _, ml in g.transfers}
    assert crossing == {"myLA", "myGA", "myGS"}
    edges = {(e.src_node, e.dst_node, e.arg_pos) for e in g.edges}
    assert edges == {(3, 7, 1), (7, 8, 1), (8, 9, 0), (3, 11, 0)}


def test_listing1_loop_body_details():
    g = graph_of(LISTING1, 10, 10)
    loop = g.nodes[3]
    assert loop.op_name == "loop"
    assert loop.attrs["start"] == 0 and loop.attrs["extent"] == 10
    assert irg.subgraph_span(loop) == (3, 10)
    sub = loop.subgraph
    gs_add = sub.nodes[4]
    assert gs_add.op_name == "add"
    assert g.memlocs[gs_add.result_index].name == "myGS"
    assert irg.node_placement(g, gs_add) == "controller"
    la_add = sub.nodes[6]
    assert la_add.attrs["region"] == ((1, 4, 1), (3, 5, 1))
    assert la_add.dest_slice.mem[0].start == 1 and la_add.dest_slice.mem[0].stop == 2
    assert irg.node_placement(g, la_add) == "worker"
    exit_node = sub.nodes[5]
    assert exit_node.attrs["cmp"] == ">"
    assert isinstance(exit_node.args[1], irg.ImmArg)
    assert exit_node.args[1].value == 100.0


def test_memloc_sizes():
    g = graph_of(LISTING1, 10, 10)
    by_name = {ml.name: ml for ml in g.memlocs.values()}
    assert by_name["myLA"].size_words == 10 * 2      # 10 f32 words per worker
    assert by_name["myLA"].placement == "worker"
    assert by_name["myGA"].size_words == 10 * 2
    assert by_name["myGA"].placement == "controller"
    assert by_name["mySum"].size_words == 2
    assert by_name["mySum"].placement == "worker"
    assert by_name["myGS"].placement == "controller"
    assert set(g.inits) == {g.by_name["myLA"], g.by_name["myGA"],
                            g.by_name["myGS"], g.by_name["mySum"]}


def test_ga_element_read_becomes_load():
    src = """\
la A[4,4,8] f32 = rand
ga G[6] f32 = rand
out la B[4,4,8] f32
B = A * G[3]
"""
    g = graph_of(src)
    assert [n.op_name for n in g.nodes] == ["ga_load", "mul"]
    load, mul = g.nodes
    assert load.attrs["index"] == 3
    assert g.memlocs[load.result_index].placement == "controller"
    assert isinstance(mul.args[1], irg.MemArg)
    assert mul.args[1].klass == "gs"
    assert {(e.src_node, e.dst_node, e.arg_pos) for e in g.edges} == {(0, 1, 1)}


def test_dynamic_stop_trailing_arg():
    src = """\
la A[4,4,8] f32 = rand
la B[4,4,8] f32 = rand
ls n i16 = 5
A[:, :, 0:n] = B[:, :, 0:n] * 2.0
"""
    g = graph_of(src)
    (mul,) = g.nodes
    assert mul.op_name == "mul"
    assert mul.attrs["dyn_len_arg"] == 2
    tail = mul.args[mul.attrs["dyn_len_arg"]]
    assert isinstance(tail, irg.MemArg)
    assert g.memlocs[tail.mlid].name == "n"
    assert tail.klass == "pescalar"


def test_dynamic_stop_inside_a_device_loop_is_transferred():
    src = """\
la A[4,4,8] f32 = rand
ga G[3] f32 = rand
ls n i16 = 5
for v in G {
    A[:, :, 0:n] += v
}
"""
    g = graph_of(src)
    assert {g.memlocs[ml].name for _, _, ml in g.transfers} == {"A", "G", "n"}


# sha256 over `machlite compile --emit irg` of every program and fuzz seeds 0-59
IRG_LISTING_GOLDEN = "42ae8c5dc80490901af2783cb8d8c0a96e122f4b426ee083ae6d0acf7aa832c1"


def test_irg_listings_match_golden(tmp_path, capsys):
    sources = [p.read_text() for p in PROGRAMS] + [gen_source(s) for s in range(60)]
    path = tmp_path / "prog.mach"
    h = hashlib.sha256()
    for text in sources:
        path.write_text(text)
        assert cli.main(["compile", str(path), "--emit", "irg"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == IRG_LISTING_GOLDEN


def test_scatter_reads_destination():
    src = """\
la A[4,4,8] f32 = rand
la I[4,4,3] i16 = randint(0, 8)
la S[4,4,3] f32 = rand
put(A[:, :, :], I, S)
"""
    g = graph_of(src)
    (n,) = g.nodes
    assert n.op_name == "scatter"
    assert [g.memlocs[a.mlid].name for a in n.args] == ["S", "I", "A"]
    assert g.memlocs[n.result_index].name == "A"


def test_reduce_and_shift_nodes():
    src = """\
la A[4,4,8] f32 = rand
out la B[4,4,8] f32
gs total f32 = 0.0
B = A + 1.0
shift(B[0:3, :, :], A[0:3, :, :], row, 1)
reduce(A[:, :, 0:2], total)
"""
    g = graph_of(src)
    ops = [n.op_name for n in g.nodes]
    assert ops == ["add", "shift", "reduce_sum"]
    shift = g.nodes[1]
    assert shift.attrs["axis"] == "row" and shift.attrs["offset"] == 1
    red = g.nodes[2]
    assert g.memlocs[red.result_index].name == "total"
    assert g.memlocs[red.result_index].placement == "controller"
    assert red.attrs["region"] == ((0, 4, 1), (0, 4, 1))
    assert irg.node_placement(g, red) == "worker"


def test_random_expression_trees_match_oracle():
    leaves = ["A", "B", "C", "2.0", "g", "take(A, I)"]
    ops = ["+", "-", "*"]

    def gen(rng: random.Random, depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return f"({gen(rng, depth - 1)} {rng.choice(ops)} {gen(rng, depth - 1)})"

    header = """\
la A[4,4,6] f32 = rand
la B[4,4,6] f32 = rand
la C[4,4,6] f32 = rand
la I[4,4,6] i16 = randint(0, 6)
gs g f32 = 1.5
out la E[4,4,6] f32
"""
    for seed in range(40):
        rng = random.Random(seed)
        src = header + f"E = {gen(rng, 4)}\n"
        typed = typed_of(src)
        g = irg.build(lower_to_il(typed))
        assert irg.validate(g) == [], src
        n_nodes = sum(1 for _ in irg.ordered_walk(g))
        assert n_nodes == oracles.program_node_count(typed), src
        assert temp_count(g) == oracles.program_temp_count(typed), src


def test_validate_flags_backward_edge():
    g = graph_of("""\
la A[4,4,8] f32 = rand
out la B[4,4,8] f32
B = A + 1.0
B = B * 2.0
""")
    g.edges.append(irg.IREdge(1, 0, 0, None))
    msgs = [d.message for d in irg.validate(g)]
    assert any("does not point forward" in m for m in msgs)


def test_validate_flags_missing_transfer():
    g = graph_of(LISTING1, 10, 10)
    g.transfers.pop(0)
    msgs = [d.message for d in irg.validate(g)]
    assert any("without a subgraph transfer" in m for m in msgs)


def test_empty_program_graph():
    g = graph_of("la A[4,4,8] f32 = rand\n")
    assert g.nodes == [] and g.edges == []
    assert irg.validate(g) == []


@pytest.mark.parametrize("src,expected", [
    ("gs a f32 = 1.0\ngs b f32 = 0.0\nb = a * 3.0\n", "controller"),
    ("la A[4,4,8] f32 = rand\nout la B[4,4,8] f32\nB = A * 3.0\n", "worker"),
])
def test_placement_of_scalar_vs_field(src, expected):
    g = graph_of(src)
    assert irg.node_placement(g, g.nodes[-1]) == expected
