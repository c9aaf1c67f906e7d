"""Malformed source and malformed command lines end in exit code 1, never 2."""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from machlite import cli
from machlite.diagnostics import DiagnosticSink
from machlite.frontend.lexer import tokenize

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))


def cli_exit(tmp_path, capsys, text: str, *argv: str) -> tuple[int, str]:
    """Exit code and stderr of `machlite argv[0] FILE argv[1:]` on `text`."""
    src = tmp_path / "prog.mach"
    src.write_text(text)
    code = cli.main([argv[0], str(src), *argv[1:]])
    return code, capsys.readouterr().err


SHAPELESS = {
    "ga_loop": ("la u[4,4,8] f32 = rand\nga g f32\nfor v in g {\n    u += v\n}\n",
                "2:4: error: ga 'g' needs a 1-D shape"),
    "ga_element": ("la u[4,4,8] f32 = rand\nga g f32\ngs s f32 = 0.0\ns += g[0]\n",
                   "2:4: error: ga 'g' needs a 1-D shape"),
    "la_operand": ("la u[4,4,8] f32 = rand\nla t f32\nu += t\n",
                   "2:4: error: la 't' must have rank >= 3"),
    "la_first": ("la t f32\nla u[4,4,8] f32 = rand\nu += t\n",
                 "1:4: error: la 't' must have rank >= 3"),
}


@pytest.mark.parametrize("name", sorted(SHAPELESS))
def test_shapeless_declaration_is_a_located_error(tmp_path, capsys, name):
    text, diag = SHAPELESS[name]
    code, err = cli_exit(tmp_path, capsys, text, "compile")
    assert code == 1
    assert err.splitlines() == [diag]


TWO_LA = "la a[4,4,8] f32 = rand\nla b[4,4,8] f32 = rand\n"
INDEX = TWO_LA + "la i[4,4,8] i16 = randint(0, 8)\n"
WORKERS = "participates on ((0, 2, 1), (0, 4, 1)), statement region is ((0, 4, 1), (0, 4, 1))"
SAME_WORKERS = "; slices must select the same workers"
ANALYZER_RULES = {
    "take_index_read_before_write": (
        "la a[4,4,8] f32 = rand\nla i[4,4,8] i16\nout la d[4,4,8] f32\nd = take(a, i)\n",
        "4:1: error: 'i' is read before any value is written"),
    "two_dynamic_stops": (
        TWO_LA + "ls n i16 = 5\nls k i16 = 3\na[:, :, 0:n] = b[:, :, 0:k]\n",
        "5:1: error: all operands must share a single dynamic stop"),
    "operand_off_the_dynamic_stop": (
        TWO_LA + "ls n i16 = 5\na[:, :, 0:n] = b * 2.0\n",
        "4:1: error: operand 'b' must use the shared dynamic stop 'n'"),
    "operand_count_mismatch": (
        TWO_LA + "a = (b + 1.0) + a[:, :, 0:4]\n",
        "3:15: error: element count mismatch 8 vs 4"),
    "destination_count_mismatch": (
        TWO_LA + "la i[4,4,8] i16 = randint(0, 8)\na[:, :, 0:4] = take(b, i)\n",
        "4:1: error: element count mismatch: destination 4, expression 8"),
    # the shared operand rules of the field forms
    "region_reference": (
        TWO_LA + "a = b[0:2, :, :]\n",
        f"3:1: error: operand 'b' {WORKERS}{SAME_WORKERS}"),
    "region_take": (
        INDEX + "a = take(b, i[0:2, :, :])\n",
        f"4:1: error: operand 'i' {WORKERS}{SAME_WORKERS}"),
    "region_gather_mul": (
        INDEX + "a = gather_mul(b, i, a[0:2, :, :])\n",
        f"4:1: error: operand 'a' {WORKERS}{SAME_WORKERS}"),
    "region_shift": (
        TWO_LA + "shift(a, b[0:2, :, :], row, 1)\n",
        f"3:1: error: operand 'b' {WORKERS}{SAME_WORKERS}"),
    "region_put": (
        INDEX + "put(a, i, b[0:2, :, :])\n",
        f"4:1: error: operand 'b' {WORKERS}{SAME_WORKERS}"),
    "operand_kind": (
        TWO_LA + "gs s f32 = 1.0\nreduce(s, s)\n",
        "4:1: error: reduce() operand 's' must be an la slice"),
    "index_kind": (
        TWO_LA + "a = take(b, a)\n",
        "3:5: error: take() index 'a' must be an i16 la slice"),
    "operand_dtypes": (
        INDEX + "shift(a, i, col, -1)\n",
        "4:1: error: shift() operand dtypes differ: 'a' is f32, 'i' is i16"),
    "operand_dynamic_stop": (
        INDEX + "ls n i16 = 4\nput(a, i, b[:, :, 0:n])\n",
        "5:1: error: put() does not support dynamic stops: 'b' stops at 'n'"),
    "operand_counts": (
        INDEX + "a = gather_mul(b, i, a[:, :, 0:4])\n",
        "4:5: error: gather_mul() element counts differ: 'i' has 8, 'a' has 4"),
    # the rules of one form
    "reduce_into_loop_variable": (
        TWO_LA + "ga g[3] f32 = rand\nfor v in g {\n    reduce(b, v)\n}\n",
        "5:5: error: reduce() target 'v' is a loop variable, not a uls or gs variable"),
    "shift_into_uls": (
        "uls s f32 = 1.0\nls t f32 = rand\nshift(s, t, row, 1)\n",
        "3:1: error: shift() destination 's' is a uls, which must hold one value "
        "on every worker"),
}


@pytest.mark.parametrize("name", sorted(ANALYZER_RULES))
def test_analyzer_rule_is_a_located_error(tmp_path, capsys, name):
    text, diag = ANALYZER_RULES[name]
    code, err = cli_exit(tmp_path, capsys, text, "compile", "--grid", "4x4")
    assert code == 1
    assert err.splitlines() == [diag]


SMALL_LA = "la a[2,2,4] f32{init}\nla b[4,4,4] f32 = rand\n"
RUNS = [("compile",), ("run", "--backend", "ref"), ("run", "--backend", "sim"), ("diff",)]


@pytest.mark.parametrize("argv", RUNS, ids=lambda a: "-".join(a))
def test_initialized_la_smaller_than_grid_is_a_located_error(tmp_path, capsys, argv):
    text = SMALL_LA.format(init=" = rand") + "b += 1.0\n"
    code, err = cli_exit(tmp_path, capsys, text, *argv, "--grid", "4x4")
    assert code == 1
    assert err.splitlines() == [
        "1:4: error: initialized la 'a' grid dims (2, 2) must equal the 4x4 worker grid"]


def test_uninitialized_la_smaller_than_grid_runs(tmp_path, capsys):
    text = SMALL_LA.format(init="") + "a[0:2, 0:2, :] = b[0:2, 0:2, :]\n"
    assert cli_exit(tmp_path, capsys, text, "diff", "--grid", "4x4") == (0, "")


@pytest.mark.parametrize("grid", ["abc", "2x2x2"])
def test_malformed_grid_is_a_user_error(tmp_path, capsys, grid):
    code, err = cli_exit(tmp_path, capsys, PROGRAMS[0].read_text(),
                         "compile", "--grid", grid)
    assert code == 1
    assert err.splitlines() == [f"error: bad grid {grid!r}, expected WxH"]


USAGE_ERRORS = {
    "no_subcommand": [],
    "run_without_backend": ["run", str(PROGRAMS[0])],
    "unknown_backend": ["run", str(PROGRAMS[0]), "--backend", "foo"],
    "non_integer_count": ["fuzz", "--programs", "x"],
    "grid_read_as_an_option": ["compile", str(PROGRAMS[0]), "--grid", "-2x2"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_1(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(USAGE_ERRORS[name])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: machlite" in capsys.readouterr().out


def test_run_leaves_numpy_print_options_alone(capsys):
    before = np.get_printoptions()
    assert cli.main(["run", str(PROGRAMS[0]), "--backend", "ref"]) == 0
    assert "shape=" in capsys.readouterr().out
    assert np.get_printoptions() == before


def test_run_trace_writes_events(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, _ = cli_exit(tmp_path, capsys, PROGRAMS[0].read_text(),
                       "run", "--backend", "sim", "--trace", str(trace))
    assert code == 0
    kinds = {line.split()[1] for line in trace.read_text().splitlines()}
    assert "section_broadcast" in kinds


def test_directory_as_source_is_a_user_error(tmp_path, capsys):
    code = cli.main(["compile", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot open {tmp_path}: Is a directory"]


def test_unwritable_trace_path_is_a_user_error(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.txt"
    code, err = cli_exit(tmp_path, capsys, PROGRAMS[0].read_text(),
                         "run", "--backend", "sim", "--trace", str(trace))
    assert code == 1
    assert err.splitlines() == [f"error: cannot open {trace}: No such file or directory"]


def mutate(tokens: list[str], vocab: list[str], rng: random.Random) -> list[str]:
    out = list(tokens)
    i = rng.randrange(len(out))
    how = rng.choice(("delete", "delete_run", "delete_brackets", "duplicate",
                      "replace", "swap"))
    if how == "delete_brackets" and "[" in out:
        # drop a whole shape or slice: from one '[' to the next ']'
        i = rng.choice([k for k, t in enumerate(out) if t == "["])
        del out[i:out.index("]", i) + 1]
    elif how == "delete":
        del out[i]
    elif how == "delete_run":
        del out[i:i + rng.randint(2, 3)]
    elif how == "duplicate":
        out.insert(i, out[i])
    elif how == "replace":
        out[i] = rng.choice(vocab)
    elif i + 1 < len(out):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def render(tokens: list[str]) -> str:
    return " ".join(tokens).replace(" \n ", "\n").strip() + "\n"


def corpus_tokens() -> list[list[str]]:
    return [[t.text for t in tokenize(p.read_text(), DiagnosticSink()) if t.kind != "eof"]
            for p in PROGRAMS]


def mutations(seed: int):
    """100 single-token mutations of the corpus, seeded."""
    rng = random.Random(seed)
    progs = corpus_tokens()
    vocab = sorted({t for toks in progs for t in toks})
    for _ in range(100):
        yield render(mutate(rng.choice(progs), vocab, rng))


@pytest.mark.parametrize("seed", range(4))
def test_token_mutations_never_exit_2(tmp_path, capsys, seed):
    crashes = []
    for text in mutations(seed):
        code, err = cli_exit(tmp_path, capsys, text, "compile")
        if code == 2:
            crashes.append(text + err.splitlines()[-2])
    assert crashes == []


# sha256 over the exit code and stderr of `machlite compile` on the
# mutations of seeds 0-3: every diagnostic, its order and its location
MUTATION_DIAGNOSTICS_GOLDEN = "7ce9c3a724ecd5cf46eb2c8d15135d4a275c634f02206ad431318f99f11dedad"


def test_mutation_diagnostics_match_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MACHLITE_COLOR", "0")
    h = hashlib.sha256()
    for seed in range(4):
        for text in mutations(seed):
            code, err = cli_exit(tmp_path, capsys, text, "compile")
            h.update(f"{code}\n{err}\0".encode())
    assert h.hexdigest() == MUTATION_DIAGNOSTICS_GOLDEN
