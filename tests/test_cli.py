"""Malformed source and malformed command lines end in exit code 1, never 2."""
from __future__ import annotations

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


@pytest.mark.parametrize("seed", range(4))
def test_token_mutations_never_exit_2(tmp_path, capsys, seed):
    rng = random.Random(seed)
    progs = corpus_tokens()
    vocab = sorted({t for toks in progs for t in toks})
    crashes = []
    for _ in range(100):
        text = render(mutate(rng.choice(progs), vocab, rng))
        code, err = cli_exit(tmp_path, capsys, text, "compile")
        if code == 2:
            crashes.append(text + err.splitlines()[-2])
    assert crashes == []
