"""Malformed source ends in a located diagnostic and exit code 1, never 2."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from machlite import cli
from machlite.diagnostics import DiagnosticSink
from machlite.frontend.lexer import tokenize

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mach"))


def compile_exit(tmp_path, text: str, capsys) -> tuple[int, str]:
    src = tmp_path / "prog.mach"
    src.write_text(text)
    code = cli.main(["compile", str(src)])
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
    code, err = compile_exit(tmp_path, text, capsys)
    assert code == 1
    assert err.splitlines() == [diag]


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
        code, err = compile_exit(tmp_path, text, capsys)
        if code == 2:
            crashes.append(text + err.splitlines()[-2])
    assert crashes == []
