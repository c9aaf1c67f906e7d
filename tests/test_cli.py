"""Malformed source and malformed command lines end in exit code 1, never 2."""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from helpers import MANY_FAULTS
from machlite import cli
from machlite.diagnostics import DiagnosticSink
from machlite.frontend.lexer import tokenize
from machlite.fuzz import gen_source
from machlite.pipeline import check, compile_source

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
I16_RANGE = "[-32768, 32767]"
F32_RANGE = "[-3.4028235e+38, 3.4028235e+38]"
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
    "shift_step": (
        TWO_LA + "shift(a[0:4:2, :, :], b[0:4:2, :, :], row, 1)\n",
        "3:1: error: shift regions must be contiguous (step 1)"),
    # an la of one element per worker, so that the element counts agree
    "shift_la_with_ls": (
        "la c[4,4,1] f32 = rand\nls t f32 = rand\nshift(c, t, row, 1)\n",
        "3:1: error: shift operands must both be la or both ls"),
    "shift_offset": (
        TWO_LA + "shift(a, b, row, 2)\n",
        "3:1: error: shift offset must be +1 or -1"),
    "shift_axis": (
        TWO_LA + "shift(a, b, diag, 1)\n",
        "3:13: error: expected 'row' or 'col', found 'diag'"),
    "reduce_target_kind": (
        TWO_LA + "ls t f32 = rand\nreduce(a, t)\n",
        "4:1: error: reduce() target must be a uls or gs variable"),
    "reduce_target_dtype": (
        TWO_LA + "gs s i16 = 0\nreduce(a, s)\n",
        "4:1: error: reduce() target dtype differs from the source"),
    "take_destination_dynamic_stop": (
        INDEX + "ls n i16 = 4\na[:, :, 0:n] = take(b, i)\n",
        "5:1: error: take() does not support dynamic stops: 'a' stops at 'n'"),
    # a literal is a value of its dtype
    "i16_literal_range": (
        "la a[4,4,8] i16 = zeros\na += 70000\n",
        f"2:6: error: literal is outside the i16 range {I16_RANGE}"),
    "i16_initializer_range": (
        "la a[4,4,8] i16 = 70000\n",
        f"1:4: error: initializer of 'a' is outside the i16 range {I16_RANGE}"),
    "i16_literal_list_range": (
        "la a[4,4,1] i16 = zeros\nls n i16 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
        "13, 14, -32769]\n",
        f"2:4: error: initializer of 'n' is outside the i16 range {I16_RANGE}"),
    "randint_bounds_range": (
        "la a[4,4,8] f32 = randint(0, 32769)\n",
        f"1:4: error: randint bounds for 'a' are outside the i16 range {I16_RANGE}"),
    "f32_literal_range": (
        "la a[4,4,8] f32 = rand\na += 1e999\n",
        f"2:6: error: literal is outside the f32 range {F32_RANGE}"),
    "f32_initializer_range": (
        "la a[4,4,8] f32 = -3.5e38\n",
        f"1:4: error: initializer of 'a' is outside the f32 range {F32_RANGE}"),
    "exit_if_literal_range": (
        "la a[4,4,8] f32 = rand\nga g[2] i16 = [1, 2]\nfor v in g {\n"
        "    exit_if v > 32768\n    a += 1.0\n}\n",
        f"4:17: error: literal is outside the i16 range {I16_RANGE}"),
    # the DSL has no implicit casts, so a float literal is never an i16
    "exit_if_float_literal": (
        "la a[4,4,8] f32 = rand\nga g[2] i16 = [1, 2]\nfor v in g {\n"
        "    exit_if v >= 1.5\n    a += 1.0\n}\n",
        "4:18: error: float literal in an i16 context"),
    "i16_literal_list_float": (
        "la a[4,4,1] i16 = [1.5, 2.7, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]\n",
        "1:4: error: float initializer of 'a' in an i16 context"),
    "i16_ga_literal_list_float": (
        "ga g[3] i16 = [1.5, 2, 3]\n",
        "1:4: error: float initializer of 'g' in an i16 context"),
}


@pytest.mark.parametrize("name", sorted(ANALYZER_RULES))
def test_analyzer_rule_is_a_located_error(tmp_path, capsys, name):
    text, diag = ANALYZER_RULES[name]
    code, err = cli_exit(tmp_path, capsys, text, "compile", "--grid", "4x4")
    assert code == 1
    assert err.splitlines() == [diag]


# The form walk: each operand of each field form, one at a time, becomes a
# variable `x` of one kind while the other operands keep their base.  Every
# la holds one element per worker, so element counts agree with an ls.
WALK_DECLS = ("la a[4,4,1] f32 = rand\nla b[4,4,1] f32 = rand\n"
              "la i[4,4,1] i16 = randint(0, 1)\nls t f32 = rand\nls v f32 = rand\n"
              "gs s f32 = 1.0\nls n i16 = 1\n")
# an ls, uls, gs or dynamic-stop `x` takes its operand's base dtype
WALK_KINDS = {
    "la_f32": ("la x[4,4,1] f32 = rand", "x"),
    "la_i16": ("la x[4,4,1] i16 = randint(0, 1)", "x"),
    "ls": ("ls x {dt} = 1", "x"),
    "uls": ("uls x {dt} = 1", "x"),
    "gs": ("gs x {dt} = 1", "x"),
    "la_dyn": ("la x[4,4,1] {dt} = zeros", "x[:, :, 0:n]"),
}
OK = None
KIND = "{f}() operand 'x' must be an la slice"
KIND_LS = "{f}() operand 'x' must be an la or ls slice"
INDEX = "{f}() index 'x' must be an i16 la slice"
DYN = "{f}() does not support dynamic stops: 'x' stops at 'n'"
PAIR = "shift operands must both be la or both ls"
TARGET = "reduce() target must be a uls or gs variable"


def dtypes(first: str, second: str) -> str:
    return f"{{f}}() operand dtypes differ: {first}, {second}"


# base -> (form, statement, base operands (name, dtype), and per operand
# the outcome for each kind of WALK_KINDS, in order); the expression forms
# assign to `d`, which takes the dtype of the first operand
WALK = {
    "take": ("take", "la d[4,4,1] {dt}\nd = take({0}, {1})\n",
             (("a", "f32"), ("i", "i16")), (
                 (OK, OK, KIND, KIND, KIND, DYN),
                 (INDEX, OK, INDEX, INDEX, INDEX, DYN))),
    "gather_mul": ("gather_mul", "la d[4,4,1] {dt}\nd = gather_mul({0}, {1}, {2})\n",
                   (("a", "f32"), ("i", "i16"), ("b", "f32")), (
                       (OK, dtypes("'x' is i16", "'b' is f32"), KIND, KIND, KIND, DYN),
                       (INDEX, OK, INDEX, INDEX, INDEX, DYN),
                       (OK, dtypes("'a' is f32", "'x' is i16"), KIND, KIND, KIND, DYN))),
    "put": ("put", "put({0}, {1}, {2})\n",
            (("a", "f32"), ("i", "i16"), ("b", "f32")), (
                (OK, dtypes("'x' is i16", "'b' is f32"), KIND, KIND, KIND, DYN),
                (INDEX, OK, INDEX, INDEX, INDEX, DYN),
                (OK, dtypes("'a' is f32", "'x' is i16"), KIND, KIND, KIND, DYN))),
    "shift_la": ("shift", "shift({0}, {1}, row, 1)\n",
                 (("a", "f32"), ("b", "f32")), (
                     (OK, dtypes("'x' is i16", "'b' is f32"), PAIR, PAIR, KIND_LS, DYN),
                     (OK, dtypes("'a' is f32", "'x' is i16"), PAIR, PAIR, KIND_LS, DYN))),
    "shift_ls": ("shift", "shift({0}, {1}, col, -1)\n",
                 (("t", "f32"), ("v", "f32")), (
                     (PAIR, dtypes("'x' is i16", "'v' is f32"), OK,
                      "shift() destination 'x' is a uls, which must hold one value "
                      "on every worker", KIND_LS, DYN),
                     (PAIR, dtypes("'t' is f32", "'x' is i16"), OK, OK, KIND_LS, DYN))),
    # the target is a name, so it takes no dynamic stop
    "reduce": ("reduce", "reduce({0}, {1})\n",
               (("a", "f32"), ("s", "f32")), (
                   (OK, "reduce() target dtype differs from the source",
                    KIND, KIND, KIND, DYN),
                   (TARGET, TARGET, TARGET, OK, OK))),
}


def walk_cells():
    """(base, form, operand position, kind, source text, expected message
    or None) for every cell of WALK."""
    for base, (form, stmt, operands, outcomes) in WALK.items():
        for pos, expected in enumerate(outcomes):
            for kind, want in zip(WALK_KINDS, expected):
                decl, ref = WALK_KINDS[kind]
                ops = [name for name, _ in operands]
                ops[pos] = ref
                first_dt = "i16" if (pos, kind) == (0, "la_i16") else operands[0][1]
                text = (WALK_DECLS + decl.format(dt=operands[pos][1]) + "\n"
                        + stmt.format(*ops, dt=first_dt))
                if want is not None:
                    lines = text.splitlines()
                    loc = f"{len(lines)}:{lines[-1].index(form) + 1}"
                    want = f"{loc}: error: {want.format(f=form)}"
                yield base, form, pos, kind, text, want


def test_field_form_walk(tmp_path, capsys):
    """Every accepted cell compiles and both backends agree on it; every
    rejected cell exits 1 with its one located message, which names the
    form, and `x` too where a shared operand rule rejects it."""
    cells = list(walk_cells())
    assert len(cells) == 83
    assert sum(want is None for *_, want in cells) == 17
    wrong = []
    for base, form, pos, kind, text, want in cells:
        if want is None:
            report = check(compile_source(text, 4, 4))
            if report:
                wrong.append((base, pos, kind, report))
            continue
        assert form in want
        code, err = cli_exit(tmp_path, capsys, text, "compile", "--grid", "4x4")
        if (code, err.splitlines()) != (1, [want]):
            wrong.append((base, pos, kind, code, err))
    assert wrong == []


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


# lexer corner cases: comments (with and without a line end after them),
# blank-line runs, CRLF, tabs, number shapes, Unicode words and digits, and
# characters that are no token
TOKEN_EDGES = [
    "", "\n", "   ", "#", "# only a comment", "a = 1 # trailing comment",
    "# c1\n# c2\na = 1\n", "a = 1\n# last line comment",
    "\n\n\na = 1\n\n\n\nb = 2\n\n", "a = 1\r\nb = 2\r\n", "a = 1\r\n\r\n\r\nb\r",
    "\ta\t=\t1\n", "\t\n \t \n",
    "x = 1.2.3\n", "y = 5.e3\n", "z = .5\n", "w = x1e5\n", "n = 1e5x\n",
    "f = 1E+5 + 2e-3 - 1.\n", "g = 3..4\n", "h = 1e5e3 + 1.5.e3\n", "i = 007\n",
    "__x9 = a.b\n", "a+=-1\n", ">=<=!===\n", "+-*/=><[](){},:;@\n",
    "@host { a = 1 }\n", "aé = 1\n", "v = ٣\n", "u = ٣.٥e٢\n", "x² = ǅ\n",
    "_ = Ⅻ\n", "½\n", "$", "a = $ 1\n", "?", "b ? c\n",
]


def token_inputs():
    yield from (p.read_text() for p in PROGRAMS)
    yield from (gen_source(seed) for seed in range(1000))
    for seed in range(4):
        yield from mutations(seed)
    yield from TOKEN_EDGES


# sha256 over (kind, text, line, col) of every token, and every lexer
# diagnostic, of token_inputs()
TOKENS_GOLDEN = "247c9a5f18ec3597bfad755c28548b626503fc591d2efbb4471674a54e971a90"


def test_tokens_match_golden():
    h = hashlib.sha256()
    for text in token_inputs():
        sink = DiagnosticSink()
        for t in tokenize(text, sink):
            h.update(f"{t.kind}\0{t.text}\0{t.loc.line}\0{t.loc.col}\0".encode())
        h.update(("\n".join(str(d) for d in sink.items) + "\1").encode())
    assert h.hexdigest() == TOKENS_GOLDEN


# blanks in front of what the lexer takes next: the token's column counts
# them, a comment's does not count the comment, and the eof column counts
# trailing blanks
BLANK_FOLDING = {
    "trailing_blanks_at_eof": (
        "a = 1   ",
        [("ident", "a", 1, 1), ("op", "=", 1, 3), ("int", "1", 1, 5),
         ("newline", "\n", 1, 9), ("eof", "", 1, 9)], []),
    "blanks_then_comment_at_eof": ("  # c", [("eof", "", 1, 3)], []),
    "tab_then_comment_at_line_start": (
        "\t# c\nb\n",
        [("ident", "b", 2, 1), ("newline", "\n", 2, 2), ("eof", "", 3, 1)], []),
    "blanks_then_comment_between_lines": (
        "a\n  # c\nb = 1\n",
        [("ident", "a", 1, 1), ("newline", "\n", 1, 2), ("ident", "b", 3, 1),
         ("op", "=", 3, 3), ("int", "1", 3, 5), ("newline", "\n", 3, 6),
         ("eof", "", 4, 1)], []),
    "blanks_then_trailing_comment": (
        "a  # c",
        [("ident", "a", 1, 1), ("newline", "\n", 1, 4), ("eof", "", 1, 4)], []),
    "blanks_then_malformed_number": (
        "a =   1e\n",
        [("ident", "a", 1, 1), ("op", "=", 1, 3), ("newline", "\n", 1, 9),
         ("eof", "", 2, 1)], ["1:7: error: malformed number '1e'"]),
    "blanks_then_non_decimal_digit": (
        "v =  ²\n",
        [("ident", "v", 1, 1), ("op", "=", 1, 3), ("newline", "\n", 1, 7),
         ("eof", "", 2, 1)], ["1:6: error: malformed number '²'"]),
    "blanks_then_unexpected_character": (
        "a =   $\n",
        [("ident", "a", 1, 1), ("op", "=", 1, 3), ("newline", "\n", 1, 8),
         ("eof", "", 2, 1)], ["1:7: error: unexpected character '$'"]),
    "only_a_carriage_return": ("\r", [("eof", "", 1, 2)], []),
    "line_of_only_a_carriage_return": (
        "a\n\r\nb\r\n",
        [("ident", "a", 1, 1), ("newline", "\n", 1, 2), ("ident", "b", 3, 1),
         ("newline", "\n", 3, 3), ("eof", "", 4, 1)], []),
    "blank_lines_then_indented_word": (
        " \t\r\n\r\n  a",
        [("ident", "a", 3, 3), ("newline", "\n", 3, 4), ("eof", "", 3, 4)], []),
}


@pytest.mark.parametrize("name", sorted(BLANK_FOLDING))
def test_blank_folding(name):
    text, tokens, diags = BLANK_FOLDING[name]
    sink = DiagnosticSink()
    got = [(t.kind, t.text, t.loc.line, t.loc.col) for t in tokenize(text, sink)]
    assert (got, [str(d) for d in sink.items]) == (tokens, diags)


MALFORMED_NUMBERS = {
    "exponent_without_digits": ("a += 1e\n", "2:6: error: malformed number '1e'"),
    "exponent_sign_without_digits": ("a += 1e+\n", "2:6: error: malformed number '1e+'"),
    "superscript_digit": ("a += \u00b2\n", "2:6: error: malformed number '\u00b2'"),
    # Python converts at most 4300 digits by default
    "integer_over_the_digit_limit": (
        "a += 1" + "0" * 5000 + "\n", "2:6: error: integer literal of 5001 digits is too long"),
    "integer_beyond_the_float_range": (
        "a += 1" + "0" * 400 + "\n", f"2:6: error: literal is outside the f32 range {F32_RANGE}"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_NUMBERS))
def test_malformed_number_is_a_located_error(tmp_path, capsys, name):
    text, diag = MALFORMED_NUMBERS[name]
    code, err = cli_exit(tmp_path, capsys, "la a[4,4,8] f32 = rand\n" + text, "compile")
    assert code == 1
    assert err.splitlines()[0] == diag


def test_diff_of_equal_nans_exits_0(tmp_path, capsys):
    src = tmp_path / "nan.mach"
    src.write_text("la A[2,2,4] f32 = zeros\nout la B[2,2,4] f32\nB = A / A\n")
    assert cli.main(["diff", str(src)]) == 0
    assert capsys.readouterr() == ("all variables within tolerance\n", "")


# name -> (grid, source, fault); in the 2x2 cases only worker (0, 0) holds
# a value out of range, in the 4x4 case several workers do, and both
# backends name the least (x, y), then element
DATA_FAULTS = {
    "gather_index": (
        "2x2", "la s[2,2,8] f32 = rand\nla i[2,2,2] i16 = [9, 0, 0, 1, 2, 3, 4, 5]\n"
        "out la d[2,2,2] f32\nd = take(s, i)\n",
        "gather index 9 outside window of 8 elements at PE (0, 0), element 0"),
    "scatter_index": (
        "2x2", "la s[2,2,2] f32 = rand\nla i[2,2,2] i16 = [1, 8, 0, 1, 2, 3, 4, 5]\n"
        "la d[2,2,8] f32 = rand\nput(d, i, s)\n",
        "scatter index 8 outside window of 8 elements at PE (0, 0), element 1"),
    "dynamic_stop": (
        "2x2", "la a[2,2,8] f32 = rand\nla b[2,2,8] f32 = rand\nls n i16 = [9, 2, 8, 0]\n"
        "a[:, :, 0:n] = b[:, :, 0:n] * 2.0\n",
        "dynamic stop 9 outside [0, 8] for axis of extent 8 at PE (0, 0)"),
    "gather_index_on_many_workers": ("4x4", *MANY_FAULTS),
}


@pytest.mark.parametrize("backend", ["ref", "sim"])
@pytest.mark.parametrize("name", sorted(DATA_FAULTS))
def test_data_fault_is_the_same_on_both_backends(tmp_path, capsys, name, backend):
    grid, text, msg = DATA_FAULTS[name]
    code, err = cli_exit(tmp_path, capsys, text, "run", "--backend", backend,
                         "--grid", grid)
    assert (code, err.splitlines()) == (1, [f"error: {msg}"])


@pytest.mark.parametrize("name", sorted(DATA_FAULTS))
def test_diff_raises_the_fault_both_backends_share(tmp_path, capsys, name):
    grid, text, msg = DATA_FAULTS[name]
    code, err = cli_exit(tmp_path, capsys, text, "diff", "--grid", grid)
    assert (code, err.splitlines()) == (1, [f"error: {msg}"])
