"""Recursive-descent parser producing a SourceProgram plus diagnostics.

parse() is total: it always returns a (possibly partial) program and a
diagnostic list rather than raising on malformed input.
"""
from __future__ import annotations

import math

from machlite.diagnostics import DiagnosticSink
from machlite.frontend.lexer import Token, tokenize
from machlite.frontend.syntax import (
    FIELD_FORMS,
    Assign,
    AxisSlice,
    BinOp,
    Call,
    DeviceFor,
    DType,
    ExitIf,
    InitSpec,
    Lit,
    Pragma,
    RangeFor,
    Ref,
    SourceProgram,
    TensorDecl,
    VarKind,
)

_KIND_WORDS = {k.value for k in VarKind}
_CMP_OPS = (">", "<", ">=", "<=", "==", "!=")


class _ParseAbort(Exception):
    pass


def _as_float(v: int | float) -> float:
    """A literal's value as a float; an integer beyond the float range
    becomes an infinity, which is outside every dtype's range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _shown(t: Token) -> str:
    return repr(t.text) if t.text else t.kind


class Parser:
    def __init__(self, tokens: list[Token], sink: DiagnosticSink):
        self.toks = tokens
        self.pos = 0
        self.sink = sink

    # --- token helpers -----------------------------------------------------

    # The token list ends in "eof" and next() never moves past it, so
    # toks[pos] is always a token; only a look ahead needs the clamp.

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.toks[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if self.at(kind, text):
            return self.next()
        want = text if text is not None else kind
        self.sink.error(f"expected {want!r}, found {_shown(t)}", t.loc)
        raise _ParseAbort

    def int_value(self, tok: Token) -> int:
        """The value of an integer token; Python converts no more than
        `sys.get_int_max_str_digits()` digits."""
        try:
            return int(tok.text)
        except ValueError:
            self.sink.error(f"integer literal of {len(tok.text)} digits is too long",
                            tok.loc)
            raise _ParseAbort from None

    def skip_newlines(self) -> None:
        while self.accept("newline"):
            pass

    def sync_to_line_end(self) -> None:
        while not self.at("eof") and not self.at("newline"):
            self.next()
        self.accept("newline")

    # --- grammar -----------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        decls: list[TensorDecl] = []
        stmts: list = []
        pragmas: list[Pragma] = []
        self.skip_newlines()
        while not self.at("eof"):
            try:
                if self.at("op", "@"):
                    pragmas.append(self.parse_pragma())
                elif self.peek().kind == "keyword" and (
                    self.peek().text in _KIND_WORDS or self.peek().text in ("out", "tmp")
                ):
                    decls.append(self.parse_decl())
                else:
                    stmts.append(self.parse_stmt())
            except _ParseAbort:
                self.sync_to_line_end()
            self.skip_newlines()
        return SourceProgram(tuple(decls), tuple(stmts), tuple(pragmas))

    def parse_decl(self) -> TensorDecl:
        output = True
        if self.accept("keyword", "tmp"):
            output = False
        else:
            self.accept("keyword", "out")
        kind_tok = self.next()
        if kind_tok.text not in _KIND_WORDS:
            self.sink.error(f"expected a declaration kind, found {kind_tok.text!r}", kind_tok.loc)
            raise _ParseAbort
        kind = VarKind(kind_tok.text)
        name = self.expect("ident")
        shape: tuple[int, ...] = ()
        if self.accept("op", "["):
            dims = [self.int_value(self.expect("int"))]
            while self.accept("op", ","):
                dims.append(self.int_value(self.expect("int")))
            self.expect("op", "]")
            shape = tuple(dims)
        dtype_tok = self.next()
        if dtype_tok.text not in ("f32", "i16"):
            self.sink.error(f"expected a dtype, found {dtype_tok.text!r}", dtype_tok.loc)
            raise _ParseAbort
        dtype = DType(dtype_tok.text)
        init = None
        if self.accept("op", "="):
            init = self.parse_init()
        self.expect_end_of_stmt()
        return TensorDecl(name.text, kind, shape, dtype, init, output, name.loc)

    def parse_init(self) -> InitSpec:
        t = self.peek()
        if self.accept("keyword", "zeros"):
            return InitSpec("zeros")
        if self.accept("keyword", "rand"):
            return InitSpec("rand")
        if self.accept("keyword", "randint"):
            self.expect("op", "(")
            lo = self.parse_signed_int()
            self.expect("op", ",")
            hi = self.parse_signed_int()
            self.expect("op", ")")
            return InitSpec("randint", lo=lo, hi=hi)
        if self.accept("op", "["):
            values = [self.parse_signed_number()]
            while self.accept("op", ","):
                values.append(self.parse_signed_number())
            self.expect("op", "]")
            return InitSpec("literal", values=tuple(_as_float(v) for v in values),
                            ints=tuple(isinstance(v, int) for v in values))
        if t.kind in ("int", "float") or t.text == "-":
            v = self.parse_signed_number()
            return InitSpec("constant", value=_as_float(v), is_int=isinstance(v, int))
        self.sink.error(f"expected an initializer, found {t.text!r}", t.loc)
        raise _ParseAbort

    def parse_signed_int(self) -> int:
        neg = bool(self.accept("op", "-"))
        if not neg:
            self.accept("op", "+")
        tok = self.expect("int")
        v = self.int_value(tok)
        return -v if neg else v

    def parse_signed_number(self) -> int | float:
        neg = bool(self.accept("op", "-"))
        if not neg:
            self.accept("op", "+")
        t = self.next()
        if t.kind == "int":
            v: int | float = self.int_value(t)
        elif t.kind == "float":
            v = float(t.text)
        else:
            self.sink.error(f"expected a number, found {t.text!r}", t.loc)
            raise _ParseAbort
        return -v if neg else v

    def parse_pragma(self) -> Pragma:
        at = self.expect("op", "@")
        name = self.next()
        if name.text == "host":
            self.expect("op", "{")
            self.skip_newlines()
            inits = []
            while not self.at("op", "}"):
                ident = self.expect("ident")
                self.expect("op", "=")
                inits.append((ident.text, self.parse_init()))
                self.skip_newlines()
            self.expect("op", "}")
            return Pragma("host", host_inits=tuple(inits), loc=at.loc)
        if name.text == "ignore":
            body = self.parse_block()
            return Pragma("ignore", body=tuple(body), loc=at.loc)
        self.sink.error(f"unknown pragma @{name.text}", at.loc)
        raise _ParseAbort

    def parse_block(self) -> list:
        self.expect("op", "{")
        self.skip_newlines()
        body: list = []
        while not self.at("op", "}") and not self.at("eof"):
            try:
                body.append(self.parse_stmt())
            except _ParseAbort:
                self.sync_to_line_end()
            self.skip_newlines()
        self.expect("op", "}")
        return body

    def expect_end_of_stmt(self) -> None:
        if self.accept("op", ";"):
            self.accept("newline")
            return
        if self.at("op", "}") or self.at("eof"):
            return
        self.expect("newline")

    def parse_stmt(self):
        t = self.peek()
        if t.kind == "keyword":
            if t.text == "for":
                return self.parse_for()
            if t.text == "exit_if":
                return self.parse_exit_if()
            if t.text in FIELD_FORMS and not FIELD_FORMS[t.text].expr:
                return self.parse_call()
        if t.kind == "ident":
            return self.parse_assign()
        self.sink.error(f"expected a statement, found {_shown(t)}", t.loc)
        raise _ParseAbort

    def parse_for(self):
        kw = self.expect("keyword", "for")
        var = self.expect("ident")
        self.expect("keyword", "in")
        if self.accept("keyword", "range"):
            self.expect("op", "(")
            extent = self.int_value(self.expect("int"))
            self.expect("op", ")")
            body = self.parse_block()
            self.expect_end_of_stmt()
            return RangeFor(var.text, extent, tuple(body), kw.loc)
        iterable = self.parse_ref()
        body = self.parse_block()
        self.expect_end_of_stmt()
        return DeviceFor(var.text, iterable, tuple(body), kw.loc)

    def parse_exit_if(self):
        kw = self.expect("keyword", "exit_if")
        lhs = self.parse_operand()
        cmp_tok = self.next()
        if cmp_tok.text not in _CMP_OPS:
            self.sink.error(f"expected a comparison, found {cmp_tok.text!r}", cmp_tok.loc)
            raise _ParseAbort
        rhs = self.parse_operand()
        self.expect_end_of_stmt()
        return ExitIf(lhs, cmp_tok.text, rhs, kw.loc)

    def parse_call(self) -> Call:
        """A field form: its keyword, then one argument per role of its
        FIELD_FORMS entry; a statement form then ends its statement."""
        kw = self.next()
        form = FIELD_FORMS[kw.text]
        self.expect("op", "(")
        args = []
        for k, role in enumerate(form.roles):
            if k:
                self.expect("op", ",")
            args.append(self.parse_arg(role))
        self.expect("op", ")")
        if not form.expr:
            self.expect_end_of_stmt()
        if "offset" in form.roles and args[form.roles.index("offset")] not in (1, -1):
            self.sink.error("shift offset must be +1 or -1", kw.loc)
            raise _ParseAbort
        return Call(kw.text, tuple(args), kw.loc)

    def parse_arg(self, role: str):
        if role == "target":
            return self.expect("ident").text
        if role == "offset":
            return self.parse_signed_int()
        if role == "axis":
            t = self.next()
            if t.text not in ("row", "col"):
                self.sink.error(f"expected 'row' or 'col', found {t.text!r}", t.loc)
                raise _ParseAbort
            return t.text
        return self.parse_ref()

    def parse_assign(self):
        dst = self.parse_ref()
        op_tok = self.next()
        if op_tok.text not in ("=", "+=", "-=", "*=", "/="):
            self.sink.error(f"expected an assignment operator, found {op_tok.text!r}", op_tok.loc)
            raise _ParseAbort
        expr = self.parse_expr()
        self.expect_end_of_stmt()
        return Assign(dst, op_tok.text, expr, dst.loc)

    # --- expressions -------------------------------------------------------

    def parse_expr(self):
        lhs = self.parse_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next()
            rhs = self.parse_term()
            lhs = BinOp(op.text, lhs, rhs, op.loc)
        return lhs

    def parse_term(self):
        lhs = self.parse_factor()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.next()
            rhs = self.parse_factor()
            lhs = BinOp(op.text, lhs, rhs, op.loc)
        return lhs

    def parse_factor(self):
        t = self.peek()
        if self.accept("op", "("):
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t.kind in ("int", "float") or t.text == "-":
            v = self.parse_signed_number()
            return Lit(_as_float(v), isinstance(v, int), t.loc)
        if t.text in FIELD_FORMS and FIELD_FORMS[t.text].expr:
            return self.parse_call()
        if t.kind == "ident":
            return self.parse_ref()
        self.sink.error(f"expected an expression, found {_shown(t)}", t.loc)
        raise _ParseAbort

    def parse_operand(self):
        t = self.peek()
        if t.kind in ("int", "float") or t.text == "-":
            v = self.parse_signed_number()
            return Lit(_as_float(v), isinstance(v, int), t.loc)
        if t.kind == "ident":
            return self.parse_ref()
        self.sink.error(f"expected a scalar operand, found {_shown(t)}", t.loc)
        raise _ParseAbort

    def parse_ref(self) -> Ref:
        name = self.expect("ident")
        if not self.at("op", "["):
            return Ref(name.text, None, name.loc)
        self.expect("op", "[")
        axes = [self.parse_axis()]
        while self.accept("op", ","):
            axes.append(self.parse_axis())
        self.expect("op", "]")
        return Ref(name.text, tuple(axes), name.loc)

    def parse_axis(self) -> AxisSlice:
        # forms: INT | [start]:[stop][:step] with stop optionally an identifier
        start: int | None = None
        if self.peek().kind == "int" and not self.at_colon_next():
            return AxisSlice(index=self.int_value(self.next()))
        if self.peek().kind == "int":
            start = self.int_value(self.next())
        self.expect("op", ":")
        stop: int | str | None = None
        if self.peek().kind == "int":
            stop = self.int_value(self.next())
        elif self.peek().kind == "ident":
            stop = self.next().text
        step: int | None = None
        if self.accept("op", ":"):
            step = self.int_value(self.expect("int"))
        return AxisSlice(start, stop, step)

    def at_colon_next(self) -> bool:
        return self.peek(1).kind == "op" and self.peek(1).text == ":"


def parse(source: str) -> tuple[SourceProgram, list]:
    """Parse mach-lite source text; always returns (program, diagnostics)."""
    sink = DiagnosticSink()
    tokens = tokenize(source, sink)
    program = Parser(tokens, sink).parse_program()
    return program, sink.items
