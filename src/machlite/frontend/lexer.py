"""Tokenizer for mach-lite source text.

One compiled pattern, matched at each position, skips blanks and picks the
next token: a comment, a line end, a number, a word or an operator, so a
token costs one match.  A character that none of them takes is reported and
skipped; blanks at the end of the source match as the empty `end`.
"""
from __future__ import annotations

import re

from machlite.diagnostics import DiagnosticSink, Loc
from machlite.frontend.syntax import FIELD_FORMS

KEYWORDS = {
    "gs", "ga", "ls", "uls", "la",
    "f32", "i16",
    "for", "in", "range",
    "exit_if", *FIELD_FORMS,
    "row", "col",
    "zeros", "rand", "randint",
    "out", "tmp",
}

# multi-char operators checked before single-char ones
OPERATORS = [
    "+=", "-=", "*=", "/=", ">=", "<=", "==", "!=",
    "+", "-", "*", "/", "=", ">", "<",
    "[", "]", "(", ")", "{", "}", ",", ":", ";", "@",
]

# `\d` is a decimal digit and `\w` an `isalnum` character or `_`.  A word
# match whose first character is not `isalpha` or `_`, and a number followed
# by a digit that is not decimal (`²`), go to the `other` branch.
_TOKEN = re.compile(r"[ \t\r]*(?:" + "|".join([
    r"(?P<comment>#[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
    r"(?P<other>.)",
    r"(?P<end>)",
]) + ")", re.DOTALL)


class Token:
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: Loc):
        self.kind = kind  # "ident" | "keyword" | "int" | "float" | "op" | "newline" | "eof"
        self.text = text
        self.loc = loc

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.loc})"


def _number_end(source: str, i: int) -> int:
    """End of the number starting at `i` under `isdigit`: digits, at most
    one '.' before the exponent, and one exponent with an optional sign."""
    n = len(source)
    seen_dot = seen_exp = False
    while i < n:
        c = source[i]
        if c.isdigit():
            i += 1
        elif c == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif c in "eE" and not seen_exp:
            seen_exp = True
            i += 1
            if i < n and source[i] in "+-":
                i += 1
        else:
            break
    return i


def tokenize(source: str, sink: DiagnosticSink) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    line_start = 0      # the index of column 1; a comment takes no columns
    pos, n = 0, len(source)
    while pos < n:
        m = match(source, pos)
        kind = m.lastgroup
        pos, end = m.span(kind)     # the token, after its leading blanks
        if kind == "newline":
            # collapse runs of blank lines into a single separator
            if tokens and tokens[-1].kind != "newline":
                append(Token("newline", "\n", Loc(line, pos - line_start + 1)))
            line += 1
            line_start = end
        elif kind == "comment":
            line_start += end - pos
        elif kind != "end":
            text = m.group(kind)
            loc = Loc(line, pos - line_start + 1)
            if kind == "word" and (text[0].isalpha() or text[0] == "_"):
                append(Token("keyword" if text in KEYWORDS else "ident", text, loc))
            elif kind == "op":
                append(Token("op", text, loc))
            elif kind == "number" and not source[end:end + 1].isdigit():
                if text[-1] in "eE+-":
                    sink.error(f"malformed number {text!r}", loc)
                else:
                    append(Token("float" if "." in text or "e" in text or "E" in text
                                 else "int", text, loc))
            else:
                ch = source[pos]
                if ch.isdigit() or (ch == "." and source[pos + 1:pos + 2].isdigit()):
                    # a digit that is not decimal: `int` and `float` reject it
                    end = _number_end(source, pos)
                    sink.error(f"malformed number {source[pos:end]!r}", loc)
                else:
                    end = pos + 1
                    sink.error(f"unexpected character {ch!r}", loc)
        pos = end

    col = pos - line_start + 1
    if tokens and tokens[-1].kind != "newline":
        append(Token("newline", "\n", Loc(line, col)))
    append(Token("eof", "", Loc(line, col)))
    return tokens
