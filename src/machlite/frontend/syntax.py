"""Syntax tree for mach-lite programs.

Locations never participate in equality, so two parses of the same program
text laid out differently give structurally identical trees.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from machlite.diagnostics import Loc


class VarKind(enum.Enum):
    GS = "gs"      # single scalar on the controller
    GA = "ga"      # controller-resident array, element-addressable
    LS = "ls"      # one scalar per worker
    ULS = "uls"    # uniform local scalar, address known to the controller
    LA = "la"      # dense tensor distributed over the worker grid


class DType(enum.Enum):
    F32 = "f32"
    I16 = "i16"

    @property
    def words(self) -> int:
        return 2 if self is DType.F32 else 1


_NOLOC = Loc(0, 0)


def _loc_field():
    return field(default=_NOLOC, compare=False, repr=False)


@dataclass(frozen=True)
class InitSpec:
    """Declared initial contents: zeros, a constant, seeded random, or literals."""

    form: str  # "zeros" | "constant" | "rand" | "randint" | "literal"
    value: float = 0.0
    is_int: bool = False  # constant written as an integer literal
    lo: int = 0
    hi: int = 0
    values: tuple[float, ...] = ()
    ints: tuple[bool, ...] = ()  # literal: whether each value was written as an integer


@dataclass(frozen=True)
class TensorDecl:
    name: str
    kind: VarKind
    shape: tuple[int, ...]
    dtype: DType
    init: InitSpec | None = None
    output: bool = True  # tmp-declared variables may be reclaimed after last use
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class AxisSlice:
    """One surface slice axis: start:stop:step, a bare index, or a name as stop."""

    start: int | None = None
    stop: int | str | None = None
    step: int | None = None
    index: int | None = None  # set for the bare-integer form

    @staticmethod
    def full() -> "AxisSlice":
        return AxisSlice()


@dataclass(frozen=True)
class Ref:
    name: str
    axes: tuple[AxisSlice, ...] | None = None  # None: written without brackets
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Lit:
    value: float
    is_int: bool
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class FieldForm:
    """How a field form is written and which operands it takes.

    `roles` names each argument in source order.  A `table` (the array a
    gather reads or a scatter writes), an `idx` (the index) and an `elem`
    (an operand moved element for element) are references; an `axis`
    (row or col), an `offset` (+1 or -1) and a `target` (a variable's
    name) are not.  `kinds` are the variable kinds that every reference
    but the index may be, `region` whether the destination's region rule
    applies, and `expr` whether the form is an expression rather than a
    statement.

    The analyzer checks the shared operand rules of a form
    (`Analyzer.check_operands`) in this order at the form's location; the
    first rule that fails ends the check:

    - each reference but the index is a slice of one of `kinds`, and the
      index is an i16 la slice;
    - the references but the index have one dtype;
    - with `region`, every reference with a PE region selects the
      destination's (`Analyzer.check_region`, which assignments run too);
    - no reference uses a dynamic stop;
    - the index and the `elem` references have one element count (the
      table may differ).

    Each message names the form and the operand.  Checks that belong to
    one form keep their own code: the shift step and la/ls pairing, the
    reduce target, the uls-destination rules and read-before-write.
    """

    roles: tuple[str, ...]
    kinds: tuple[VarKind, ...] = (VarKind.LA,)
    region: bool = False
    expr: bool = False

    @property
    def refs(self) -> tuple[str, ...]:
        """The roles of the references, in source order."""
        return tuple(r for r in self.roles if r in ("table", "idx", "elem"))


FIELD_FORMS = {
    "take": FieldForm(("table", "idx"), expr=True),
    "gather_mul": FieldForm(("table", "idx", "elem"), expr=True),
    "put": FieldForm(("table", "idx", "elem"), region=True),
    "shift": FieldForm(("elem", "elem", "axis", "offset"),
                       (VarKind.LA, VarKind.LS, VarKind.ULS), region=True),
    "reduce": FieldForm(("elem", "target")),
}


@dataclass(frozen=True)
class Call:
    """A field form `form(args)`: one argument per role of
    `FIELD_FORMS[form]`, a Ref for a reference and the written name or
    number otherwise."""

    form: str
    args: tuple
    loc: Loc = _loc_field()


Expr = "Ref | Lit | BinOp | Call"


@dataclass(frozen=True)
class Assign:
    dst: Ref
    op: str  # "=" "+=" "-=" "*=" "/="
    expr: object
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class DeviceFor:
    var: str
    iterable: Ref  # a GA reference
    body: tuple
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class RangeFor:
    var: str
    extent: int
    body: tuple
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class ExitIf:
    lhs: object  # Ref | Lit
    cmp: str
    rhs: object
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Pragma:
    kind: str  # "host" | "ignore"
    host_inits: tuple = ()   # (name, InitSpec) pairs for @host
    body: tuple = ()         # statements for @ignore
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class SourceProgram:
    decls: tuple[TensorDecl, ...]
    stmts: tuple
    pragmas: tuple[Pragma, ...] = ()

