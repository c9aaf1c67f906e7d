"""mach-lite frontend: lexing, parsing and semantic analysis."""

from machlite.frontend.syntax import (
    AxisSlice,
    Assign,
    BinOp,
    Call,
    DeviceFor,
    ExitIf,
    InitSpec,
    Lit,
    Pragma,
    RangeFor,
    Ref,
    SourceProgram,
    TensorDecl,
    VarKind,
    DType,
)
from machlite.frontend.parser import parse
from machlite.frontend.semantic import GridConfig, TypedProgram, analyze

__all__ = [
    "AxisSlice",
    "Assign",
    "BinOp",
    "Call",
    "DeviceFor",
    "ExitIf",
    "GridConfig",
    "InitSpec",
    "Lit",
    "Pragma",
    "RangeFor",
    "Ref",
    "SourceProgram",
    "TensorDecl",
    "TypedProgram",
    "VarKind",
    "DType",
    "analyze",
    "parse",
]
