"""mach-lite frontend: lexing, parsing and semantic analysis."""

from machlite.frontend.syntax import (
    AxisSlice,
    Assign,
    BinOp,
    DeviceFor,
    ExitIf,
    GatherMul,
    InitSpec,
    Lit,
    Pragma,
    Put,
    RangeFor,
    Reduce,
    Ref,
    Shift,
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
    "DeviceFor",
    "ExitIf",
    "GatherMul",
    "GridConfig",
    "InitSpec",
    "Lit",
    "Pragma",
    "Put",
    "RangeFor",
    "Reduce",
    "Ref",
    "Shift",
    "SourceProgram",
    "TensorDecl",
    "TypedProgram",
    "VarKind",
    "DType",
    "analyze",
    "parse",
]
