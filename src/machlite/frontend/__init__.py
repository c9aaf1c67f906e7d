"""mach-lite frontend: lexing, parsing, semantic analysis, IL lowering."""

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
from machlite.frontend.intermediate import ILProgram, lower_to_il

__all__ = [
    "AxisSlice",
    "Assign",
    "BinOp",
    "DeviceFor",
    "ExitIf",
    "GatherMul",
    "GridConfig",
    "ILProgram",
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
    "lower_to_il",
    "parse",
]
