"""Source diagnostics shared by the frontend and later pipeline stages."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    loc: Loc | None = None

    def __str__(self) -> str:
        where = f"{self.loc}: " if self.loc else ""
        return f"{where}{self.severity}: {self.message}"


class CompileError(Exception):
    """Raised by API entry points when a stage reports error diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class SimFault(Exception):
    """A runtime fault shared by the simulator and the reference
    interpreter: out-of-range gather or scatter indexes, dynamic stops
    outside the declared axis, and similar data-dependent failures."""


@dataclass
class DiagnosticSink:
    """Collects diagnostics during a pipeline stage."""

    items: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, loc: Loc | None = None) -> None:
        self.items.append(Diagnostic("error", message, loc))

    def warning(self, message: str, loc: Loc | None = None) -> None:
        self.items.append(Diagnostic("warning", message, loc))

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.items)
