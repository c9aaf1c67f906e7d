"""Simulator configuration knobs."""
from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import CompileError, Diagnostic


@dataclass
class SimConfig:
    hop_latency_cycles: int = 1
    control_path_latency: int = 10
    rpc_setup_cycles: int = 55
    fifo_depth: int = 4
    deadlock_window: int = 10_000
    max_cycles: int = 20_000_000
    trace: bool = False       # record Machine.trace events (run --trace)

    def validate(self) -> None:
        errs = []
        for name in ("hop_latency_cycles", "control_path_latency",
                     "rpc_setup_cycles", "fifo_depth", "deadlock_window",
                     "max_cycles"):
            if getattr(self, name) < 1:
                errs.append(Diagnostic("error", f"{name} must be positive"))
        floor = 3 * self.hop_latency_cycles + 3
        if self.control_path_latency < floor:
            errs.append(Diagnostic(
                "error",
                f"control_path_latency {self.control_path_latency} is below the "
                f"physical floor {floor} for hop latency {self.hop_latency_cycles}"))
        if errs:
            raise CompileError(errs)
