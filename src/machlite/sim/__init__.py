"""Cycle-stepped simulator for the spatial fabric."""
from .config import SimConfig
from .machine import DeadlockError, Machine
from .router import (
    ADVANCE, DATA, OPPOSITE, PORTS, RESET, Router, Wavelet, advance, data,
    reset)

__all__ = [
    "SimConfig", "Machine", "DeadlockError",
    "Router", "Wavelet", "PORTS", "OPPOSITE",
    "DATA", "ADVANCE", "RESET", "data", "advance", "reset",
]
