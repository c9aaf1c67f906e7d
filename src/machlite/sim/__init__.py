"""Cycle-stepped simulator for the spatial fabric."""
from .config import SimConfig
from .machine import DeadlockError, Machine
from .router import ADVANCE, OPPOSITE, PORTS, RESET, Router, data, describe

__all__ = [
    "SimConfig", "Machine", "DeadlockError",
    "Router", "PORTS", "OPPOSITE",
    "ADVANCE", "RESET", "data", "describe",
]
