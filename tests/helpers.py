"""Shared fixtures-free helpers for the test suite."""
from __future__ import annotations

from machlite import irg
from machlite.frontend import GridConfig, analyze, parse


def typed_of(src: str, nx: int = 4, ny: int = 4):
    prog, diags = parse(src)
    assert not diags, diags
    typed, diags = analyze(prog, GridConfig(nx, ny))
    assert typed is not None, diags
    return typed


def graph_of(src: str, nx: int = 4, ny: int = 4, seed: int = 0) -> irg.IRGraph:
    return compiled(src, nx, ny, seed)[1]


def compiled(src: str, nx: int = 4, ny: int = 4, seed: int = 0):
    """(inits, graph) pair: the frozen init array of each initialized
    variable by name, and the IR graph built from them."""
    typed = typed_of(src, nx, ny)
    inits = irg.frozen_inits(typed, seed)
    g = irg.build(typed, inits)
    assert irg.validate(g) == []
    return inits, g


LISTING1 = """\
la myLA[10,10,10] f32 = rand
ga myGA[10] f32 = rand
gs myGS f32 = 0.0
uls mySum f32 = 0.0

for a in myGA {
    myGS += a
    exit_if myGS > 100.0
    myLA[1:4, 3:5, 1:2] += myLA[1:4, 3:5, 8:9]
}

reduce(myLA, mySum)
"""
