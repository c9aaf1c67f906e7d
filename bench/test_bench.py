"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from machlite import pipeline
from machlite.sim import machine
from machlite.sim.router import Router
from workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())


def small(name: str, count: int):
    return dataclasses.replace(WORKLOADS[name], count=count)


@pytest.fixture(autouse=True)
def isolated_out(tmp_path, monkeypatch):
    """Keep digests and reports of these shrunken runs out of `.bench_out/`."""
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sources_identical_for_equal_seeds(name):
    wl = WORKLOADS[name]
    assert wl.sources(7) == wl.sources(7)
    assert wl.sources(7) != wl.sources(8)


def test_workloads_declared():
    assert ([(w["name"], w["why"]) for w in DECLARED["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()])


@pytest.mark.parametrize("name,count", [("fuzz_check", 6), ("compile_corpus", 20)])
def test_traced_digests_equal_untraced(name, count):
    wl = small(name, count)
    programs = wl.sources(0)
    plain = wl.run_pass(programs)
    tr = tracing.Tracer()
    originals = (machine.Machine, pipeline.parse, vars(Router)["occupancy"])
    with tracing.installed(tr):
        traced = wl.run_pass(programs)
    assert (machine.Machine, pipeline.parse, vars(Router)["occupancy"]) == originals
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    assert tr.count["frontend.parse"] == 2 * count
    assert all(end >= start for _, start, end, _ in tr.spans)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    result, details, _ = run.measure(small("fuzz_check", 3), 0, 0, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(details["passes"])
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _flip_one(res):
    """Flip a high bit of one output value."""
    mlid = min(k for k, v in res.values.items() if v.size)
    arr = np.array(res.values[mlid])
    arr.reshape(-1).view(np.uint8)[arr.itemsize - 1] ^= 0x40
    res.values[mlid] = arr
    return res


@pytest.mark.parametrize("name,owner,attr", [
    ("fuzz_check", machine.Machine, "result"),
    ("compile_corpus", pipeline, "run_reference"),
])
def test_corrupted_result_is_a_failure(monkeypatch, name, owner, attr):
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **kw: _flip_one(original(*a, **kw)))
    result, details, _ = run.measure(small(name, 2), 0, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert details["problems"]
