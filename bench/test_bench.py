"""Self-tests of the benchmark: metric names and units, the correctness gate,
and self time on nested and recursive spans."""
import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    _, wl_mod = run.import_library()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(wl_mod.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert _declared("end_to_end") == {n: u for n, u, _ in run.END_TO_END}
    assert _declared("per_layer") == {n: u for n, u, _ in tracing.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result, info = run.measure(workload, seed=3, seconds=0, trace=trace,
                               fixed_samples=1, tail_samples=1, setup_reps=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared(section)
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
    assert info["provenance"]["blas_threads"] == "1"


def test_gate_fails_when_r_solve_is_perturbed():
    run.import_library()
    from sl11kit import rmatrix
    original = rmatrix.r_solve

    def perturbed(*args, **kwargs):
        rm = original(*args, **kwargs)
        return rmatrix.RMatrix(rm.matrix + rm.matrix * 1e-8, rm.form,
                               normalization=rm.normalization)
    sites = tracing.bindings(original, [rmatrix])
    for site, name in sites:
        setattr(site, name, perturbed)
    try:
        result, _ = run.measure("rmatrix-oracle", seed=3, seconds=0, trace=False,
                                fixed_samples=2, tail_samples=2, setup_reps=1)
    finally:
        for site, name in sites:
            setattr(site, name, original)
    assert not result["correct"] and result["failed"] == result["attempted"] == 2


def _synthetic_modules(clock):
    """Module ``syn`` with a recursive and a nested function, and module
    ``user`` holding them under ``from syn import ...`` names."""
    syn = types.ModuleType("syn")

    def work(dt):
        clock[0] += dt

    def rec(depth, key=0):
        work(1)
        if depth:
            syn.rec(depth - 1, key)
        work(2)

    def inner():
        work(5)
        raise ValueError("degenerate")

    def outer():
        work(1)
        try:
            syn.inner()
        except ValueError:
            pass
        work(1)

    syn.rec, syn.inner, syn.outer = rec, inner, outer
    user = types.ModuleType("user")
    user.rec, user.outer = rec, outer
    return syn, user


def test_self_time_on_nested_and_recursive_spans(monkeypatch):
    clock = [0.0]
    syn, user = _synthetic_modules(clock)
    monkeypatch.setitem(sys.modules, "syn", syn)
    targets = (tracing.Target("syn", "rec", repeat_key=lambda d, key=0: (key, ())),
               tracing.Target("syn", "inner"), tracing.Target("syn", "outer"))
    tracer = tracing.Tracer(targets, modules=[syn, user], clock=lambda: clock[0])
    tracer.begin_sample(0)
    user.rec(2)        # three nested rec spans, 3 s of self time each
    user.outer()       # outer 2 s of self time around inner's 5
    user.rec(0, key=1)
    tracer.end_sample()
    assert user.rec is syn.rec and syn.rec.__name__ == "rec" and not hasattr(syn.rec, "__wrapped__")

    stats = tracing.layer_stats(tracer.spans)
    assert stats["syn.rec"] == {"calls": 4, "self_ms": 12e3, "incl_ms": 12e3, "errors": 0}
    assert stats["syn.outer"] == {"calls": 1, "self_ms": 2e3, "incl_ms": 7e3, "errors": 0}
    assert stats["syn.inner"] == {"calls": 1, "self_ms": 5e3, "incl_ms": 5e3, "errors": 1}
    # the recursive calls nest: each rec span's parent is the one above it
    rec_spans = [s for s in tracer.spans if s[0] == "syn.rec"]
    assert [s[3] for s in rec_spans[:3]] == [-1, 0, 1]
    # keys 0, 0, 0, 1: the two inner recursive calls repeat the first key
    assert tracer.repeats["syn.rec"] == 2 and tracer.calls_keyed["syn.rec"] == 4
