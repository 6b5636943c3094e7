"""The report's JSON writer against the standard library's encoder, and the
columnar report's promise that the suites and the writer build no per-case
object."""
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl11kit import report, suites
from sl11kit.cli import main
from sl11kit.report import Report, json_text

NAMES = st.text() | st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\n\t\x7f",
                                     "αβγ ü 漢字 \U0001f600", " ", "[a,b]-t"])
RESIDUALS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.nan,
                                           math.inf, -math.inf])
TOLERANCES = st.none() | st.floats()
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
PARAM_VALUES = st.recursive(SCALARS | st.complex_numbers(),
                            lambda inner: st.lists(inner, max_size=3)
                            | st.tuples(inner, inner), max_leaves=6)
PARAMS = st.dictionaries(st.text().filter(lambda k: k not in ("identity", "residual",
                                                              "tolerance")),
                         PARAM_VALUES, max_size=3)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner)
                           | st.dictionaries(st.text(), inner, max_size=3), max_leaves=8)
META = st.dictionaries(st.text() | st.sampled_from(["seed", "cases", "passed", "suite"]),
                       JSON_VALUES, max_size=3)


@st.composite
def reports(draw, nested=True):
    rpt = Report(draw(NAMES), draw(st.floats()), meta=draw(META))
    for name, residual, tolerance, params in draw(st.lists(
            st.tuples(NAMES, RESIDUALS, TOLERANCES, PARAMS), max_size=5)):
        rpt.add(name, residual, tolerance, **params)
    for _ in range(draw(st.integers(0, 2)) if nested else 0):
        sub = draw(reports(nested=False))
        if draw(st.booleans()):
            sub.tolerance = rpt.tolerance
        rpt.merge(sub, prefix=draw(st.sampled_from(["", "[0]", "[1]q-"])),
                  tolerance=draw(TOLERANCES))
    for identity, reason in draw(st.lists(st.tuples(NAMES, NAMES), max_size=2)):
        rpt.skip(identity, reason)
    rpt.warnings = draw(st.lists(st.tuples(NAMES, NAMES, st.integers(1, 9)), max_size=2))
    if draw(st.booleans()):
        rpt.override_tolerance(draw(st.floats()))
    return rpt


def _stamp(fmt):
    return "2026-01-02T03:04:05+0000"


@settings(deadline=None)
@given(reports(), st.booleans())
def test_to_json_is_the_stdlib_encoding_of_to_dict(rpt, include_timestamp):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(time, "strftime", _stamp)
        assert (rpt.to_json(include_timestamp)
                == json.dumps(rpt.to_dict(include_timestamp), indent=2))


@settings(deadline=None)
@given(JSON_VALUES)
def test_json_text_is_the_stdlib_encoding(value):
    assert json_text(value) == json.dumps(value, indent=2)


def _all_payload(reports_, seed, samples, include_timestamp):
    payload = {"suite": "all", "seed": seed, "samples": samples,
               "suites": [r.to_dict(include_timestamp=False) for r in reports_],
               "max_residual": max(r.max_residual for r in reports_),
               "passed": all(r.passed for r in reports_)}
    if include_timestamp:
        warned = [{"suite": r.suite, "category": c, "message": m, "count": n}
                  for r in reports_ for c, m, n in r.warnings]
        if warned:
            payload["warnings"] = warned
        payload["timestamp"] = _stamp(None)
    return payload


@pytest.mark.parametrize("include_timestamp", [False, True])
def test_verify_all_is_the_stdlib_encoding_of_its_payload(include_timestamp, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(time, "strftime", _stamp)
    path = tmp_path / "all.json"
    argv = ["verify", "all", "--samples", "2", "--seed", "11", "-o", str(path)]
    main(argv if include_timestamp else argv + ["--no-timestamp"])
    payload = _all_payload(suites.run_all(samples=2, seed=11), 11, 2, include_timestamp)
    assert path.read_text() == json.dumps(payload, indent=2)


def test_suites_and_the_json_writer_build_no_case_objects(monkeypatch):
    made = []
    original = report.Case.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        if original is object.__new__:  # a class that takes its fields in __init__
            return original(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(report.Case, "__new__", counting)
    rpt = suites.run_recorded("hopf", 1, 0)
    rpt.to_json()
    suites.run_suite("yangian", 1, 0)
    assert made == []
    # the counter does see the views that ``cases`` builds on request
    assert [c.identity for c in rpt.cases] == rpt.names
    assert len(made) == len(rpt.names)
