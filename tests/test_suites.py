"""Suite dispatch: option checking, the tolerance override and recorded skips."""
import pytest

from sl11kit import algebra, qalgebra, suites
from sl11kit.report import Report


def test_run_suite_rejects_options_the_suite_does_not_take():
    with pytest.raises(suites.UnsupportedOptionError) as err:
        suites.run_suite("hopf", samples=1, seed=0, offshell=True)
    assert err.value.options == ("offshell",)
    # options left at None are not passed
    rpt = suites.run_suite("singlet", samples=1, seed=0, offshell=None, levels=None)
    assert rpt.passed


def test_run_all_rejects_only_options_no_suite_takes():
    with pytest.raises(suites.UnsupportedOptionError) as err:
        suites.run_all(samples=1, seed=0, levels=2, bogus=1)
    assert err.value.options == ("bogus",)


def test_tolerance_override_replaces_case_tolerances():
    rpt = suites.run_suite("ybe", samples=2, seed=1, tolerance=1e-30)
    assert not rpt.passed
    assert rpt.meta["tolerance_override"] == 1e-30
    assert all(case.tolerance is None for case in rpt.cases)
    loose = suites.run_suite("ybe", samples=2, seed=1, tolerance=1.0)
    assert loose.passed and loose.tolerance == 1.0


def _degenerate(*args, **kwargs):
    raise algebra.DegenerateFusionError("fused weights on the shortening locus")


def test_hopf_records_degenerate_fusion_as_skipped(monkeypatch):
    monkeypatch.setattr(algebra, "fuse_check", _degenerate)
    monkeypatch.setattr(qalgebra, "q_fuse_check", _degenerate)
    rpt = suites.suite_hopf(samples=2, seed=0)
    reason = "fused weights on the shortening locus"
    assert rpt.skipped == [("[0]fusion", reason), ("[0]q-fusion", reason),
                           ("[1]fusion", reason), ("[1]q-fusion", reason)]
    assert not any("basis-conjugation" in c.identity for c in rpt.cases)
    d = rpt.to_dict(include_timestamp=False)
    assert d["skipped"][0] == {"identity": "[0]fusion", "reason": reason}


def test_skips_are_merged_with_prefix_and_omitted_when_empty():
    inner = Report("inner")
    inner.add("a", 0.0)
    inner.skip("b", "not applicable")
    outer = Report("outer")
    outer.merge(inner, prefix="[3]")
    assert outer.skipped == [("[3]b", "not applicable")]
    assert "skipped" not in Report("empty").to_dict(include_timestamp=False)


@pytest.mark.parametrize("samples", [0, -3])
def test_library_rejects_sample_counts_below_one(samples):
    assert issubclass(suites.SampleCountError, ValueError)
    with pytest.raises(suites.SampleCountError, match=f"got {samples}"):
        suites.run_suite("hopf", samples=samples, seed=0)
    with pytest.raises(suites.SampleCountError):
        suites.run_recorded("ybe", samples=samples, seed=0)
    with pytest.raises(suites.SampleCountError):
        suites.run_all(samples=samples, seed=0)
