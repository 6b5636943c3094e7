"""The benchmark's workloads: one seeded sample each, run and then checked.

A workload's ``run(seed)`` is the timed part: it calls sl11kit's public
entry points only.  ``check(raw)`` is untimed and turns what ``run``
returned into (case name, residual, tolerance) rows; a sample passes when
it raised nothing, every exit status was 0 and every residual is within its
tolerance.  A sample's inputs come from its seed alone.

Functions are called through their modules (``rmatrix.r_solve``), never
imported by name, so that the tracer's rebinding reaches every call.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sl11kit import algebra, cli, qalgebra, rmatrix, suites, zhukovski
from sl11kit.graded import max_abs

Rows = list[tuple[str, float, float]]


def _report_rows(cases: list[dict], default_tol: float, prefix: str = "") -> Rows:
    return [(prefix + c["identity"], float(c["residual"]),
             float(c.get("tolerance", default_tol))) for c in cases]


def _recorded(call: Callable, *args, **kwargs):
    """Call the library directly, recording (not muting) its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args, **kwargs)
    return out, len(caught)


# -- yangian-tower ----------------------------------------------------------------

def yangian_run(seed: int, workdir: Path):
    return _recorded(suites.run_suite, "yangian", samples=1, seed=seed,
                     levels=4, order=6)


def yangian_check(raw) -> tuple[Rows, int]:
    rpt, n_warn = raw
    return _report_rows([c.to_dict() for c in rpt.cases], rpt.tolerance), n_warn


# -- hopf-affine ------------------------------------------------------------------

_CLI_SUITES = ("hopf", "affine", "singlet")


def hopf_run(seed: int, workdir: Path):
    out = []
    for suite in _CLI_SUITES:
        path = workdir / f"{suite}.json"
        code = cli.main(["verify", suite, "--samples", "1", "--seed", str(seed),
                         "--no-timestamp", "-o", str(path)])
        out.append((suite, code, path))
    return out


def hopf_check(raw) -> tuple[Rows, int]:
    rows: Rows = []
    for suite, code, path in raw:
        payload = json.loads(path.read_text())
        suite_rows = _report_rows(payload["cases"], payload["tolerance"], f"{suite}:")
        worst = max(r for _, r, _ in suite_rows)
        # the exit status, the report's own verdict and the recomputed one agree
        rows.append((f"{suite}:exit-status", float(code != 0), 0.0))
        rows.append((f"{suite}:passed-flag", float(payload["passed"] is not True), 0.0))
        rows.append((f"{suite}:max-residual-field",
                     abs(payload["max_residual"] - worst), 0.0))
        rows.extend(suite_rows)
    return rows, 0  # the CLI mutes library warnings itself


# -- rmatrix-oracle ---------------------------------------------------------------

def _magnon_labels(rng, h: float):
    """Labels of one left-moving magnon drawn as acceptance criterion 8 draws them."""
    zp = zhukovski.zhukovski_solve(rng.uniform(0.2, 2.9), rng.uniform(0.0, 3.0), h)
    labels, _ = zhukovski.left_labels(zp)
    return labels, max(zp.residuals())


def _oracle_rows(rows: Rows, tag: str, labels, reps, closed) -> None:
    for i, j in ((0, 1), (1, 2)):
        rc = closed(labels[i], labels[j])
        rs = rmatrix.r_solve(reps[i], reps[j], match_r11=rc.normalization)
        rows.append((f"{tag}closed-vs-solved[{i}{j}]", max_abs(rs.m - rc.m), 1e-10))


def oracle_run(seed: int, workdir: Path):
    def sample():
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.5, 2.0)
        rows: Rows = []
        labels = []
        for k in range(3):
            lab, shell = _magnon_labels(rng, h)
            labels.append(lab)
            rows.append((f"shell[{k}]", shell, 1e-10))
        reps = [algebra.atypical_rep(lab) for lab in labels]
        _oracle_rows(rows, "", labels, reps, rmatrix.r_closed)
        rows.append(("ybe", rmatrix.ybe_residual(*labels), 1e-10))
        q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
        qlabels = [suites.draw_qlabels(rng, q, alpha) for _ in range(3)]
        qreps = [qalgebra.q_atypical_rep(lab) for lab in qlabels]
        _oracle_rows(rows, "q-", qlabels, qreps, rmatrix.rq_closed)
        rows.append(("q-ybe", rmatrix.ybe_residual(*qlabels, which="deformed"), 1e-9))
        return rows
    return _recorded(sample)


def oracle_check(raw) -> tuple[Rows, int]:
    return raw


@dataclass(frozen=True)
class Workload:
    run: Callable
    check: Callable
    #: tail percentile reported as sample_ms_tail: one of 75/90/95 that leaves
    #: at least ten samples beyond it, with margin for a slow host, at the
    #: default run length (a run extends until it does)
    tail_pct: int
    #: the first this-many samples always run; the residual and the digest
    #: of case names and pass flags cover exactly them, so both are fixed by
    #: the seed while the number of samples a timed run reaches is not
    fixed_samples: int


# Why each workload (see BENCHMARK.json): yangian-tower is where memoising the
# level coproduct and caching Koszul signs would show; hopf-affine spreads over
# the four Hopf interpreters and the CLI; rmatrix-oracle draws fresh labels
# every sample, so a coproduct cache must show no gain there.
WORKLOADS = {
    "yangian-tower": Workload(yangian_run, yangian_check, tail_pct=75, fixed_samples=24),
    "hopf-affine": Workload(hopf_run, hopf_check, tail_pct=90, fixed_samples=200),
    "rmatrix-oracle": Workload(oracle_run, oracle_check, tail_pct=95, fixed_samples=600),
}
