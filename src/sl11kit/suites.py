"""Named verification suites over seeded random label draws.

Sampling conventions: gamma from the annulus 0.5 <= |gamma| <= 2 with a
uniform phase, nu on the unit circle (an annulus under ``offshell``),
q = 1 + r e^{i phi} with r in [0.1, 0.3], couplings alpha1 = -alpha2 = -h/2
with h in [0.5, 2].  Per-sample generators are spawned from one seed
sequence, so a fixed (suite, seed, samples) triple reproduces every draw.
"""
from __future__ import annotations

import inspect
import warnings
from functools import partial

import numpy as np

from . import algebra, coproduct, qaffine, qalgebra, rmatrix, yangian
from .algebra import RepLabels
from .qalgebra import QRepLabels
from .report import Report


def _child_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _annulus(rng, rmin=0.5, rmax=2.0) -> complex:
    radius = np.exp(rng.uniform(np.log(rmin), np.log(rmax)))
    return radius * np.exp(2j * np.pi * rng.uniform())


def _phase(rng) -> complex:
    return np.exp(2j * np.pi * rng.uniform())


def draw_alpha(rng) -> tuple[complex, complex]:
    h = rng.uniform(0.5, 2.0)
    return (-h / 2, h / 2)


def draw_labels(rng, alpha=None, offshell: bool = False) -> RepLabels:
    alpha = alpha or draw_alpha(rng)
    nu = _annulus(rng, 0.7, 1.4) if offshell else _phase(rng)
    # keep nu away from the degenerate fourth roots of unity
    while abs(nu**2 - nu**-2) < 0.1:
        nu = _annulus(rng, 0.7, 1.4) if offshell else _phase(rng)
    return RepLabels(_annulus(rng), nu, *alpha)


def draw_q(rng) -> complex:
    return 1 + rng.uniform(0.1, 0.3) * np.exp(2j * np.pi * rng.uniform())


def draw_qlabels(rng, q=None, alpha=None) -> QRepLabels:
    alpha = alpha or draw_alpha(rng)
    q = q if q is not None else draw_q(rng)
    nu = _phase(rng)
    while abs(nu**4 - 1) < 0.1:
        nu = _phase(rng)
    lam1 = _annulus(rng, 0.3, 1.0)
    root = int(rng.integers(2))
    return qalgebra.q_root_labels(lam1, nu, q, alpha, root)


def _label_params(tag, lab) -> dict:
    fields = (("gamma", "nu", "alpha1") if isinstance(lab, RepLabels)
              else ("gamma", "nu", "q", "qlam1", "qlam2", "alpha1"))
    return {f"{tag}.{name}": getattr(lab, name) for name in fields}


def suite_ybe(samples: int = 100, seed: int = 0, tolerance: float = 1e-10,
              deformed_tolerance: float = 1e-9, offshell: bool = False) -> Report:
    """Yang-Baxter residuals over random undeformed and deformed triples."""
    rpt = Report("ybe", tolerance, meta={"seed": seed, "samples": samples})
    for k, rng in enumerate(_child_rngs(seed, samples)):
        alpha = draw_alpha(rng)
        triple = [draw_labels(rng, alpha, offshell) for _ in range(3)]
        res = rmatrix.ybe_residual(*triple, which="undeformed")
        rpt.add(f"ybe-undeformed[{k}]", res,
                **{k2: v for lab, t in zip(triple, "abc")
                   for k2, v in _label_params(t, lab).items()})
        q = draw_q(rng)
        qalpha = draw_alpha(rng)
        qtriple = [draw_qlabels(rng, q, qalpha) for _ in range(3)]
        res = rmatrix.ybe_residual(*qtriple, which="deformed")
        rpt.add(f"ybe-deformed[{k}]", res, tolerance=deformed_tolerance, q=q)
    return rpt


def _hopf_axioms(rpt: Report, prefix: str, reps) -> None:
    """Merge, under ``prefix``, coassociativity on the three modules, the counit and
    antipode on the first and cocommutativity on the first two, on their kind's table."""
    rpt.merge(coproduct.coassociativity_report(*reps), prefix)
    rpt.merge(coproduct.counit_antipode_report(reps[0], 1e-12), prefix)
    rpt.merge(coproduct.cocommutativity_report(reps[0], reps[1], 1e-12), prefix)


#: The Klein-four twists whose relations the hopf suite checks, in report order.
_TWISTS = ("ef", "ef_cross", "nodes")


def _with_twists(rep) -> list:
    """``rep`` and its :data:`_TWISTS`, to be checked in one relation pass."""
    return [rep, *(algebra.klein_twist(name, rep) for name in _TWISTS)]


def suite_hopf(samples: int = 10, seed: int = 0, tolerance: float = 1e-10) -> Report:
    """Hopf-structure and module-theory checks, undeformed and deformed, and the
    Hopf axioms on the affine evaluation modules of the deformed labels."""
    rpt = Report("hopf", tolerance, meta={"seed": seed, "samples": samples})
    for k, rng in enumerate(_child_rngs(seed, samples)):
        merge = partial(rpt.merge, prefix=f"[{k}]")
        alpha = draw_alpha(rng)
        labs = [draw_labels(rng, alpha) for _ in range(3)]
        reps = [algebra.atypical_rep(lab) for lab in labs]
        _hopf_axioms(rpt, f"[{k}]", reps)
        relations, *twisted = algebra.check_relations(_with_twists(reps[0]), 1e-12)
        merge(relations)
        try:
            merge(algebra.fuse_check(labs[0], labs[1]).report)
        except algebra.DegenerateFusionError as err:
            rpt.skip(f"[{k}]fusion", str(err))
        for name, twist in zip(_TWISTS, twisted):
            rpt.add(f"[{k}]twist:{name}", twist.max_residual, tolerance=1e-11)
        q = draw_q(rng)
        qalpha = draw_alpha(rng)
        qlabs = [draw_qlabels(rng, q, qalpha) for _ in range(3)]
        qreps = [qalgebra.q_atypical_rep(lab) for lab in qlabs]
        _hopf_axioms(rpt, f"[{k}]", qreps)
        merge(qalgebra.q_hom_report(qreps[0], qreps[1], 1e-11), tolerance=1e-11)
        relations, *twisted = qalgebra.q_check_relations(_with_twists(qreps[0]), 1e-11)
        merge(relations, tolerance=1e-11)
        try:
            merge(qalgebra.q_fuse_check(qlabs[0], qlabs[1]).report)
        except algebra.DegenerateFusionError as err:
            rpt.skip(f"[{k}]q-fusion", str(err))
        for name, twist in zip(_TWISTS, twisted):
            rpt.add(f"[{k}]q-twist:{name}", twist.max_residual, tolerance=1e-11)
        # the affine and deformed tables share generator names
        _hopf_axioms(rpt, f"[{k}]affine-", [qaffine.affine_eval_rep(lab) for lab in qlabs])
    return rpt


def _singlet_partner(lab: RepLabels, sign: int) -> RepLabels:
    return RepLabels(sign * lab.gamma, 1 / lab.nu, lab.alpha1, lab.alpha2)


def _q_singlet_partner(lab: QRepLabels, sign: int) -> QRepLabels:
    return QRepLabels(sign * lab.gamma, 1 / lab.nu, lab.q, 1 / lab.qlam1,
                      1 / lab.qlam2, lab.alpha1, lab.alpha2)


def suite_singlet(samples: int = 20, seed: int = 0, tolerance: float = 1e-11) -> Report:
    """Annihilation of the invariant vectors on compatible label pairs."""
    rpt = Report("singlet", tolerance, meta={"seed": seed, "samples": samples})
    for k, rng in enumerate(_child_rngs(seed, samples)):
        lab = draw_labels(rng)
        sign = 1 if rng.integers(2) else -1
        rpt.merge(algebra.singlet_report(lab, _singlet_partner(lab, sign)), prefix=f"[{k}]")
        qlab = draw_qlabels(rng)
        rpt.merge(qalgebra.q_singlet_report(qlab, _q_singlet_partner(qlab, sign)),
                  prefix=f"[{k}]q-")
    return rpt


def suite_yangian(samples: int = 20, seed: int = 0, levels: int = 4,
                  order: int = 6, tolerance: float = 1e-9) -> Report:
    """Level brackets, coproduct tower, twist equivalence, currents, antipode,
    and intertwining for the infinite-dimensional extension."""
    rpt = Report("yangian", tolerance, meta={"seed": seed, "samples": samples,
                                             "levels": levels, "order": order})
    for k, rng in enumerate(_child_rngs(seed, samples)):
        alpha = draw_alpha(rng)
        la, lb = draw_labels(rng, alpha), draw_labels(rng, alpha)
        eva, evb = yangian.scaled_eval_pair(la, lb)
        rpt.merge(yangian.kir_report(eva), prefix=f"[{k}]", tolerance=1e-12)
        rpt.add(f"[{k}]level-brackets",
                yangian.level_bracket_report(eva, 2 * levels).max_residual,
                tolerance=1e-11)
        rpt.add(f"[{k}]coproduct-hom",
                yangian.coproduct_hom_report(eva, evb, levels).max_residual,
                tolerance=1e-10)
        rpt.add(f"[{k}]k-cocommutativity",
                yangian.k_cocommutativity_report(eva, evb, levels).max_residual,
                tolerance=1e-10)
        eps1, eps2 = _annulus(rng, 0.5, 1.5), _annulus(rng, 0.5, 1.5)
        rpt.add(f"[{k}]omega-twist",
                yangian.omega_twist_equivalence(eva, evb, eps1, eps2, 3).max_residual,
                tolerance=1e-10, eps1=eps1, eps2=eps2)
        rpt.add(f"[{k}]omega-brackets",
                yangian.omega_preserves_brackets_report(eva, eps1, eps2).max_residual,
                tolerance=1e-11)
        rpt.add(f"[{k}]current-relations",
                yangian.current_relations_report(eva, order).max_residual,
                tolerance=1e-11)
        rpt.add(f"[{k}]antipode",
                yangian.antipode_report(eva, 4).max_residual, tolerance=1e-10)
        rpt.add(f"[{k}]intertwining",
                yangian.yangian_intertwine(la, lb, levels).max_residual,
                tolerance=1e-9, **_label_params("a", la), **_label_params("b", lb))
    return rpt


def suite_affine(samples: int = 20, seed: int = 0, tolerance: float = 1e-9) -> Report:
    """Affine relation, variant, and intertwining checks on random deformed labels."""
    rpt = Report("affine", tolerance, meta={"seed": seed, "samples": samples})
    for k, rng in enumerate(_child_rngs(seed, samples)):
        q = draw_q(rng)
        alpha = draw_alpha(rng)
        la, lb = draw_qlabels(rng, q, alpha), draw_qlabels(rng, q, alpha)
        ra = qaffine.affine_eval_rep(la)
        rb = qaffine.affine_eval_rep(lb)
        # the standard and beta modules share a table: one pass; the swapped one has its own
        relations, beta = qaffine.affine_relations_report(
            [ra, qaffine.affine_eval_rep(la, beta=-1.0)])
        rpt.add(f"[{k}]relations", relations.max_residual,
                tolerance=1e-11, **_label_params("a", la))
        rpt.add(f"[{k}]relations-swapped",
                qaffine.affine_relations_report(
                    qaffine.affine_eval_rep(la, "swapped")).max_residual,
                tolerance=1e-11)
        rpt.add(f"[{k}]relations-beta", beta.max_residual, tolerance=1e-11)
        rpt.add(f"[{k}]coproduct-hom",
                qaffine.affine_hom_report(ra, rb).max_residual, tolerance=1e-10)
        rpt.add(f"[{k}]intertwining",
                qaffine.affine_intertwine(la, lb).max_residual, tolerance=1e-9)
        rpt.add(f"[{k}]intertwining-beta",
                qaffine.affine_intertwine(la, lb, beta=-1.0).max_residual,
                tolerance=1e-9)
        rpt.add(f"[{k}]upper-nodes-subalgebra",
                qalgebra.q_check_relations(
                    qaffine.upper_nodes_subalgebra(ra)).max_residual,
                tolerance=1e-11)
    return rpt


SUITES = {
    "ybe": suite_ybe,
    "hopf": suite_hopf,
    "yangian": suite_yangian,
    "affine": suite_affine,
    "singlet": suite_singlet,
}


#: Options each suite takes besides ``samples`` and ``seed``.
_OPTIONS = {name: frozenset(inspect.signature(fn).parameters) - {"samples", "seed"}
            for name, fn in SUITES.items()}


class UnsupportedOptionError(TypeError):
    """A suite was given an option it does not take."""

    def __init__(self, suite: str, options):
        self.options = tuple(options)
        super().__init__(f"suite {suite!r} does not take {', '.join(self.options)}")


class SampleCountError(ValueError):
    """A suite was asked for fewer than one sample."""


def run_suite(name: str, samples: int, seed: int, **options) -> Report:
    """Run one named suite.

    A ``samples`` count below 1 raises :class:`SampleCountError`.  Options
    left at ``None`` are not passed; any other option the suite does not take
    raises :class:`UnsupportedOptionError`.  An explicit ``tolerance`` applies
    to every case, replacing per-case tolerances, and the report records it
    as ``tolerance_override``.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if samples < 1:
        raise SampleCountError(f"samples must be at least 1, got {samples}")
    options = {k: v for k, v in options.items() if v is not None}
    unknown = [k for k in options if k not in _OPTIONS[name]]
    if unknown:
        raise UnsupportedOptionError(name, unknown)
    tolerance = options.pop("tolerance", None)
    rpt = SUITES[name](samples=samples, seed=seed, **options)
    if tolerance is not None:
        rpt.override_tolerance(tolerance)
    return rpt


def run_all(samples: int = 20, seed: int = 0, **options) -> list[Report]:
    """Every named suite with per-suite sub-seeds split from one master seed.

    Each suite gets the options it takes; an option no suite takes raises
    :class:`UnsupportedOptionError`.  Warnings are recorded per suite, as
    :func:`run_recorded` does.
    """
    options = {k: v for k, v in options.items() if v is not None}
    unknown = [k for k in options if not any(k in opts for opts in _OPTIONS.values())]
    if unknown:
        raise UnsupportedOptionError("all", unknown)
    seeds = {name: seed + i for i, name in enumerate(SUITES)}
    out = []
    for name in SUITES:
        taken = {k: v for k, v in options.items() if k in _OPTIONS[name]}
        out.append(run_recorded(name, samples=samples, seed=seeds[name], **taken))
    return out


def run_recorded(name: str, samples: int, seed: int, **options) -> Report:
    """:func:`run_suite` with every warning it raises counted in the report's
    ``warnings`` instead of shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rpt = run_suite(name, samples=samples, seed=seed, **options)
    rpt.record_warnings(caught)
    return rpt
