"""The fusion, singlet and coproduct-homomorphism checkers against their per-algebra bodies.

The fusion and singlet checkers of the undeformed and deformed algebras call
one ``fusion_report`` and one ``singlet_lines``, and the deformed and affine
homomorphism reports evaluate relation tables; all of them read the coproduct
stack of the table that ``coproduct.ALGEBRAS`` holds for their modules' kind.
The references below are the per-algebra bodies they replace, one SuperMatrix
per coproduct image.  Both must give the same suite, cases, order, tolerances
and params, with bitwise-equal residuals, on the draws the suites make.
"""
import dataclasses
import warnings

import numpy as np
import pytest

from sl11kit import algebra, qaffine, qalgebra, suites
from sl11kit.algebra import (CLASSICAL_NAMES, AtypicalLocusWarning, DegenerateFusionError,
                             atypical_rep, check_relations, coproduct_image, fuse_check,
                             singlet_report, singlet_vector, typical_rep)
from sl11kit.coproduct import ALGEBRAS, coproduct_stack
from sl11kit.graded import ODD, graded_comm, max_abs
from sl11kit.qaffine import (affine_coproduct_image, affine_hom_report,
                             affine_relations_report, node_sign)
from sl11kit.qalgebra import (Q_NAMES, q_atypical_rep, q_check_relations, q_coproduct_image,
                              q_fuse_check, q_hom_report, q_singlet_report, q_singlet_vector,
                              q_typical_from_powers, qbracket_of_power)
from sl11kit.report import Report

SEEDS = range(10)


# -- references: the per-algebra bodies, one SuperMatrix per coproduct image ----------


def ref_fuse_check(labels_a, labels_b, tolerance=1e-10):
    if max(abs(labels_a.alpha1 - labels_b.alpha1),
           abs(labels_a.alpha2 - labels_b.alpha2)) > 1e-12:
        raise ValueError("fusion requires identical couplings alpha_i")
    rep_a, rep_b = atypical_rep(labels_a), atypical_rep(labels_b)
    lam1 = labels_a.lambda1 + labels_b.lambda1
    lam2 = labels_a.lambda2 + labels_b.lambda2
    nu_t = labels_a.nu * labels_b.nu
    a1, a2 = labels_a.alpha
    mu1 = a1 * (nu_t**2 - nu_t**-2)
    mu2 = a2 * (nu_t**2 - nu_t**-2)
    scale = max(abs(lam1 * lam2), abs(mu1 * mu2), 1.0)
    if abs(lam1 * lam2 - mu1 * mu2) <= 1e-10 * scale:
        raise DegenerateFusionError(
            "fused weights satisfy the shortening constraint; the product is reducible")

    def cop(name):
        return coproduct_image(name, rep_a, rep_b)

    v0 = np.zeros(4, dtype=complex)
    v0[3] = 1.0
    v1 = cop("f1").m @ v0
    v2 = cop("f2").m @ v0
    v21 = cop("f2").m @ (cop("f1").m @ v0)
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report("fusion", tolerance)
    for name, val in (("h1", lam1), ("h2", lam2), ("k1", mu1), ("k2", mu2),
                      ("u+", nu_t), ("u-", 1 / nu_t)):
        r.add(f"weight:{name}", max_abs(cop(name).m @ v0 - val * v0),
              expected=val)
    r.add("e1.v21", max_abs(cop("e1").m @ v21 - (mu1 * v1 - lam1 * v2)))
    r.add("e2.v21", max_abs(cop("e2").m @ v21 - (lam2 * v1 - mu2 * v2)))

    target = typical_rep(lam1, lam2, nu_t, labels_a.alpha)
    binv = np.linalg.inv(basis)
    shift = {"h0": -2.0}
    for name in CLASSICAL_NAMES:
        want = target[name].m + shift.get(name, 0.0) * np.eye(4)
        got = binv @ cop(name).m @ basis
        r.add(f"basis-conjugation:{name}", max_abs(got - want))
    return algebra.FusionResult(lam1, lam2, nu_t, basis, r)


def ref_q_fuse_check(labels_a, labels_b, tolerance=1e-10):
    if abs(labels_a.q - labels_b.q) > 1e-12 or \
       max(abs(labels_a.alpha1 - labels_b.alpha1), abs(labels_a.alpha2 - labels_b.alpha2)) > 1e-12:
        raise ValueError("fusion requires identical q and couplings")
    q = labels_a.q
    a1, a2 = labels_a.alpha
    rep_a, rep_b = q_atypical_rep(labels_a), q_atypical_rep(labels_b)
    k1t = labels_a.qlam1 * labels_b.qlam1
    k2t = labels_a.qlam2 * labels_b.qlam2
    nut = labels_a.nu * labels_b.nu
    qmu1t = k1t * k2t * nut**2
    qmu2t = k1t * k2t * nut**-2
    bl1, bl2 = qbracket_of_power(k1t**2, q), qbracket_of_power(k2t**2, q)
    bm1, bm2 = qbracket_of_power(qmu1t, q), qbracket_of_power(qmu2t, q)
    scale = max(abs(bl1 * bl2), abs(a1 * a2 * bm1 * bm2), 1.0)
    if abs(bl1 * bl2 - a1 * a2 * bm1 * bm2) <= 1e-10 * scale:
        raise DegenerateFusionError(
            "fused weights satisfy the deformed shortening constraint")

    def cop(name):
        return q_coproduct_image(name, rep_a, rep_b)

    v0 = np.zeros(4, dtype=complex)
    v0[3] = 1.0
    v1 = cop("F1").m @ v0
    v2 = cop("F2").m @ v0
    v21 = cop("F2").m @ (cop("F1").m @ v0)
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report("q-fusion", tolerance)
    for name, val in (("K1+", k1t), ("K2+", k2t), ("L1+", qmu1t), ("L2+", qmu2t),
                      ("U+", nut)):
        r.add(f"weight:{name}", max_abs(cop(name).m @ v0 - val * v0), expected=val)
    r.add("E1.v21", max_abs(cop("E1").m @ v21 - (a1 * bm1 * v1 - bl1 * v2)))
    r.add("E2.v21", max_abs(cop("E2").m @ v21 - (bl2 * v1 - a2 * bm2 * v2)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AtypicalLocusWarning)
        target = q_typical_from_powers(k1t, k2t, nut, q, labels_a.alpha)
    binv = np.linalg.inv(basis)
    for name in Q_NAMES:
        want = target[name].m
        if name == "K0+":
            want = q**-2 * want
        elif name == "K0-":
            want = q**2 * want
        got = binv @ cop(name).m @ basis
        r.add(f"basis-conjugation:{name}", max_abs(got - want))
    return qalgebra.QFusionResult(k1t, k2t, nut, basis, r)


def ref_singlet_report(labels_a, labels_b, tolerance=1e-11):
    v = singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    rep_a, rep_b = atypical_rep(labels_a), atypical_rep(labels_b)
    r = Report("singlet", tolerance)
    for name in ("e1", "e2", "f1", "f2"):
        r.add(f"annihilation:{name}",
              max_abs(coproduct_image(name, rep_a, rep_b).m @ v))
    for name in ("u+", "u-"):
        r.add(f"invariance:{name}",
              max_abs(coproduct_image(name, rep_a, rep_b).m @ v - v))
    h0v = coproduct_image("h0", rep_a, rep_b).m @ v
    coeff = np.vdot(v, h0v) / np.vdot(v, v)
    r.add("h0-eigenvector", max_abs(h0v - coeff * v), eigenvalue=complex(coeff))
    return r


def ref_q_singlet_report(labels_a, labels_b, tolerance=1e-11):
    v = q_singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    rep_a, rep_b = q_atypical_rep(labels_a), q_atypical_rep(labels_b)
    r = Report("q-singlet", tolerance)
    for name in ("E1", "E2", "F1", "F2"):
        r.add(f"annihilation:{name}",
              max_abs(q_coproduct_image(name, rep_a, rep_b).m @ v))
    for name in ("U+", "U-"):
        r.add(f"invariance:{name}",
              max_abs(q_coproduct_image(name, rep_a, rep_b).m @ v - v))
    return r


def ref_q_hom_report(rep_a, rep_b, tolerance=1e-11):
    if rep_a.alpha is None or rep_a.q is None:
        raise ValueError("representations must carry couplings and q")
    a1, a2 = rep_a.alpha
    q = rep_a.q

    def cop(n):
        return q_coproduct_image(n, rep_a, rep_b)

    r = Report("q-coproduct-homomorphism", tolerance)
    qq = q - 1 / q
    pairs = {("E1", "F2"): (a1, "L1+", "L1-"), ("E2", "F1"): (a2, "L2+", "L2-")}
    for (x, y), (al, lp, lm) in pairs.items():
        lhs = graded_comm(cop(x), cop(y), ODD, ODD)
        rhs = (al / qq) * (cop(lp) - cop(lm))
        r.add(f"[Delta({x}),Delta({y})]", max_abs(lhs - rhs))
    for (x, y), (kp, km) in {("E1", "F1"): ("K1+", "K1-"),
                             ("E2", "F2"): ("K2+", "K2-")}.items():
        lhs = graded_comm(cop(x), cop(y), ODD, ODD)
        rhs = (1 / qq) * (cop(kp) @ cop(kp) - cop(km) @ cop(km))
        r.add(f"[Delta({x}),Delta({y})]", max_abs(lhs - rhs))
    return r


def ref_affine_hom_report(rep_a, rep_b, tolerance=1e-10):
    if rep_a.variant != "standard" or rep_b.variant != "standard":
        raise ValueError("the coproduct check runs on the standard variant")
    q = rep_a.q
    qq = q - 1 / q

    def cop(n):
        return affine_coproduct_image(n, rep_a, rep_b)

    r = Report("affine-coproduct-homomorphism", tolerance)
    for i, j in ((1, 2), (2, 1)):
        s = node_sign(i)
        lhs = graded_comm(cop(f"E{i}"), cop(f"F{j+2}"), ODD, ODD)
        uv_p = cop("U+") @ cop("V+")
        uv_m = cop("U-") @ cop("V-")
        if s == 1:
            kk_p = cop(f"K{i}+") @ cop(f"K{j+2}+")
            kk_m = cop(f"K{i}-") @ cop(f"K{j+2}-")
        else:
            kk_p = cop(f"K{i}-") @ cop(f"K{j+2}-")
            kk_m = cop(f"K{i}+") @ cop(f"K{j+2}+")
        rhs = (rep_a.alpha[i - 1] / qq) * (uv_p @ kk_p - uv_m @ kk_m)
        r.add(f"hom:[E{i},F{j+2}]", max_abs(lhs - rhs))
    return r


# -- draws as the suites make them -----------------------------------------------------


def sample_rng(seed):
    return next(iter(suites._child_rngs(seed, 1)))


def hopf_draw(seed):
    """The undeformed and deformed label triples of one hopf-suite sample."""
    rng = sample_rng(seed)
    alpha = suites.draw_alpha(rng)
    labs = [suites.draw_labels(rng, alpha) for _ in range(3)]
    q, qalpha = suites.draw_q(rng), suites.draw_alpha(rng)
    qlabs = [suites.draw_qlabels(rng, q, qalpha) for _ in range(3)]
    return labs, qlabs


def singlet_draw(seed):
    """The two singlet pairs of one singlet-suite sample."""
    rng = sample_rng(seed)
    lab = suites.draw_labels(rng)
    sign = 1 if rng.integers(2) else -1
    qlab = suites.draw_qlabels(rng)
    return ((lab, suites._singlet_partner(lab, sign)),
            (qlab, suites._q_singlet_partner(qlab, sign)))


def affine_draw(seed):
    """The standard evaluation pair of one affine-suite sample."""
    rng = sample_rng(seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    la, lb = suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
    return qaffine.affine_eval_rep(la), qaffine.affine_eval_rep(lb)


def assert_same_report(got: Report, want: Report):
    assert got.suite == want.suite and got.tolerance == want.tolerance
    assert ([(c.identity, c.tolerance, c.params) for c in got.cases]
            == [(c.identity, c.tolerance, c.params) for c in want.cases])
    assert [c.residual for c in got.cases] == [c.residual for c in want.cases]
    assert got.passed == want.passed


def assert_same_fusion(check, reference, labels_a, labels_b, fields):
    try:
        want = reference(labels_a, labels_b)
    except DegenerateFusionError:
        with pytest.raises(DegenerateFusionError):
            check(labels_a, labels_b)
        return
    got = check(labels_a, labels_b)
    assert type(got) is type(want)
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert np.array_equal(got.basis, want.basis)
    assert_same_report(got.report, want.report)


# -- tests -----------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_fusion_matches_the_reference_bodies_on_suite_draws(seed):
    labs, qlabs = hopf_draw(seed)
    assert_same_fusion(fuse_check, ref_fuse_check, labs[0], labs[1],
                       ("lambda1", "lambda2", "nu"))
    assert_same_fusion(q_fuse_check, ref_q_fuse_check, qlabs[0], qlabs[1],
                       ("qlam1", "qlam2", "nu"))


@pytest.mark.parametrize("seed", SEEDS)
def test_singlet_matches_the_reference_bodies_on_suite_draws(seed):
    pair, qpair = singlet_draw(seed)
    for tolerance in (1e-11, 1e-12):
        assert_same_report(singlet_report(*pair, tolerance),
                           ref_singlet_report(*pair, tolerance))
        assert_same_report(q_singlet_report(*qpair, tolerance),
                           ref_q_singlet_report(*qpair, tolerance))


@pytest.mark.parametrize("seed", SEEDS)
def test_hom_reports_match_the_reference_bodies_on_suite_draws(seed):
    _, qlabs = hopf_draw(seed)
    qa, qb = (q_atypical_rep(lab) for lab in qlabs[:2])
    for tolerance in (1e-11, 1e-13):
        assert_same_report(q_hom_report(qa, qb, tolerance), ref_q_hom_report(qa, qb, tolerance))
    ra, rb = affine_draw(seed)
    assert_same_report(affine_hom_report(ra, rb), ref_affine_hom_report(ra, rb))
    assert_same_report(affine_hom_report(rb, ra, 1e-12), ref_affine_hom_report(rb, ra, 1e-12))


@pytest.mark.parametrize("seed", range(5))
def test_every_defining_relation_holds_on_the_coproduct_stack(seed):
    """Delta is an algebra map: the coproduct stack of a suite-drawn pair, as a
    module on the tensor space, satisfies every defining relation its algebra's
    checker reads, the affine Serre, compatibility and ev(K+-) lines included,
    where the homomorphism reports read four deformed and two affine ones."""
    labs, qlabs = hopf_draw(seed)
    for checker, (rep_a, rep_b) in (
            (check_relations, [atypical_rep(lab) for lab in labs[:2]]),
            (q_check_relations, [q_atypical_rep(lab) for lab in qlabs[:2]]),
            (affine_relations_report, affine_draw(seed))):
        table = ALGEBRAS[rep_a.kind].coproduct
        tensor = dataclasses.replace(rep_a, space=rep_a.space.tensor(rep_b.space),
                                     stack=coproduct_stack(table, rep_a, rep_b))
        rpt = checker(tensor)
        assert rpt.names == checker(rep_a).names
        assert rpt.passed and rpt.max_residual <= 1e-13, (rpt.suite, rpt.max_residual)


def test_fusion_reports_every_warning_on_hopf_draws():
    """No warning is muted: on seeded hopf draws, with every warning an error,
    fusion either checks or raises DegenerateFusionError, and on the singlet
    locus it raises DegenerateFusionError before any AtypicalLocusWarning."""
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            labs, qlabs = hopf_draw(seed)
            for check, pair in ((fuse_check, labs[:2]), (q_fuse_check, qlabs[:2])):
                try:
                    check(*pair)
                    checked += 1
                except DegenerateFusionError:
                    pass
        pair, qpair = singlet_draw(0)
        with pytest.raises(DegenerateFusionError):
            fuse_check(*pair)
        with pytest.raises(DegenerateFusionError):
            q_fuse_check(*qpair)
    assert checked > 0


def test_fusion_tests_the_shortening_locus_once(monkeypatch):
    """The 4-dim target is built from the fused weights the fusion guard has
    tested: the locus is tested once, and the deformed weight q-brackets are
    formed once, four of the eight qbracket_of_power calls (the other four are
    the two atypical modules' F images)."""
    tests, brackets = [], []
    on_locus = algebra.on_shortening_locus

    def locus(*args):
        tests.append(args)
        return on_locus(*args)

    def bracket(*args):
        brackets.append(args)
        return qbracket_of_power(*args)
    monkeypatch.setattr(algebra, "on_shortening_locus", locus)
    monkeypatch.setattr(qalgebra, "on_shortening_locus", locus)
    monkeypatch.setattr(qalgebra, "qbracket_of_power", bracket)
    for seed in SEEDS:
        labs, qlabs = hopf_draw(seed)
        for check, pair in ((fuse_check, labs[:2]), (q_fuse_check, qlabs[:2])):
            tests.clear()
            brackets.clear()
            try:
                check(*pair)
            except DegenerateFusionError:
                continue
            assert len(tests) == 1
            assert len(brackets) == (8 if check is q_fuse_check else 0)
    # the public constructors keep their own test and warning
    nu = np.exp(0.3j)
    gap = nu**2 - nu**-2
    with pytest.warns(AtypicalLocusWarning):
        typical_rep(-0.5 * gap, 0.5 * gap, nu, (-0.5, 0.5))
