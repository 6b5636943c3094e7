import numpy as np
import pytest

from sl11kit import suites
from sl11kit.algebra import RepLabels, atypical_rep, check_relations
from sl11kit.graded import C11, graded_perm, identity, max_abs
from sl11kit.qaffine import affine_eval_rep, affine_relations_report
from sl11kit.qalgebra import QRepLabels, q_labels, q_atypical_rep
from sl11kit.rmatrix import (ReducibleTensorError, _assemble, conjugate_r, conjugate_rep,
                             conjugated_pair, intertwining_report, r_closed,
                             r_solve, r_trig, rq_closed, rq_from_powers,
                             slot_coefficients, solve_intertwiner,
                             unitarity_check, ybe_embed, ybe_residual)
from sl11kit.yangian import eval_rep

ALPHA = (-0.5, 0.5)
Q = 1.15 + 0.08j


def lab(gamma, nu):
    return RepLabels(gamma, nu, *ALPHA)


A = lab(1.3 - 0.4j, np.exp(0.7j))
B = lab(0.8 + 0.3j, np.exp(-0.35j))
C = lab(1.6 - 0.8j, np.exp(1.1j))


def qlab(lambda1, nu):
    return q_labels(lambda1, nu, Q, ALPHA)[0]


QA = qlab(0.9 - 0.2j, np.exp(0.4j))
QB = qlab(0.6 + 0.5j, np.exp(-0.6j))
QC = qlab(0.3 + 0.8j, np.exp(0.9j))


# -- closed form ---------------------------------------------------------------


def test_closed_coefficients():
    co = slot_coefficients(r_closed(A, B))
    assert abs(co["12,21"] + (A.nu**2 - A.nu**-2)) < 1e-15
    g, n, gp, npp = A.gamma, A.nu, B.gamma, B.nu
    assert abs(co["11,11"] - (gp * n * npp / g - g / (gp * n * npp))) < 1e-15


def test_closed_equal_labels_coefficient_vanishes():
    co = slot_coefficients(r_closed(A, A))
    assert abs(co["11,22"]) < 1e-15


def test_closed_intertwines():
    rpt = intertwining_report(r_closed(A, B), atypical_rep(A), atypical_rep(B))
    assert rpt.max_residual <= 1e-11


def test_sparsity_preserved():
    for r in (r_closed(A, B), r_trig(0.3, 0.8, 0.1), rq_closed(QA, QB)):
        assert r.sparsity_residual() == 0.0


def test_solver_matches_closed():
    rc = r_closed(A, B)
    rs = r_solve(atypical_rep(A), atypical_rep(B), match_r11=rc.normalization)
    assert max_abs(rs.m - rc.m) <= 1e-10


def test_solver_matches_q_closed():
    rqc = rq_closed(QA, QB)
    rqs = r_solve(q_atypical_rep(QA), q_atypical_rep(QB), match_r11=rqc.normalization)
    assert max_abs(rqs.m - rqc.m) <= 1e-10


def test_solver_reports_reducible_point():
    # fully degenerate identical labels collapse the system; the solver
    # reports the enlarged intertwiner space instead of picking a direction
    la = RepLabels(1.0, 1.0, *ALPHA)
    with pytest.raises(ReducibleTensorError) as err:
        r_solve(atypical_rep(la), atypical_rep(la))
    assert err.value.dim > 1


def test_singlet_point_intertwiner_still_unique():
    # the singlet-compatible tensor product is reducible but indecomposable:
    # the intertwiner space stays one-dimensional (no second solution shows
    # up numerically), so the solver succeeds there
    a = A
    b = RepLabels(a.gamma, 1 / a.nu, *ALPHA)
    null, svals = solve_intertwiner(atypical_rep(a), atypical_rep(b))
    assert len(null) == 1
    assert np.sort(svals)[1] > 1e-2  # clear spectral gap


def test_nullspace_dimension_one_generic():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g1, g2 = (np.exp(rng.uniform(np.log(0.5), np.log(2)))
                  * np.exp(2j * np.pi * rng.random()) for _ in range(2))
        n1, n2 = (np.exp(1j * 2 * np.pi * rng.random()) for _ in range(2))
        null, _ = solve_intertwiner(atypical_rep(lab(g1, n1)), atypical_rep(lab(g2, n2)))
        assert len(null) == 1


# -- trigonometric form ----------------------------------------------------------


def test_trig_at_quarter_pi_is_graded_permutation():
    r = r_trig(np.pi / 4, np.pi / 4, 0.0)
    assert max_abs(r.m - graded_perm(C11, C11).m) == 0.0


def test_trig_proportional_to_permutation_at_equal_angles():
    theta = 0.23
    r = r_trig(theta, theta, 0.0)
    assert max_abs(r.m - np.sin(2 * theta) * graded_perm(C11, C11).m) < 1e-15


def test_trig_coefficient_21_12():
    co = slot_coefficients(r_trig(0.3, 0.8, 0.1))
    assert abs(co["21,12"] - np.sin(1.6)) < 1e-15


def test_trig_rational_limit():
    p = graded_perm(C11, C11).m
    for theta, lam in ((1e-2, 1e-2), (5e-3, -8e-3), (-1e-2, 3e-3)):
        r = r_trig(theta, theta, lam).m
        target = -(lam * np.eye(4) - 2 * theta * p)
        assert max_abs(r - target) <= 10 * (abs(theta) + abs(lam)) ** 3


@pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (np.pi / 2, np.pi / 2, 0.0)],
                         ids=["zero", "half-pi"])
def test_trig_degenerate_angles_raise_as_closed_does(angles):
    """All six trigonometric coefficients vanish here: the zero matrix is no
    R-matrix, so r_trig refuses it with r_closed's error."""
    with pytest.raises(ValueError, match="all six coefficients vanish"):
        r_trig(*angles)
    # the unitarity identity still holds there, with both sides (nearly) zero
    res, scalar = unitarity_check(*angles)
    assert res < 1e-30 and abs(scalar) < 1e-15


def test_q_closed_degenerate_labels_raise_as_closed_does():
    """lambda = 0 and nu = 1 are valid labels, but all six deformed coefficients
    vanish on the pair of them: rq_closed refuses the zero matrix as r_closed does."""
    la = QRepLabels(1.3 + 0.2j, 1.0, 1.2 + 0.1j, 1.0, 1.0, -0.5, 0.5)
    with pytest.raises(ValueError, match="all six coefficients vanish"):
        rq_closed(la, la)


def test_trig_matches_closed_up_to_2i():
    t1, t2, lm = 0.7, -0.35, 0.22
    gp = 0.9 + 0.4j
    la = lab(np.exp(1j * lm) * gp, np.exp(1j * t1))
    lb = lab(gp, np.exp(1j * t2))
    assert max_abs(r_closed(la, lb).m - 2j * r_trig(t1, t2, lm).m) <= 1e-12


def test_trig_periodic_and_real():
    r0 = r_trig(0.4, 1.1, 2.2)
    r1 = r_trig(0.4 + 2 * np.pi, 1.1, 2.2 - 2 * np.pi)
    assert max_abs(r0.m - r1.m) < 1e-12
    assert max_abs(r0.m.imag) == 0.0


def test_trig_intertwines():
    t1, t2, lm = 0.7, -0.35, 0.22
    gp = 0.9 + 0.4j
    la = lab(np.exp(1j * lm) * gp, np.exp(1j * t1))
    lb = lab(gp, np.exp(1j * t2))
    rpt = intertwining_report(r_trig(t1, t2, lm), atypical_rep(la), atypical_rep(lb))
    assert rpt.max_residual <= 1e-11


# -- Yang-Baxter and unitarity ----------------------------------------------------


def test_ybe_undeformed():
    assert ybe_residual(A, B, C) <= 1e-10


def test_ybe_deformed():
    assert ybe_residual(QA, QB, QC, which="deformed") <= 1e-9


def test_ybe_coincident_labels():
    assert ybe_residual(A, A, C) <= 1e-12


def test_unitarity_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t1, t2, lm = rng.uniform(0, np.pi, size=3)
        res, _ = unitarity_check(t1, t2, lm)
        assert res <= 1e-12


def test_unitarity_identity_point():
    res, scalar = unitarity_check(np.pi / 4, np.pi / 4, 0.0)
    assert scalar == 1.0
    assert res <= 1e-14


def test_unitarity_vanishing_scalar():
    # cos 2L = cos(2 t1 + 2 t2) makes the product the zero matrix
    t1, t2 = 0.3, 0.5
    lm = t1 + t2
    res, scalar = unitarity_check(t1, t2, lm)
    assert abs(scalar) < 1e-15 and res < 1e-15


# -- deformed closed form ----------------------------------------------------------


def test_rq_coefficient():
    co = slot_coefficients(rq_closed(QA, QB))
    expect = -((QA.qlam1 / QA.qlam2) * QA.nu**2 - (QA.qlam2 / QA.qlam1) * QA.nu**-2)
    assert abs(co["12,21"] - expect) < 1e-14


def test_rq_intertwines():
    rpt = intertwining_report(rq_closed(QA, QB), q_atypical_rep(QA), q_atypical_rep(QB))
    assert rpt.max_residual <= 1e-11


def test_rq_formula_limit_q_to_one():
    # entrywise, the deformed coefficients approach the undeformed ones when
    # all weight powers q^{lambda/2} are evaluated at the classical weights
    rc = r_closed(A, B).m
    from sl11kit.rmatrix import _assemble
    for eps in (1e-3, 1e-4, 1e-5):
        q = 1 + eps
        lnq = np.log(q)
        k1, k2 = np.exp(A.lambda1 * lnq / 2), np.exp(A.lambda2 * lnq / 2)
        k1p, k2p = np.exp(B.lambda1 * lnq / 2), np.exp(B.lambda2 * lnq / 2)
        coeffs = rq_from_powers(A.gamma, A.nu, k1, k2, B.gamma, B.nu, k1p, k2p)
        rq = _assemble(coeffs).m
        assert max_abs(rq - rc) <= 1e3 * abs(q - 1)


# -- grading conjugation ------------------------------------------------------------


def test_conjugate_rep_is_a_representation():
    rep = conjugate_rep(atypical_rep(A))
    assert check_relations(rep).max_residual <= 1e-12
    # raising/lowering patterns are exchanged
    assert abs(rep["e1"].m[0, 1] - A.gamma) < 1e-15
    assert rep["e1"].m[1, 0] == 0.0


def test_conjugate_rep_keeps_what_an_evaluation_module_carries():
    aff = affine_eval_rep(suites.draw_qlabels(np.random.default_rng(3), 1.1 + 0.05j,
                                              (-0.5, 0.5)), "swapped", -1.0)
    for rep in (aff, eval_rep(A)):
        flipped = conjugate_rep(rep)
        assert type(flipped) is type(rep)
        assert {k: v for k, v in vars(flipped).items() if k != "stack"} == {
            k: v for k, v in vars(rep).items() if k != "stack"}
        assert np.array_equal(flipped.stack, rep.stack[:, ::-1, ::-1])
    assert affine_relations_report(conjugate_rep(aff)).max_residual <= 1e-11


def test_conjugated_r_intertwines_flipped_pairs():
    rc = r_closed(A, B)
    ra, rb = atypical_rep(A), atypical_rep(B)
    for target in ("V-Vbar", "Vbar-V", "Vbar-Vbar"):
        rcj = conjugate_r(rc, target)
        pa, pb = conjugated_pair(ra, rb, target)
        assert intertwining_report(rcj, pa, pb).max_residual <= 1e-10, target


def test_conjugated_r_matches_solver_up_to_scalar():
    rc = r_closed(A, B)
    ra, rb = atypical_rep(A), atypical_rep(B)
    for target in ("V-Vbar", "Vbar-V", "Vbar-Vbar"):
        rcj = conjugate_r(rc, target).m
        sol = r_solve(*conjugated_pair(ra, rb, target)).m
        mask = np.abs(rcj) > 1e-9
        ratios = rcj[mask] / sol[mask]
        assert np.abs(ratios - ratios[0]).max() <= 1e-10, target


def test_double_conjugation_vbar_vbar():
    # the Vbar-Vbar conjugator squares to -1, so conjugating twice is exact
    rc = r_closed(A, B)
    back = conjugate_r(conjugate_r(rc, "Vbar-Vbar"), "Vbar-Vbar")
    assert max_abs(back.m - rc.m) == 0.0


def test_conjugate_permutation_point():
    r = conjugate_r(r_trig(np.pi / 4, np.pi / 4, 0.0), "V-Vbar")
    from sl11kit.rmatrix import _CONJUGATORS
    g, ginv = _CONJUGATORS["V-Vbar"]
    p = graded_perm(C11, C11).m
    assert max_abs(r.m - g @ p @ ginv) == 0.0


def test_conjugated_ybe_matching_gradings():
    # triples with one or two flipped factors still satisfy the braid relation
    r12 = r_closed(A, B).m
    r13 = conjugate_r(r_closed(A, C), "V-Vbar").m
    r23 = conjugate_r(r_closed(B, C), "V-Vbar").m
    assert ybe_embed(r12, r13, r23) <= 1e-10
    r12 = conjugate_r(r_closed(A, B), "V-Vbar").m
    r13 = conjugate_r(r_closed(A, C), "V-Vbar").m
    r23 = conjugate_r(r_closed(B, C), "Vbar-Vbar").m
    assert ybe_embed(r12, r13, r23) <= 1e-10


def test_conjugate_unknown_target():
    with pytest.raises(KeyError):
        conjugate_r(r_closed(A, B), "nonsense")


def test_deformed_conjugation_smoke():
    rq = conjugate_r(rq_closed(QA, QB), "V-Vbar")
    pa, pb = conjugated_pair(q_atypical_rep(QA), q_atypical_rep(QB), "V-Vbar")
    assert intertwining_report(rq, pa, pb).max_residual <= 1e-10


def _rational_coefficients(labels_a, labels_b):
    """The rational slot coefficients as written out before ``r_closed`` read
    :func:`rq_from_powers`: the reference the fold must reproduce exactly."""
    g, n = labels_a.gamma, labels_a.nu
    gp, np_ = labels_b.gamma, labels_b.nu
    return {
        "11,11": gp * n * np_ / g - g / (gp * n * np_),
        "11,22": gp * np_ / (g * n) - g * n / (gp * np_),
        "12,21": -(n**2 - n**-2),
        "21,12": (np_**2 - np_**-2),
        "22,11": gp * n / (g * np_) - g * np_ / (gp * n),
        "22,22": gp / (g * n * np_) - g * n * np_ / gp,
    }


@pytest.mark.parametrize("offshell", [False, True])
def test_closed_form_is_the_deformed_one_at_unit_powers(offshell):
    for rng in suites._child_rngs(17, 600):
        alpha = suites.draw_alpha(rng)
        la, lb = (suites.draw_labels(rng, alpha, offshell) for _ in range(2))
        coeffs = _rational_coefficients(la, lb)
        r = r_closed(la, lb)
        assert np.array_equal(r.m, _assemble(coeffs).m)
        assert r.normalization == coeffs["11,11"]
