"""Labels of any scalar type through the one copy of the image formulas, the
coproduct stacks, the closed R-matrices and every checker the suites run:
``mpmath`` at 40 digits, ``sympy`` exactly (intertwining, the Yang-Baxter
equation, the free-fermion condition), the module memo, and the
double-precision LAPACK steps that refuse them."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from mpmath import mp, mpc

import sl11kit
from sl11kit import rmatrix, suites
from sl11kit.algebra import (COPRODUCT, RepLabels, atypical_rep, check_relations, default_alpha,
                            fuse_check, klein_twist, singlet_report, typical_rep)
from sl11kit.coproduct import (ALGEBRAS, coassociativity_report, cocommutativity_report,
                               coproduct_stack, counit_antipode_report)
from sl11kit.qaffine import (affine_eval_rep, affine_hom_report, affine_intertwine,
                             affine_relations_report, upper_nodes_subalgebra)
from sl11kit.qalgebra import (QRepLabels, q_atypical_rep, q_check_relations, q_fuse_check,
                              q_hom_report, q_singlet_report, q_typical_from_powers,
                              qbracket_of_power)
from sl11kit.rmatrix import (intertwining_report, r_closed, r_solve, rq_closed, rq_from_powers,
                             slot_coefficients, solve_intertwiner, ybe_residual)
from sl11kit.yangian import (antipode_report, coproduct_hom_report, coproduct_tower,
                             current_relations_report, eval_rep, k_cocommutativity_report,
                             kir_report, level_bracket_report, omega_preserves_brackets_report,
                             omega_twist_equivalence, scaled_eval_pair, yangian_intertwine)

_FIELDS = ("gamma", "nu", "alpha1", "alpha2")
_U_MINUS = COPRODUCT.position("u-")


def _mp_labels(labels: RepLabels) -> RepLabels:
    """The same labels as exact ``mpc`` values."""
    return RepLabels(*(mpc(getattr(labels, name)) for name in _FIELDS))


def _nearest(z, ref):
    """z or -z, whichever is nearer ``ref``."""
    return z if abs(z - ref) < abs(z + ref) else -z


def _mp_qlabels(labels: QRepLabels) -> QRepLabels:
    """Deformed labels on the same q, q^{lambda1/2}, nu and couplings, with
    q^{lambda2/2} and gamma solved again at the working precision: the root of
    the shortening quadratic of ``qalgebra.q_labels`` and the signs nearest the
    double labels."""
    q, k1, nu, a1, a2 = (mpc(getattr(labels, name))
                         for name in ("q", "qlam1", "nu", "alpha1", "alpha2"))
    a = k1**2
    lead = (a - 1 / a) - a1 * a2 * a
    mid = a1 * a2 * (nu**4 + nu**-4)
    last = -(a - 1 / a) - a1 * a2 / a
    sq = mp.sqrt(mid * mid - 4 * lead * last)
    x = min(((-mid + sq) / (2 * lead), (-mid - sq) / (2 * lead)),
            key=lambda root: abs(root - labels.qlam2**2))
    k2 = _nearest(mp.sqrt(x), labels.qlam2)
    g2 = a1 * qbracket_of_power(k1 * k2 * nu**2, q) / qbracket_of_power(k2**2, q)
    return QRepLabels(_nearest(mp.sqrt(g2), labels.gamma), nu, q, k1, k2, a1, a2)


def _pairs(seed: int, deformed: bool):
    """Three label pairs drawn as the suites draw them, one coupling (and q) per pair."""
    for rng in suites._child_rngs(seed, 3):
        alpha = suites.draw_alpha(rng)
        if deformed:
            q = suites.draw_q(rng)
            yield suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
        else:
            yield suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)


@pytest.mark.parametrize("deformed", [False, True], ids=["undeformed", "deformed"])
def test_mpmath_labels_intertwine_at_40_digits(deformed):
    build, closed, lift = ((q_atypical_rep, rq_closed, _mp_qlabels) if deformed
                           else (atypical_rep, r_closed, _mp_labels))
    worst = 0.0
    with mp.workdps(40):
        for la, lb in _pairs(7, deformed):
            ma, mb = lift(la), lift(lb)
            ra, rb = build(ma), build(mb)
            table = ALGEBRAS[ra.kind].coproduct
            for array in (ra.stack, rb.stack, coproduct_stack(table, ra, rb)):
                # mpc throughout, beside the patterns' exact integer zeros and ones
                assert array.dtype == object
                assert {type(z) for z in array.ravel()} <= {mpc, int}
            rm = closed(ma, mb)
            assert rm.m.dtype == object
            worst = max(worst, *intertwining_report(rm, ra, rb).residuals)
            assert build(la).stack.dtype == np.complex128
    print(f"40-digit intertwining residual, {'deformed' if deformed else 'undeformed'}: "
          f"{worst:.2e}")
    assert worst <= 1e-35


def test_mpmath_labels_run_the_yangian_tower_at_40_digits():
    la, lb = next(_pairs(7, False))
    with mp.workdps(40):
        eva, evb = scaled_eval_pair(_mp_labels(la), _mp_labels(lb))
        tower = coproduct_tower(eva, evb, r_max=4)
        assert tower.dtype == object and {type(z) for z in tower.ravel()} <= {mpc, int}
        eps1, eps2 = mpc(1.2, -0.3), mpc(0.7, 0.1)
        reports = (coproduct_hom_report(eva, evb, 4), k_cocommutativity_report(eva, evb, 4),
                   kir_report(eva, 4), level_bracket_report(eva, 4),
                   current_relations_report(eva, 6), omega_twist_equivalence(eva, evb, eps1, eps2),
                   omega_preserves_brackets_report(eva, eps1, eps2), antipode_report(eva, 4))
    for rpt in reports:
        print(f"40-digit {rpt.suite} residual: {rpt.max_residual:.2e}")
        assert rpt.max_residual <= 1e-35, rpt.suite


def test_sympy_labels_intertwine_exactly():
    g1, n1, g2, n2, h = sp.symbols("gamma1 nu1 gamma2 nu2 h")
    la, lb = RepLabels(g1, n1, *default_alpha(h)), RepLabels(g2, n2, *default_alpha(h))
    ra, rb = atypical_rep(la), atypical_rep(lb)
    delta = coproduct_stack(COPRODUCT, ra, rb)
    delta_op = coproduct_stack(COPRODUCT, ra, rb, opposite=True)
    r = r_closed(la, lb).m
    # no float enters: integer patterns, signs and coefficients stay exact
    assert not any(expr.atoms(sp.Float) for expr in r.ravel() if isinstance(expr, sp.Basic))
    for g, name in enumerate(COPRODUCT.names):
        # every entry is a Laurent polynomial in the symbols, so expanding decides zero
        residual = [sp.expand(e) for e in (delta_op[g] @ r - r @ delta[g]).ravel()]
        assert residual == [0] * 16, name


def test_sympy_labels_satisfy_the_yang_baxter_equation_exactly(monkeypatch):
    g, n, h = sp.symbols("gamma1:4"), sp.symbols("nu1:4"), sp.Symbol("h")
    labels = [RepLabels(g[i], n[i], *default_alpha(h)) for i in range(3)]
    # a symbol has no magnitude: keep R12 R13 R23 - R23 R13 R12 and read it entry by entry
    differences = []
    monkeypatch.setattr(rmatrix, "max_abs", differences.append)
    ybe_residual(*labels)
    entries = [sp.sympify(e) for e in differences[0].ravel()]
    assert not any(e.atoms(sp.Float) for e in entries)  # the embeddings bring in no 1.0
    assert {sp.expand(e) for e in entries} == {0}


def test_memo_keeps_double_labels_only():
    # exact in binary at any precision, real and positive: the mpc labels then compare
    # and hash equal to each other and to the double ones, so one memo key would
    # serve them all
    values = (0.5, 0.75, 0.25, 0.5)
    with mp.workdps(20):
        rep20 = atypical_rep(RepLabels(*map(mpc, values)))
    with mp.workdps(40):
        lab40 = RepLabels(*map(mpc, values))
        assert lab40 == RepLabels(*values) and hash(lab40) == hash(RepLabels(*values))
        rep40 = atypical_rep(lab40)
        assert rep40 is not rep20 and atypical_rep(lab40) is not rep40
        u_minus = rep40.stack[_U_MINUS, 0, 0]
        assert u_minus == 1 / mpc(values[1]) and u_minus != rep20.stack[_U_MINUS, 0, 0]
    double = atypical_rep(RepLabels(*values))
    assert double.stack.dtype == np.complex128 and atypical_rep(RepLabels(*values)) is double


def test_solver_refuses_non_numeric_modules():
    ra, rb = (atypical_rep(_mp_labels(lab)) for lab in next(_pairs(3, False)))
    for solve in (solve_intertwiner, r_solve):
        with pytest.raises(TypeError, match="dtype object.*closed"):
            solve(ra, rb)


def test_real_weights_still_build_complex128_modules():
    rep = typical_rep(0.3, -1.1, 1.2, (-0.5, 0.5))
    qrep = q_typical_from_powers(1.3, 0.5, 1.2, 1.1 + 0.1j, (-0.5, 0.5))
    assert rep.stack.dtype == qrep.stack.dtype == np.complex128
    # the values are cast before the patterns multiply them, so no imaginary zero is -0.0
    assert not np.signbit(rep.stack.imag).any()


def test_symbolic_deformed_labels_name_the_check_they_cannot_decide():
    with pytest.raises(TypeError, match="root of unity"):
        QRepLabels(*sp.symbols("gamma nu q qlam1 qlam2 alpha1 alpha2"))
    # a numeric q with a free gamma: the gamma check cannot be decided
    lab = suites.draw_qlabels(np.random.default_rng(0))
    with pytest.raises(TypeError, match="whether gamma is consistent with the weight powers"):
        QRepLabels(sp.Symbol("gamma"), lab.nu, lab.q, lab.qlam1, lab.qlam2, lab.alpha1, lab.alpha2)
    # nu^4 = 1 is decided where the labels decide it, and named where they do not
    gamma, nu = sp.symbols("gamma nu")
    assert RepLabels(gamma, sp.I, -1, 1).degenerate is True
    assert RepLabels(gamma, sp.Integer(2), -1, 1).degenerate is False
    with pytest.raises(TypeError, match="whether nu\\^4 = 1"):
        RepLabels(gamma, nu, -1, 1).degenerate
    with pytest.raises(TypeError, match="whether nu\\^4 = 1"):
        eval_rep(RepLabels(gamma, nu, -1, 1))
    # a TypeError of the label arithmetic itself is not taken for an open check
    with pytest.raises(TypeError) as err:
        RepLabels(gamma, "nu", -1, 1).degenerate
    assert "cannot decide" not in str(err.value)


def test_importing_the_library_loads_neither_sympy_nor_mpmath():
    code = ("import sys, sl11kit, sl11kit.cli; "
            "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(sl11kit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def _suite_checks_at_40_digits(seed: int):
    """(name, residual) of every checker the five suites run, on one draw of each suite
    lifted to ``mpc`` labels; call inside ``mp.workdps(40)``."""
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    labs = [_mp_labels(suites.draw_labels(rng, alpha)) for _ in range(3)]
    q, qalpha = suites.draw_q(rng), suites.draw_alpha(rng)
    qlabs = [_mp_qlabels(suites.draw_qlabels(rng, q, qalpha)) for _ in range(3)]
    yield "ybe-undeformed", ybe_residual(*labs)
    yield "ybe-deformed", ybe_residual(*qlabs, which="deformed")
    reps, qreps = [atypical_rep(lab) for lab in labs], [q_atypical_rep(lab) for lab in qlabs]
    for modules in (reps, qreps, [affine_eval_rep(lab) for lab in qlabs]):
        for rpt in (coassociativity_report(*modules), counit_antipode_report(modules[0]),
                    cocommutativity_report(*modules[:2])):
            yield rpt.suite, rpt.max_residual
    for check, rep in ((check_relations, reps[0]), (q_check_relations, qreps[0])):
        yield check.__name__, check(rep).max_residual
        for name in ("ef", "ef_cross", "nodes"):
            yield f"{check.__name__}:{name}", check(klein_twist(name, rep)).max_residual
    yield "q-hom", q_hom_report(*qreps[:2]).max_residual
    la, lb = qlabs[:2]
    typical = q_typical_from_powers(la.qlam1 * lb.qlam1, la.qlam2 * lb.qlam2, la.nu * lb.nu,
                                    la.q, la.alpha)
    yield "q-typical relations", q_check_relations(typical).max_residual
    ra, rb = affine_eval_rep(la), affine_eval_rep(lb)
    for variant, beta in (("standard", 1), ("swapped", 1), ("standard", -1)):
        yield (f"affine-relations:{variant},{beta}",
               affine_relations_report(affine_eval_rep(la, variant, beta)).max_residual)
    yield "affine-hom", affine_hom_report(ra, rb).max_residual
    for beta in (1, -1):
        yield f"affine-intertwining:{beta}", affine_intertwine(la, lb, beta=beta).max_residual
    yield "upper-nodes", q_check_relations(upper_nodes_subalgebra(ra)).max_residual
    lab, sign = _mp_labels(suites.draw_labels(rng)), 1 if rng.integers(2) else -1
    yield "singlet", singlet_report(lab, suites._singlet_partner(lab, sign)).max_residual
    qlab = _mp_qlabels(suites.draw_qlabels(rng))
    yield "q-singlet", q_singlet_report(qlab, suites._q_singlet_partner(qlab, sign)).max_residual
    eva, evb = scaled_eval_pair(*labs[:2])
    eps1, eps2 = mpc(1.2, -0.3), mpc(0.7, 0.1)
    for rpt in (kir_report(eva), level_bracket_report(eva, 8), coproduct_hom_report(eva, evb),
                k_cocommutativity_report(eva, evb),
                omega_twist_equivalence(eva, evb, eps1, eps2, 3),
                omega_preserves_brackets_report(eva, eps1, eps2), current_relations_report(eva, 6),
                antipode_report(eva, 4), yangian_intertwine(*labs[:2])):
        yield rpt.suite, rpt.max_residual


def test_every_suite_checker_runs_at_40_digits_on_mpmath_labels():
    # seed 12 draws a singlet whose h0 eigenvalue a double-precision vector reads at 6e-16
    with mp.workdps(40):
        residuals = dict(_suite_checks_at_40_digits(12))
        la, lb = (_mp_labels(lab) for lab in next(_pairs(3, False)))
        qa, qb = (_mp_qlabels(lab) for lab in next(_pairs(3, True)))
        # the LAPACK steps stay double precision, and say so
        for fuse, pair in ((fuse_check, (la, lb)), (q_fuse_check, (qa, qb))):
            with pytest.raises(TypeError, match="fusion basis inverse runs LAPACK"):
                fuse(*pair)
        for solve in (solve_intertwiner, r_solve):
            with pytest.raises(TypeError, match="SVD solver runs LAPACK"):
                solve(atypical_rep(la), atypical_rep(lb))
    worst = max(residuals, key=residuals.get)
    print(f"{len(residuals)} checks at 40 digits, worst {worst}: {residuals[worst]:.2e}")
    loose = {name: value for name, value in residuals.items() if not value <= 1e-35}
    assert not loose, loose


def test_the_40_digit_antipode_report_writes_json():
    la, lb = next(_pairs(7, False))
    with mp.workdps(40):
        rpt = antipode_report(scaled_eval_pair(_mp_labels(la), _mp_labels(lb))[0], 4)
    assert {type(r) for r in rpt.residuals} == {float}
    back = json.loads(rpt.to_json())
    assert [case["residual"] for case in back["cases"]] == rpt.residuals
    assert back["max_residual"] == rpt.max_residual <= 1e-35


def _free_fermion(c) -> sp.Expr:
    """a1 a2 - b1 b2 - c1 c2 of the six slot coefficients, expanded."""
    return sp.expand(c["11,11"] * c["22,22"] - c["11,22"] * c["22,11"]
                     - c["12,21"] * c["21,12"])


def test_the_closed_forms_are_free_fermion_exactly():
    g1, n1, g2, n2, h = sp.symbols("gamma1 nu1 gamma2 nu2 h")
    closed = slot_coefficients(r_closed(RepLabels(g1, n1, *default_alpha(h)),
                                        RepLabels(g2, n2, *default_alpha(h))))
    assert all(isinstance(c, sp.Expr) for c in closed.values())
    assert _free_fermion(closed) == 0
    # the deformed coefficients with a free weight power at each site
    deformed = rq_from_powers(g1, n1, *sp.symbols("k1 k2"), g2, n2, *sp.symbols("k1p k2p"))
    assert _free_fermion(deformed) == 0
    # another sign choice is not an identity
    assert sp.expand(closed["11,11"] * closed["22,22"] + closed["11,22"] * closed["22,11"]
                     - closed["12,21"] * closed["21,12"]) != 0
