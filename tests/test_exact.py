"""Labels of any scalar type through the one copy of the image formulas, the
coproduct stacks and the closed R-matrices: ``mpmath`` at 40 digits, ``sympy``
exactly, the module memo, and the double-precision edges that refuse them."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from mpmath import mp, mpc

import sl11kit
from sl11kit import suites
from sl11kit.algebra import COPRODUCT, RepLabels, atypical_rep, default_alpha, typical_rep
from sl11kit.coproduct import TABLES, coproduct_stack
from sl11kit.qalgebra import QRepLabels, q_atypical_rep, q_typical_from_powers, qbracket_of_power
from sl11kit.rmatrix import intertwining_report, r_closed, r_solve, rq_closed, solve_intertwiner

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
            for array in (ra.stack, rb.stack, coproduct_stack(TABLES[ra.kind], ra, rb)):
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


def test_importing_the_library_loads_neither_sympy_nor_mpmath():
    code = ("import sys, sl11kit, sl11kit.cli; "
            "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(sl11kit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
