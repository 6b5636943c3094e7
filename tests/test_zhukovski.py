import numpy as np
import pytest

from sl11kit.algebra import RepLabels, atypical_rep, check_relations
from sl11kit.graded import max_abs
from sl11kit.qalgebra import q_atypical_rep, q_check_relations
from sl11kit.rmatrix import conjugate_rep
from sl11kit.zhukovski import (BranchTieError, CoefficientPack, QZhukovskiPoint,
                               ZhukovskiPoint, _eta, _principal_root, dispersion,
                               left_labels, q_labels_from_x, q_zhukovski_point,
                               right_labels, zeta, zhukovski_solve)


def test_solver_satisfies_shell():
    zp = zhukovski_solve(1.0, 1.5, 1.2)
    r1, r2 = zp.residuals()
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_solver_massless_branch():
    zp = zhukovski_solve(1.0, 0.0, 1.0)
    assert abs(zp.xplus - np.exp(0.5j)) < 1e-14
    assert abs(zp.xminus - np.exp(-0.5j)) < 1e-14
    assert abs(zp.xplus * zp.xminus - 1) < 1e-14


def test_solver_branches():
    out = zhukovski_solve(0.9, 2.0, 1.1)
    inn = zhukovski_solve(0.9, 2.0, 1.1, branch="inside")
    assert abs(out.xplus) >= 1 >= abs(inn.xplus)
    assert abs(out.xplus * inn.xplus + np.exp(0.9j)) < 1e-12  # root product


def test_solver_conjugate_pair_for_real_data():
    zp = zhukovski_solve(0.8, 2.0, 1.5)
    assert abs(np.conj(zp.xplus) - zp.xminus) < 1e-12


def test_solver_degenerate_and_tie():
    with pytest.raises(ValueError):
        zhukovski_solve(0.0, 1.0, 1.0)
    with pytest.raises(BranchTieError):
        zhukovski_solve(np.pi, 0.0, 1.0)  # roots +-i
    with pytest.raises(ValueError):
        zhukovski_solve(1.0, 1.0, 0.0)


def test_left_labels_products():
    zp = zhukovski_solve(1.0, 1.5, 1.2)
    lab, pack = left_labels(zp)
    h = zp.h
    assert abs(pack.a * pack.c - h * lab.nu**2 * (zp.xminus / zp.xplus - 1)) < 1e-12
    assert abs(pack.a * pack.b - 1j * h * (zp.xminus - zp.xplus)) < 1e-12
    assert abs(lab.lambda1 * lab.lambda2 - lab.mu1 * lab.mu2) < 1e-13
    assert abs(lab.alpha1 + h) < 1e-15 and abs(lab.alpha2 - h) < 1e-15


def test_left_labels_roundtrip_relations():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = rng.uniform(0.2, 2.9)
        m = rng.uniform(0.0, 3.0)
        h = rng.uniform(0.5, 2.0)
        lab, _ = left_labels(zhukovski_solve(p, m, h))
        assert check_relations(atypical_rep(lab)).max_residual <= 1e-11


def test_left_labels_reality_structure():
    _, pack = left_labels(zhukovski_solve(0.8, 2.0, 1.5))
    lab, _ = left_labels(zhukovski_solve(0.8, 2.0, 1.5))
    assert abs(np.conj(pack.a) - pack.b) < 1e-12
    assert abs(np.conj(pack.c) - pack.d) < 1e-12
    assert abs(np.conj(lab.nu) - 1 / lab.nu) < 1e-12


def test_left_labels_degenerate_point():
    # x+ = x- makes eta vanish and the whole pack collapse
    zp = ZhukovskiPoint(1.3 + 0.0j, 1.3 + 0.0j, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        left_labels(zp)


def test_right_labels():
    zp = zhukovski_solve(1.0, 1.5, 1.2)
    lab, pack = right_labels(zp)
    h = zp.h
    assert abs(lab.lambda2 - 1j * h * (zp.xminus - zp.xplus)) < 1e-12
    assert abs(lab.lambda1 - 1j * h * (1 / zp.xplus - 1 / zp.xminus)) < 1e-12
    assert abs(lab.lambda1 * lab.lambda2 - lab.mu1 * lab.mu2) < 1e-13
    assert check_relations(atypical_rep(lab)).max_residual <= 1e-11


def _ref_labels(zp, eta_branch=0, nu_branch=0, gamma_branch=0, tolerance=1e-10,
                right=False):
    """The two movers' label builders as separate bodies (the reference)."""
    h = zp.h
    sh = _principal_root(h, 0)
    smh = 1j * sh
    nu = _principal_root(zp.xplus / zp.xminus, nu_branch, order=4)
    eta = _eta(zp, eta_branch)
    a = sh * eta * nu
    b = sh * eta / nu
    c = -smh * eta * nu / zp.xplus
    d = smh * eta / (zp.xminus * nu)
    if not right:
        gamma = _principal_root(-1j * nu**2 * zp.xminus, gamma_branch)
        labels = RepLabels(gamma, nu, -h, h)
        checks = (
            ("a c - mu1", a * c - labels.mu1),
            ("b d - mu2", b * d - labels.mu2),
            ("a b - lambda1", a * b - labels.lambda1),
            ("c d - lambda2", c * d - labels.lambda2),
            ("lambda1 - i h (x- - x+)", labels.lambda1 - 1j * h * (zp.xminus - zp.xplus)),
            ("lambda2 - i h (1/x+ - 1/x-)",
             labels.lambda2 - 1j * h * (1 / zp.xplus - 1 / zp.xminus)),
        )
    else:
        gamma = _principal_root(-1j * nu**2 / zp.xplus, gamma_branch)
        labels = RepLabels(gamma, nu, -h, h)
        checks = (
            ("a c - mu1", a * c - labels.mu1),
            ("b d - mu2", b * d - labels.mu2),
            ("c d - lambda1", c * d - labels.lambda1),
            ("a b - lambda2", a * b - labels.lambda2),
            ("lambda1 - i h (1/x+ - 1/x-)",
             labels.lambda1 - 1j * h * (1 / zp.xplus - 1 / zp.xminus)),
            ("lambda2 - i h (x- - x+)", labels.lambda2 - 1j * h * (zp.xminus - zp.xplus)),
        )
    scale = max(abs(a * c), abs(a * b), 1.0)
    for name, resid in checks:
        if abs(resid) > tolerance * scale:
            raise ValueError(f"coefficient pack inconsistent: {name} = {abs(resid):.3e}")
    return labels, CoefficientPack(a, b, c, d)


def _outcome(build, *args, **kwargs):
    try:
        labels, pack = build(*args, **kwargs)
    except ValueError as err:
        return str(err)
    return [repr(getattr(labels, f)) for f in ("gamma", "nu", "alpha1", "alpha2")] + \
        [repr(v) for v in pack]


def test_mover_labels_match_the_separate_builders():
    rng = np.random.default_rng(8)
    errors = 0
    for _ in range(40):
        zp = zhukovski_solve(rng.uniform(0.2, 2.9), rng.uniform(0.0, 3.0),
                             rng.uniform(0.5, 2.0),
                             branch=("outside", "inside")[rng.integers(2)])
        branches = dict(eta_branch=int(rng.integers(2)), nu_branch=int(rng.integers(4)),
                        gamma_branch=int(rng.integers(2)))
        for tolerance in (1e-10, 1e-16, 0.0):
            for build, right in ((left_labels, False), (right_labels, True)):
                got = _outcome(build, zp, tolerance=tolerance, **branches)
                want = _outcome(_ref_labels, zp, tolerance=tolerance, right=right,
                                **branches)
                assert got == want
                errors += isinstance(got, str)
    assert errors  # the error messages were compared too


def test_right_moving_action_pattern():
    # the conjugated representation acts with the barred pattern:
    # e1|psi> = c|phi>, f1|phi> = d|psi>, f2|phi> = a|psi>, e2|psi> = b|phi>
    zp = zhukovski_solve(1.0, 1.5, 1.2)
    lab, pack = right_labels(zp)
    rep = conjugate_rep(atypical_rep(lab))
    psi = np.array([0.0, lab.gamma * pack.b], dtype=complex)
    phi = np.array([1.0, 0.0], dtype=complex)
    assert max_abs(rep["e1"].m @ psi - pack.c * phi) <= 1e-12
    assert max_abs(rep["f1"].m @ phi - pack.d * psi) <= 1e-12
    assert max_abs(rep["f2"].m @ phi - pack.a * psi) <= 1e-12
    assert max_abs(rep["e2"].m @ psi - pack.b * phi) <= 1e-12


def test_q_point_invariants():
    qzp = q_zhukovski_point(1.4 + 0.9j, 3.0 + 0.5j, 0.35 - 0.1j, 1.12 + 0.05j)
    r1, r2 = qzp.residuals()
    assert r1 <= 1e-10 and r2 <= 1e-12


def test_q_labels_from_x_products_and_roundtrip():
    qzp = q_zhukovski_point(1.4 + 0.9j, 3.0 + 0.5j, 0.35 - 0.1j, 1.12 + 0.05j)
    lab, pack = q_labels_from_x(qzp)
    assert abs(lab.shortening_residual()) <= 1e-10
    assert q_check_relations(q_atypical_rep(lab)).max_residual <= 1e-10
    qq = lab.q - 1 / lab.q
    qd2 = np.exp(qzp.delta * np.log(lab.q) / 2)
    sigma2 = lab.qlam1 * lab.qlam2
    expect = (qd2 * sigma2 - 1 / (qd2 * sigma2)) / qq
    assert abs(pack.a * pack.b - expect) <= 1e-10 * max(1.0, abs(expect))


def test_q_labels_from_x_rejects_off_shell():
    qzp = QZhukovskiPoint(1.4 + 0.9j, 0.5 - 0.2j, 3.0 + 0.5j, 0.35 - 0.1j,
                          1.12 + 0.05j, 1.06)
    with pytest.raises(ValueError):
        q_labels_from_x(qzp)


def test_q_dictionary_classical_limit_path():
    # q -> 1 with xi -> infinity tied by delta = i M/(2 eps xi): x- approaches
    # the classical branch, sigma^4 approaches the classical nu^4 = x+/x-,
    # the deformed nu^4 collapses to 1, and h -> 1
    zp = zhukovski_solve(1.0, 1.5, 1.0)
    prev = None
    for eps, xi in ((1e-3, 1e3), (1e-4, 1e4), (1e-5, 1e5)):
        qzp = q_zhukovski_point(zp.xplus, xi, 1.5j / (2 * eps * xi), 1 + eps,
                                xminus_hint=zp.xminus)
        lab, _ = q_labels_from_x(qzp)
        sigma4 = (lab.qlam1 * lab.qlam2) ** 2
        err = (abs(qzp.xminus - zp.xminus) + abs(sigma4 - zp.xplus / zp.xminus)
               + abs(lab.nu**4 - 1) + abs(qzp.h - 1))
        assert err <= 50 * eps
        if prev is not None:
            assert err < prev
        prev = err


def test_zeta_symmetry():
    xi = 2.0 + 0.3j
    x = 1.7 - 0.4j
    assert abs(zeta(x, xi) - zeta(1 / x, xi)) < 1e-14


def test_dispersion_values():
    h_val, m_val = dispersion(0.3, np.pi / 4, 1.0)
    assert m_val == 0
    assert abs(h_val + 4 * np.sin(0.6)) < 1e-14
    h0, m0 = dispersion(0.0, 0.7, 1.0)
    assert h0 == 0 and m0 == 0


def test_dispersion_identity():
    theta, lam, h = 0.3, 0.2, 1.3
    energy, mom = dispersion(theta, lam, h)
    direct = -16 * h**2 * np.sin(2 * theta) ** 2 * np.cos(4 * lam)
    assert abs(energy**2 + mom**2 - direct) < 1e-12


def test_solver_rejects_an_unknown_branch():
    with pytest.raises(ValueError, match="'outside' or 'inside'.*'outsde'"):
        zhukovski_solve(1.0, 0.5, 1.0, branch="outsde")
    assert abs(zhukovski_solve(1.0, 0.5, 1.0).xplus) > 1


def test_q_point_rejects_an_unknown_minus_branch():
    with pytest.raises(ValueError, match="'near-inverse' or 'near-same'.*'near_inverse'"):
        q_zhukovski_point(1.4 + 0.9j, 3.0 + 0.5j, 0.35 - 0.1j, 1.12 + 0.05j,
                          minus_branch="near_inverse")


@pytest.mark.parametrize("xplus, xi, q, message", [
    (0, 3.0, 1.1, "x\\+ must be nonzero"),
    (1.4, 1.0, 1.1, "xi\\^2 neither 0 nor 1"),
    (1.4, -1.0, 1.1, "xi\\^2 neither 0 nor 1"),
    (1.4, 0, 1.1, "xi\\^2 neither 0 nor 1"),
    (1.4, 3.0, 1.0, "root of unity"),
    (1.4, 3.0, 0, "q must be nonzero"),
], ids=["xplus-0", "xi-1", "xi-minus-1", "xi-0", "q-1", "q-0"])
def test_q_point_rejects_the_singular_loci_with_a_value_error(xplus, xi, q, message):
    with pytest.raises(ValueError, match=message):
        q_zhukovski_point(xplus, xi, 0.3, q)
