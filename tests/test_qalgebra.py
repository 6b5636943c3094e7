import numpy as np
import pytest

from sl11kit.algebra import (AtypicalLocusWarning, DegenerateFusionError,
                             GeneratorImage, RepLabels,
                             SingletPreconditionError, klein_twist, singlet_vector)
from sl11kit.coproduct import (coassociativity_report, cocommutativity_report,
                               counit_antipode_report)
from sl11kit.graded import max_abs
from sl11kit.qalgebra import (QRepLabels, RootOfUnityError, q_atypical_rep,
                              q_check_relations, q_coproduct_image, q_fuse_check,
                              q_hom_report, q_labels,
                              q_root_labels, q_singlet_report, q_singlet_vector,
                              q_typical_from_powers, q_typical_rep, qbracket,
                              qbracket_of_power, reject_root_of_unity)

Q = 1.15 + 0.08j
ALPHA = (-0.5, 0.5)


def qlab(lambda1=0.9 - 0.2j, nu=np.exp(0.4j), q=Q, alpha=ALPHA, root=0):
    return q_labels(lambda1, nu, q, alpha)[root]


def test_qbracket_values():
    assert qbracket(0, Q) == 0
    assert abs(qbracket(1, Q) - 1) < 1e-15
    lam = 0.7 - 0.3j
    assert abs(qbracket(lam, 1 + 1e-6) - lam) < 1e-5
    assert abs(qbracket_of_power(np.exp(lam * np.log(Q)), Q) - qbracket(lam, Q)) < 1e-14


def test_qbracket_rejects_unit_q():
    with pytest.raises(ValueError):
        qbracket(0.5, 1.0)
    with pytest.raises(ValueError):
        qbracket(0.5, -1.0)


def test_root_of_unity_rejected():
    with pytest.raises(RootOfUnityError):
        q_labels(0.5, np.exp(0.3j), np.exp(2j * np.pi / 7), ALPHA)


def _powers_come_near_one(q: complex) -> bool:
    """The 48-power loop of reject_root_of_unity, run on every q."""
    power = 1.0 + 0.0j
    for _ in range(48):
        power *= q
        if abs(power - 1.0) < 1e-9:
            return True
    return False


def _rejected(q: complex) -> bool:
    try:
        reject_root_of_unity(q)
    except RootOfUnityError:
        return True
    return False


def test_root_of_unity_shortcut_decides_as_the_powers_do():
    roots = [np.exp(2j * np.pi / order) for order in range(1, 50)]
    assert [_rejected(q) for q in roots] == [True] * 48 + [False]
    phases = np.exp(2j * np.pi * np.arange(240) / 240)
    offsets = [0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 9.9e-7, -9.9e-7,
               1.01e-6, -1.01e-6, 2e-6, -2e-6]
    grid = [complex(q) for offset in offsets for q in (1 + offset) * phases]
    decisions = [_rejected(q) for q in roots + grid]
    assert decisions == [_powers_come_near_one(q) for q in roots + grid]
    assert 0 < sum(decisions) < len(decisions)


def test_q_labels_roots_satisfy_shortening():
    r0, r1 = q_labels(0.9 - 0.2j, np.exp(0.4j), Q, ALPHA)
    for lab in (r0, r1):
        assert abs(lab.shortening_residual()) <= 1e-10
        assert max(abs(x) for x in lab.gamma_residuals()) <= 1e-10
    assert abs(r0.qlam2**2 - r1.qlam2**2) > 1e-6  # genuinely distinct roots


def _bits(lab):
    fields = (lab.gamma, lab.nu, lab.q, lab.qlam1, lab.qlam2, lab.alpha1, lab.alpha2)
    return tuple(np.array(fields).view(np.uint64)) + (lab.branch,)


def test_q_root_labels_is_one_root_of_q_labels_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam1 = complex(rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5))
        nu, q = np.exp(1j * rng.uniform(0.2, 1.3)), 1 + 0.2 * np.exp(2j * np.pi * rng.uniform())
        for k2, g in ((0, 0), (1, 0), (0, 1)):
            both = q_labels(lam1, nu, q, ALPHA, k2, g)
            for root in (0, 1, -1):
                one = q_root_labels(lam1, nu, q, ALPHA, root, k2, g)
                assert _bits(one) == _bits(both[root])
    built = []
    post_init = QRepLabels.__post_init__
    monkeypatch.setattr(QRepLabels, "__post_init__",
                        lambda self: (built.append(self), post_init(self)))
    q_root_labels(0.9 - 0.2j, np.exp(0.4j), Q, ALPHA, 1)
    assert len(built) == 1 and built[0].branch.startswith("root1,")
    with pytest.raises(IndexError):
        q_root_labels(0.9 - 0.2j, np.exp(0.4j), Q, ALPHA, 2)
    with pytest.raises(RootOfUnityError):
        q_root_labels(0.5, np.exp(0.3j), np.exp(2j * np.pi / 7), ALPHA, 0)


def test_q_labels_bracket_identity_near_one():
    # [lambda2]_q equals the product of the alpha-dressed mu brackets over
    # [lambda1]_q; as q -> 1 the latter tends to the input weight lambda1.
    lam1 = 0.9 - 0.2j
    for eps in (1e-3, 1e-5):
        lab = q_labels(lam1, np.exp(0.4j), 1 + eps, ALPHA)[0]
        prod = lab.alpha1 * lab.br_mu1 * lab.alpha2 * lab.br_mu2
        assert abs(lab.br_lam2 - prod / lab.br_lam1) <= 1e-9 * abs(lab.br_lam2)
        assert abs(lab.br_lam1 - lam1) <= 10 * eps * abs(lam1)


def test_q_atypical_relations():
    rep = q_atypical_rep(qlab())
    rpt = q_check_relations(rep)
    assert rpt.max_residual <= 1e-12
    # K0 conjugation specifically
    cases = {c.identity: c.residual for c in rpt.cases}
    assert cases["K0+ E1 K0- - q E1"] <= 1e-12
    assert cases["K0- F1 K0+ - q F1"] <= 1e-12


def test_q_atypical_ef_bracket_scalar():
    lab = qlab()
    rep = q_atypical_rep(lab)
    anti = rep["E1"].m @ rep["F1"].m + rep["F1"].m @ rep["E1"].m
    assert max_abs(anti - lab.br_lam1 * np.eye(2)) <= 1e-12


def test_q_check_relations_perturbed_l():
    lab = qlab()
    rep = q_atypical_rep(lab)
    imgs = dict(rep.images)
    delta = 1e-3
    imgs["L1+"] = imgs["L1+"] + delta * np.eye(2)[0, 0] * imgs["U+"] @ imgs["U-"]
    broken = GeneratorImage.from_images(rep.space, imgs, alpha=rep.alpha, q=rep.q, kind="q")
    rpt = q_check_relations(broken)
    cases = {c.identity: c.residual for c in rpt.cases}
    assert abs(cases["L1+ - K1+K2+U^2"] - delta) < 1e-12


def test_q_typical_actions():
    lab = qlab()
    rep = q_typical_rep(0.9 - 0.2j, 0.4 + 0.7j, np.exp(0.4j), Q, ALPHA)
    assert q_check_relations(rep).max_residual <= 1e-11
    v1 = np.array([0, 1, 0, 0], dtype=complex)
    bl1 = qbracket(0.9 - 0.2j, Q)
    got = rep["E1"].m @ v1
    assert max_abs(got - bl1 * np.array([1, 0, 0, 0])) <= 1e-13


def test_q_atypical_locus_submodule():
    lab = qlab()
    with pytest.warns(AtypicalLocusWarning):
        typ = q_typical_from_powers(lab.qlam1, lab.qlam2, lab.nu, lab.q, lab.alpha)
    aty = q_atypical_rep(lab)
    w1 = np.array([0, 0, 0, 1 / lab.gamma], dtype=complex)
    w0 = np.array([0, lab.br_lam2, -lab.alpha2 * lab.br_mu2, 0], dtype=complex)
    basis = np.column_stack([w1, w0])
    for name in ("E1", "E2", "F1", "F2", "K1+", "K2+", "L1+", "L2+", "U+"):
        assert max_abs(typ[name].m @ basis - basis @ aty[name].m) <= 1e-11, name
    v21 = np.array([0, 0, 0, 1], dtype=complex)
    assert max_abs(typ["E1"].m @ (typ["E2"].m @ v21)) <= 1e-12


def test_q_coproduct_homomorphism_and_cocommutativity():
    a, b = qlab(), qlab(0.6 + 0.5j, np.exp(-0.6j))
    ra, rb = q_atypical_rep(a), q_atypical_rep(b)
    assert q_hom_report(ra, rb).max_residual <= 1e-11
    assert cocommutativity_report(ra, rb, 1e-12).max_residual <= 1e-13
    k1t = q_coproduct_image("K1+", ra, rb)
    assert max_abs(k1t.m - (a.qlam1 * b.qlam1) * np.eye(4)) <= 1e-13


def test_q_coassociativity():
    reps = [q_atypical_rep(qlab()), q_atypical_rep(qlab(0.6 + 0.5j, np.exp(-0.6j))),
            q_atypical_rep(qlab(0.3 + 0.8j, np.exp(0.9j)))]
    assert coassociativity_report(*reps).max_residual <= 1e-10


def test_q_counit_antipode():
    assert counit_antipode_report(q_atypical_rep(qlab()), 1e-12).max_residual <= 1e-12


def test_q_fusion():
    a, b = qlab(), qlab(0.6 + 0.5j, np.exp(-0.6j))
    res = q_fuse_check(a, b)
    assert abs(res.qlam1 - a.qlam1 * b.qlam1) == 0.0
    assert res.report.max_residual <= 1e-10


def _singlet_partner(a: QRepLabels, sign: int = 1) -> QRepLabels:
    return QRepLabels(sign * a.gamma, 1 / a.nu, a.q, 1 / a.qlam1, 1 / a.qlam2,
                      a.alpha1, a.alpha2)


def test_q_singlet():
    a = qlab()
    b = _singlet_partner(a)
    rpt = q_singlet_report(a, b)
    assert rpt.max_residual <= 1e-11


def test_q_singlet_precondition():
    a = qlab()
    bad = qlab(0.6 + 0.5j, np.exp(-0.6j))
    with pytest.raises(SingletPreconditionError):
        q_singlet_vector(a, bad)


def test_q_singlet_matches_classical_vector():
    # on the admissible locus the deformed invariant vector has the same
    # coefficients as the undeformed one for equal (gamma, gamma', nu, nu')
    a = qlab()
    b = _singlet_partner(a)
    vq = q_singlet_vector(a, b)
    ca = RepLabels(a.gamma, a.nu, *ALPHA)
    cb = RepLabels(b.gamma, 1 / a.nu, *ALPHA)
    vc = singlet_vector(ca, cb)
    assert max_abs(vq - vc) <= 1e-12


def test_q_klein_twists():
    rep = q_atypical_rep(qlab())
    for name in ("ef", "ef_cross", "nodes"):
        twisted = klein_twist(name, rep)
        assert q_check_relations(twisted).max_residual <= 1e-11, name
        back = klein_twist(name, twisted)
        for g in rep.names:
            assert max_abs(back[g] - rep[g]) == 0.0


def test_q_fusion_degenerate():
    a = qlab()
    b = _singlet_partner(a)
    with pytest.raises(DegenerateFusionError):
        q_fuse_check(a, b)
