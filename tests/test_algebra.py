import json

import numpy as np
import pytest

from sl11kit.algebra import (AtypicalLocusWarning, DegenerateFusionError,
                             GeneratorImage, RepLabels,
                             SingletPreconditionError, atypical_rep,
                             check_relations, coproduct_image,
                             default_alpha, fuse_check,
                             gl2_twist, klein_twist, singlet_report,
                             singlet_vector, typical_rep)
from sl11kit.coproduct import (coassociativity_report, cocommutativity_report,
                               counit_antipode_report)
from sl11kit.graded import C11, max_abs, unit


def labels(gamma=1.3 - 0.4j, nu=np.exp(0.7j), alpha=(-0.5, 0.5)):
    return RepLabels(gamma, nu, *alpha)


def partner(base, gamma=0.8 + 0.3j, nu=np.exp(-0.35j)):
    return RepLabels(gamma, nu, base.alpha1, base.alpha2)


def test_derived_weights_satisfy_shortening():
    lab = labels()
    scale = abs(lab.mu1 * lab.mu2)
    assert abs(lab.lambda1 * lab.lambda2 - lab.mu1 * lab.mu2) < 1e-15 * scale


def test_gamma_square_sign():
    c = 1.7
    lab = RepLabels(1j * c, np.exp(0.4j), -0.5, 0.5)
    assert abs(lab.lambda1 + c**2 * lab.mu2) < 1e-14


def test_degenerate_labels():
    lab = RepLabels(1.0, 1.0, -0.5, 0.5)  # nu^4 = 1
    assert lab.degenerate
    rep = atypical_rep(lab)
    assert max_abs(rep["f1"]) == 0.0 and max_abs(rep["f2"]) == 0.0
    assert max_abs(rep["e1"] - unit(C11, C11, 1, 0)) == 0.0


def test_atypical_relations():
    rep = atypical_rep(labels())
    rpt = check_relations(rep)
    assert rpt.max_residual <= 1e-12


def test_check_relations_detects_broken_k():
    lab = labels()
    rep = atypical_rep(lab)
    imgs = dict(rep.images)
    imgs["k1"] = 0 * imgs["k1"]
    broken = GeneratorImage.from_images(rep.space, imgs, alpha=rep.alpha)
    rpt = check_relations(broken)
    case = {c.identity: c.residual for c in rpt.cases}
    assert abs(case["[e1,f2]-k1"] - abs(lab.mu1)) < 1e-12


def test_check_relations_missing_name():
    rep = atypical_rep(labels())
    imgs = dict(rep.images)
    del imgs["u+"]
    with pytest.raises(KeyError):
        check_relations(GeneratorImage.from_images(rep.space, imgs, alpha=rep.alpha))


def test_typical_relations_and_h0():
    rep = typical_rep(0.9 - 0.2j, 1.4 + 0.6j, np.exp(0.3j), (-0.5, 0.5))
    assert max_abs(rep["h0"].m - np.diag([0, -1, -1, -2])) == 0.0
    assert check_relations(rep).max_residual <= 1e-12


def test_typical_warns_on_shortening_locus():
    lab = labels()
    with pytest.warns(AtypicalLocusWarning):
        typical_rep(lab.lambda1, lab.lambda2, lab.nu, lab.alpha)


def test_atypical_locus_submodule():
    # on the shortening locus, span{v2', gamma^{-1} v21} carries the 2-dim module
    lab = labels()
    with pytest.warns(AtypicalLocusWarning):
        typ = typical_rep(lab.lambda1, lab.lambda2, lab.nu, lab.alpha)
    aty = atypical_rep(lab)
    w1 = np.array([0, 0, 0, 1 / lab.gamma], dtype=complex)   # gamma^{-1} v21
    w0 = np.array([0, lab.lambda2, -lab.mu2, 0], dtype=complex)  # v2'
    basis = np.column_stack([w1, w0])
    for name in ("e1", "e2", "f1", "f2", "h1", "h2", "k1", "k2", "u+", "u-"):
        lhs = typ[name].m @ basis
        rhs = basis @ aty[name].m
        assert max_abs(lhs - rhs) <= 1e-12, name
    # e1 e2 annihilates v21 exactly on the locus
    v21 = np.array([0, 0, 0, 1], dtype=complex)
    assert max_abs(typ["e1"].m @ (typ["e2"].m @ v21)) <= 1e-12


def test_coproduct_h1_and_group_like():
    a, b = labels(), partner(labels())
    ra, rb = atypical_rep(a), atypical_rep(b)
    d_h1 = coproduct_image("h1", ra, rb)
    assert max_abs(d_h1.m - (a.lambda1 + b.lambda1) * np.eye(4)) < 1e-13
    d_up = coproduct_image("u+", ra, rb)
    assert max_abs(d_up.m - (a.nu * b.nu) * np.eye(4)) < 1e-13


def test_central_cocommutativity():
    a, b = labels(), partner(labels())
    rpt = cocommutativity_report(atypical_rep(a), atypical_rep(b))
    assert rpt.max_residual <= 1e-12


def test_coproduct_unknown_generator():
    ra = atypical_rep(labels())
    with pytest.raises(KeyError):
        coproduct_image("e3", ra, ra)


def test_coassociativity():
    a = labels()
    b = partner(a)
    c = partner(a, gamma=1.1 + 0.9j, nu=np.exp(0.95j))
    rpt = coassociativity_report(*(atypical_rep(x) for x in (a, b, c)))
    assert rpt.max_residual <= 1e-10


def test_counit_antipode():
    rpt = counit_antipode_report(atypical_rep(labels()))
    assert rpt.max_residual <= 1e-12


def test_fusion_matches_4dim_module():
    a = labels()
    b = partner(a)
    res = fuse_check(a, b)
    assert abs(res.lambda2 - (a.lambda2 + b.lambda2)) == 0.0
    assert abs(np.linalg.det(res.basis)) > 1e-8
    assert res.report.max_residual <= 1e-10
    eig = {c.identity: c.params.get("expected") for c in res.report.cases}
    k1 = a.alpha1 * ((a.nu * b.nu) ** 2 - (a.nu * b.nu) ** -2)
    assert abs(eig["weight:k1"] - k1) < 1e-13


def test_fusion_degenerate_point():
    a = labels()
    b = RepLabels(a.gamma, 1 / a.nu, a.alpha1, a.alpha2)
    with pytest.raises(DegenerateFusionError):
        fuse_check(a, b)


def test_singlet_annihilation():
    a = labels()
    b = RepLabels(a.gamma, 1 / a.nu, a.alpha1, a.alpha2)
    rpt = singlet_report(a, b)
    assert rpt.max_residual <= 1e-12
    eig = [c for c in rpt.cases if c.identity == "h0-eigenvector"][0]
    assert abs(eig.params["eigenvalue"] + 3.0) < 1e-12


def test_singlet_precondition():
    a = labels()
    bad = RepLabels(a.gamma, np.exp(0.5j) / a.nu, a.alpha1, a.alpha2)
    with pytest.raises(SingletPreconditionError) as err:
        singlet_vector(a, bad)
    assert "nu nu'" in str(err.value)


def test_klein_twists_are_involutions_and_preserve_relations():
    rep = atypical_rep(labels())
    for name in ("ef", "ef_cross", "nodes"):
        twisted = klein_twist(name, rep)
        assert check_relations(twisted).max_residual <= 1e-12, name
        back = klein_twist(name, twisted)
        for g in rep.names:
            assert max_abs(back[g] - rep[g]) == 0.0
        assert back.alpha == rep.alpha


def test_klein_composition_table():
    rep = atypical_rep(labels())
    via = klein_twist("ef", klein_twist("ef_cross", rep))
    direct = klein_twist("nodes", rep)
    for g in rep.names:
        assert max_abs(via[g] - direct[g]) == 0.0
    assert via.alpha == direct.alpha


def test_klein_unknown_name():
    with pytest.raises(KeyError):
        klein_twist("bogus", atypical_rep(labels()))


def test_gl2_twist():
    rep = typical_rep(0.9 - 0.2j, 1.4 + 0.6j, np.exp(0.3j), (-0.5, 0.5))
    ident = gl2_twist(np.eye(2), np.eye(2), rep)
    for g in rep.names:
        assert max_abs(ident[g] - rep[g]) == 0.0
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    twisted = gl2_twist(a, b, rep)
    assert check_relations(twisted).max_residual <= 1e-10


def test_gl2_twist_singular_input():
    with pytest.raises(ValueError):
        gl2_twist(np.zeros((2, 2)), np.eye(2), atypical_rep(labels()))


def test_gl2_diagonal_rescaling_pattern():
    # B = diag(eps1, eps2), A = I is the level-0 rescaling twist:
    # e_i fixed, f_i -> eps_i f_i, h_i -> eps_i h_i, k_i -> eps_j k_i
    rep = atypical_rep(labels())
    eps1, eps2 = 1.7, 0.6
    tw = gl2_twist(np.eye(2), np.diag([eps1, eps2]), rep)
    assert max_abs(tw["e1"] - rep["e1"]) == 0.0
    assert max_abs(tw["f1"] - eps1 * rep["f1"]) == 0.0
    assert max_abs(tw["f2"] - eps2 * rep["f2"]) == 0.0
    assert max_abs(tw["h1"] - eps1 * rep["h1"]) == 0.0
    assert max_abs(tw["k1"] - eps2 * rep["k1"]) == 0.0
    assert max_abs(tw["k2"] - eps1 * rep["k2"]) == 0.0
    assert check_relations(tw).max_residual <= 1e-12


def test_generator_image_json_round_trip():
    rep = atypical_rep(labels())
    blob = json.dumps(rep.to_dict())
    back = GeneratorImage.from_dict(json.loads(blob))
    for g in rep.names:
        assert np.array_equal(back[g].m, rep[g].m)
    assert back.alpha == rep.alpha


def test_default_alpha():
    assert default_alpha(2.0) == (-1.0, 1.0)


def test_atypical_images_equal_scalar_times_fresh_units():
    """Each image is one SuperMatrix equal to the scalar times a freshly built
    matrix unit or identity, with the same parity."""
    from sl11kit import suites
    from sl11kit.graded import SuperMatrix, identity
    from sl11kit.qalgebra import q_atypical_rep

    def ref_images(lab):
        g, nu = lab.gamma, lab.nu
        e12, e21, one = unit(C11, C11, 0, 1), unit(C11, C11, 1, 0), identity(C11)
        return {"e1": g * e21, "e2": (1 / g) * e21, "f1": g * lab.mu2 * e12,
                "f2": (1 / g) * lab.mu1 * e12, "h1": lab.lambda1 * one,
                "h2": lab.lambda2 * one, "k1": lab.mu1 * one, "k2": lab.mu2 * one,
                "u+": nu * one, "u-": (1 / nu) * one}

    def ref_q_images(lab):
        g, nu = lab.gamma, lab.nu
        e12, e21, one = unit(C11, C11, 0, 1), unit(C11, C11, 1, 0), identity(C11)
        return {"E1": g * e21, "E2": (1 / g) * e21,
                "F1": lab.alpha2 * g * lab.br_mu2 * e12,
                "F2": lab.alpha1 * (1 / g) * lab.br_mu1 * e12,
                "K1+": lab.qlam1 * one, "K1-": (1 / lab.qlam1) * one,
                "K2+": lab.qlam2 * one, "K2-": (1 / lab.qlam2) * one,
                "L1+": lab.qmu1 * one, "L1-": (1 / lab.qmu1) * one,
                "L2+": lab.qmu2 * one, "L2-": (1 / lab.qmu2) * one,
                "U+": nu * one, "U-": (1 / nu) * one}

    for rng in suites._child_rngs(11, 20):
        lab, qlab = suites.draw_labels(rng), suites.draw_qlabels(rng)
        for rep, want in ((atypical_rep(lab), ref_images(lab)),
                          (q_atypical_rep(qlab), ref_q_images(qlab))):
            for name, ref in want.items():
                assert isinstance(rep[name], SuperMatrix)
                assert rep[name].parity == ref.parity
                assert np.array_equal(rep[name].m, ref.m), name
