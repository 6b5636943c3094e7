import numpy as np
import pytest

from sl11kit.algebra import RepLabels, atypical_rep, coproduct_image
from sl11kit.graded import graded_kron, graded_perm, identity, max_abs, zeros
from sl11kit.yangian import (FAMILIES, TruncatedCurrent, _tail_terms,
                             antipode_report, coproduct_hom_report,
                             current_relations_report,
                             currents, eval_rep, k_cocommutativity_report,
                             kir_report, level_bracket_report,
                             omega_preserves_brackets_report,
                             omega_twist_equivalence, scaled_eval_pair,
                             yangian_coproduct, yangian_intertwine)

A = RepLabels(1.3 - 0.4j, np.exp(0.7j), -0.5, 0.5)
B = RepLabels(0.8 + 0.3j, np.exp(-0.35j), -0.5, 0.5)


@pytest.fixture(scope="module")
def pair():
    return scaled_eval_pair(A, B)


def test_eval_rep_scalar():
    ev = eval_rep(A)
    num = A.nu**2 * A.lambda1 - A.nu**-2 * A.lambda2
    assert abs(ev.rho - num / (A.nu**2 - A.nu**-2)) < 1e-15
    for name in ("e1", "h1", "u+"):
        assert max_abs(ev.image(name, 0) - ev.base[name]) == 0.0
    assert max_abs(ev.image("e1", 3) - ev.rho**3 * ev.base["e1"]) == 0.0


def test_eval_rep_singular_rho():
    with pytest.raises(ValueError):
        eval_rep(RepLabels(1.2, 1.0, -0.5, 0.5))


def test_level_bracket_is_rho_power(pair):
    eva, _ = pair
    lhs = (eva.image("e1", 2) @ eva.image("f1", 3)
           + eva.image("f1", 3) @ eva.image("e1", 2))
    assert max_abs(lhs - eva.rho**5 * eva.base["h1"]) <= 1e-14


def test_kir_tower(pair):
    assert kir_report(pair[0]).max_residual <= 1e-12


def test_level_brackets_to_eight(pair):
    assert level_bracket_report(pair[0], 8).max_residual <= 1e-11


def test_coproduct_level_zero_matches_algebra(pair):
    eva, evb = pair
    for name in ("e1", "f2", "h1", "k2", "h0"):
        lvl0 = yangian_coproduct(name, 0, eva, evb)
        ref = coproduct_image(name, eva.base, evb.base)
        assert max_abs(lvl0 - ref) == 0.0


def _term_by_term_coproduct(name, r, rep_a, rep_b, eps=(1.0, 1.0), opposite=False):
    """Reference assembly: one graded_kron per _tail_terms entry, each slot
    scaled by rho to its total level."""
    if opposite:
        swapped = _term_by_term_coproduct(name, r, rep_b, rep_a, eps)
        return (graded_perm(rep_b.space, rep_a.space) @ swapped
                @ graded_perm(rep_a.space, rep_b.space))

    def slot(ev, factors):
        mat = identity(ev.space)
        level = 0
        for g, lvl in factors:
            mat = mat @ ev.base[g]
            level += lvl
        return (ev.rho ** level) * mat

    space = rep_a.space.tensor(rep_b.space)
    total = zeros(space, space, None)
    for coeff, left, right in _tail_terms(name, r, *eps):
        total = total + coeff * graded_kron(slot(rep_a, left), slot(rep_b, right))
    return total


@pytest.mark.parametrize("eps", [(1.0, 1.0), (1.3 - 0.2j, 0.7 + 0.4j)])
@pytest.mark.parametrize("opposite", [False, True])
def test_grouped_coproduct_matches_term_by_term(pair, eps, opposite):
    eva, evb = pair
    assert abs(eva.rho - evb.rho) > 0.1  # a rho power on the wrong slot must show
    for name in FAMILIES:
        for r in range(7):
            ref = _term_by_term_coproduct(name, r, eva, evb, eps, opposite)
            got = yangian_coproduct(name, r, eva, evb, eps, opposite)
            assert got.space_out == ref.space_out and got.space_in == ref.space_in
            bound = 1e-13 * max(1.0, max_abs(ref))
            assert max_abs(got - ref) <= bound, (name, r)


def test_coproduct_homomorphism(pair):
    assert coproduct_hom_report(*pair, rs_max=4).max_residual <= 1e-10


def test_k_cocommutativity(pair):
    assert k_cocommutativity_report(*pair, r_max=4).max_residual <= 1e-10


def test_coproduct_rejects_bad_input(pair):
    eva, evb = pair
    with pytest.raises(KeyError):
        yangian_coproduct("x1", 0, eva, evb)
    with pytest.raises(ValueError):
        yangian_coproduct("e1", -1, eva, evb)


def test_omega_identity_twist(pair):
    rpt = omega_twist_equivalence(*pair, eps1=1.0, eps2=1.0, r_max=2)
    assert rpt.max_residual == 0.0


def test_omega_twist_equivalence(pair):
    rpt = omega_twist_equivalence(*pair, eps1=1.3 - 0.2j, eps2=0.7 + 0.4j, r_max=3)
    assert rpt.max_residual <= 1e-10


def test_omega_preserves_level_brackets(pair):
    rpt = omega_preserves_brackets_report(pair[0], 1.3 - 0.2j, 0.7 + 0.4j)
    assert rpt.max_residual <= 1e-11


def test_omega_zero_eps_rejected(pair):
    with pytest.raises(ValueError):
        omega_twist_equivalence(*pair, eps1=0.0, eps2=1.0)


def test_current_coefficients(pair):
    eva, _ = pair
    cur = currents(eva, 4)
    assert max_abs(cur["e1"].coeffs[1] - eva.base["e1"].m) == 0.0
    assert max_abs(cur["e1"].coeffs[3] - eva.rho**2 * eva.base["e1"].m) == 0.0
    assert max_abs(cur["h1"].coeffs[0] - np.eye(2)) == 0.0
    assert max_abs(cur["h0"].coeffs[0] - np.eye(2)) == 0.0


def test_truncated_current_algebra():
    rng = np.random.default_rng(4)
    def draw():
        return TruncatedCurrent(tuple(
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(6)))
    a, b, c = draw(), draw(), draw()
    assert ((a * b) * c - a * (b * c)).max_abs() < 1e-12
    inv = a.inverse()  # constant term generically invertible
    one = TruncatedCurrent.one(3, 5)
    assert (a * inv - one).max_abs() < 1e-10
    assert (inv * a - one).max_abs() < 1e-10


def test_current_relations(pair):
    rpt = current_relations_report(pair[0], 5)
    assert rpt.max_residual <= 1e-11


def test_current_relation_00_is_level_zero_bracket(pair):
    # the (0,0) boundary coefficient reduces to the plain bracket relation
    eva, _ = pair
    cur = currents(eva, 3)
    e1, f1, h1 = cur["e1"], cur["f1"], cur["h1"]
    lhs = (e1.coeffs[1] @ f1.coeffs[1] + f1.coeffs[1] @ e1.coeffs[1])
    assert max_abs(lhs - eva.base["h1"].m) <= 1e-14


def test_antipode(pair):
    rpt = antipode_report(pair[0], 4)
    assert rpt.max_residual <= 1e-10
    cases = {c.identity: c.residual for c in rpt.cases}
    assert cases["k1: commutator telescopes"] <= 1e-14
    assert cases["h0: S(h0) + h0 - S(f)e - 1"] <= 1e-15


def test_intertwining(pair):
    rpt = yangian_intertwine(A, B, r_max=4)
    assert rpt.max_residual <= 1e-9
    cases = {c.identity: c.residual for c in rpt.cases}
    assert cases["intertwine:h0,1"] <= 1e-9  # level-1 tail term active
    assert cases["intertwine:e1,0"] <= 1e-11  # reduces to the plain intertwining
