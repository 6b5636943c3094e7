from dataclasses import dataclass

import numpy as np
import pytest

from sl11kit import algebra, suites, yangian
from sl11kit.algebra import COPRODUCT, GeneratorImage, RepLabels, atypical_rep, coproduct_image
from sl11kit.coproduct import STACK_CACHE_SIZE, coproduct_stack
from sl11kit.graded import (SuperMatrix, graded_flip, graded_kron, graded_perm, identity,
                            max_abs, zeros)
from sl11kit.report import Report
from sl11kit.rmatrix import r_closed
from sl11kit.yangian import (FAMILIES, EvalRep, SingularEvaluationError, _cauchy,
                             _omega_twisted, _series_inverse, _tower,
                             antipode_report, coproduct_hom_report, coproduct_tower,
                             current_relations_report,
                             currents, eval_rep, k_cocommutativity_report,
                             kir_report, level_bracket_report,
                             omega_preserves_brackets_report,
                             omega_twist_equivalence, scaled_eval_pair,
                             yangian_coproduct, yangian_intertwine)

A = RepLabels(1.3 - 0.4j, np.exp(0.7j), -0.5, 0.5)
B = RepLabels(0.8 + 0.3j, np.exp(-0.35j), -0.5, 0.5)


# The level coproduct term by term: the reference for the tables of yangian.TAILS.
def _tail_terms(name: str, r: int, eps1: complex, eps2: complex):
    """(coefficient, left factors, right factors) with factors (generator, level).

    The r = 0 part reproduces the level-0 coproduct; the l = 1..r tails mix
    levels exactly as the unique grading-respecting extension demands.
    """
    terms = []
    if name == "h0":
        terms.append((1, (("h0", r),), ()))
        terms.append((1, (), (("h0", r),)))
        for l in range(1, r + 1):
            terms.append((-eps1, (("u+", 0), ("f1", r - l)), (("u+", 0), ("e1", l - 1))))
            terms.append((-eps2, (("u-", 0), ("f2", r - l)), (("u-", 0), ("e2", l - 1))))
        return terms
    fam, i = name[0], int(name[1])
    j = 3 - i
    up, um = ("u+", "u-") if i == 1 else ("u-", "u+")
    ei, ej = (eps1, eps2) if i == 1 else (eps2, eps1)
    if fam == "e":
        terms.append((1, ((name, r),), ((um, 0),)))
        terms.append((1, ((up, 0),), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((up, 0), (f"h{i}", r - l)), ((f"e{i}", l - 1),)))
            terms.append((ej, ((um, 0), (f"k{i}", r - l)),
                          ((um, 0), (um, 0), (f"e{j}", l - 1))))
    elif fam == "f":
        terms.append((1, ((name, r),), ((up, 0),)))
        terms.append((1, ((um, 0),), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((f"f{i}", r - l),), ((up, 0), (f"h{i}", l - 1))))
            terms.append((ej, ((um, 0), (um, 0), (f"f{j}", r - l)),
                          ((um, 0), (f"k{j}", l - 1))))
    elif fam == "h":
        terms.append((1, ((name, r),), ()))
        terms.append((1, (), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((f"h{i}", r - l),), ((f"h{i}", l - 1),)))
            terms.append((ej, ((um, 0), (um, 0), (f"k{i}", r - l)),
                          ((um, 0), (um, 0), (f"k{j}", l - 1))))
    elif fam == "k":
        terms.append((1, ((name, r),), ((um, 0), (um, 0))))
        terms.append((1, ((up, 0), (up, 0)), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ej, ((f"k{i}", r - l),),
                          ((um, 0), (um, 0), (f"h{j}", l - 1))))
            terms.append((ei, ((up, 0), (up, 0), (f"h{i}", r - l)), ((f"k{i}", l - 1),)))
    else:
        raise KeyError(f"unknown family {name!r}")
    return terms


def word_product(rep, word):
    """Reference: the named images multiplied left to right, one SuperMatrix each."""
    if not word:
        return np.eye(rep.space.dim, dtype=np.complex128)
    mat = rep[word[0]].m
    for name in word[1:]:
        mat = mat @ rep[name].m
    return mat


@pytest.fixture(scope="module")
def pair():
    return scaled_eval_pair(A, B)


def test_eval_rep_scalar():
    ev = eval_rep(A)
    num = A.nu**2 * A.lambda1 - A.nu**-2 * A.lambda2
    assert abs(ev.rho - num / (A.nu**2 - A.nu**-2)) < 1e-15
    for name in ("e1", "h1", "u+"):
        assert max_abs(ev.image(name, 0) - ev[name]) == 0.0
    assert max_abs(ev.image("e1", 3) - ev.rho**3 * ev["e1"]) == 0.0


def test_eval_rep_singular_rho():
    with pytest.raises(ValueError):
        eval_rep(RepLabels(1.2, 1.0, -0.5, 0.5))


@pytest.mark.parametrize("nu", [1.0, -1.0, 1j, -1j])
def test_eval_rep_singular_rho_is_typed(nu):
    with pytest.raises(SingularEvaluationError, match="nu\\^4 = 1"):
        eval_rep(RepLabels(1.2, nu, -0.5, 0.5))
    assert issubclass(SingularEvaluationError, ValueError)


def test_level_bracket_is_rho_power(pair):
    eva, _ = pair
    lhs = (eva.image("e1", 2) @ eva.image("f1", 3)
           + eva.image("f1", 3) @ eva.image("e1", 2))
    assert max_abs(lhs - eva.rho**5 * eva["h1"]) <= 1e-14


def test_kir_tower(pair):
    assert kir_report(pair[0]).max_residual <= 1e-12


def test_level_brackets_to_eight(pair):
    assert level_bracket_report(pair[0], 8).max_residual <= 1e-11


def test_coproduct_level_zero_matches_algebra(pair):
    eva, evb = pair
    stack = coproduct_stack(COPRODUCT, eva, evb)
    for name in FAMILIES:
        lvl0 = yangian_coproduct(name, 0, eva, evb)
        ref = coproduct_image(name, eva, evb)
        assert max_abs(lvl0 - ref) == 0.0
        assert np.array_equal(lvl0.m, stack[COPRODUCT.position(name)]), name


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
            mat = mat @ ev[g]
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
    assert max_abs(cur["e1"][1] - eva["e1"].m) == 0.0
    assert max_abs(cur["e1"][3] - eva.rho**2 * eva["e1"].m) == 0.0
    assert max_abs(cur["h1"][0] - np.eye(2)) == 0.0
    assert max_abs(cur["h0"][0] - np.eye(2)) == 0.0


def test_truncated_current_algebra():
    rng = np.random.default_rng(4)
    def draw():
        return rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    a, b, c = draw(), draw(), draw()
    assert max_abs(_cauchy(_cauchy(a, b), c) - _cauchy(a, _cauchy(b, c))) < 1e-12
    inv = _series_inverse(a)  # constant term generically invertible
    one = np.zeros((6, 3, 3))
    one[0] = np.eye(3)
    assert max_abs(_cauchy(a, inv) - one) < 1e-10
    assert max_abs(_cauchy(inv, a) - one) < 1e-10


def test_current_relations(pair):
    rpt = current_relations_report(pair[0], 5)
    assert rpt.max_residual <= 1e-11


def test_current_relation_00_is_level_zero_bracket(pair):
    # the (0,0) boundary coefficient reduces to the plain bracket relation
    eva, _ = pair
    cur = currents(eva, 3)
    e1, f1, h1 = cur["e1"], cur["f1"], cur["h1"]
    lhs = (e1[1] @ f1[1] + f1[1] @ e1[1])
    assert max_abs(lhs - eva["h1"].m) <= 1e-14


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


# -- the coproduct tower against the per-call assembly and report bodies it replaced --


def word_matrix(rep, word):
    return SuperMatrix(rep.space, rep.space, word_product(rep, word))


def ref_coproduct(name, r, rep_a, rep_b, eps=(1.0, 1.0), opposite=False):
    """One SuperMatrix per call: the terms of each level-0 word pair summed as
    scalars, then one graded_kron per word pair."""
    space = rep_a.space.tensor(rep_b.space)
    if opposite:
        swapped = ref_coproduct(name, r, rep_b, rep_a, eps).m
        return SuperMatrix(space, space, graded_flip(swapped, rep_a.space, rep_b.space))
    scalars = {}
    for coeff, left, right in _tail_terms(name, r, *eps):
        words = (tuple(g for g, _ in left), tuple(g for g, _ in right))
        scale = (coeff * rep_a.rho ** sum(lvl for _, lvl in left)
                 * rep_b.rho ** sum(lvl for _, lvl in right))
        scalars[words] = scalars.get(words, 0) + scale
    total = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for (left, right), scale in scalars.items():
        total += scale * graded_kron(word_matrix(rep_a, left),
                                     word_matrix(rep_b, right)).m
    return SuperMatrix(space, space, total)


def ref_hom_report(rep_a, rep_b, rs_max=4, eps=(1.0, 1.0), tolerance=1e-10):
    rpt = Report("yangian-coproduct-homomorphism", tolerance)

    def cop(name, r):
        return ref_coproduct(name, r, rep_a, rep_b, eps)

    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for r in range(rs_max + 1):
        for s in range(rs_max + 1 - r):
            for (a, b), t in targets.items():
                lhs = cop(a, r) @ cop(b, s) + cop(b, s) @ cop(a, r)
                rpt.add(f"[D({a},{r}),D({b},{s})]", max_abs(lhs - cop(t, r + s)))
            for a, sign in (("e1", 1), ("e2", 1), ("f1", -1), ("f2", -1)):
                lhs = cop("h0", r) @ cop(a, s) - cop(a, s) @ cop("h0", r)
                rpt.add(f"[D(h0,{r}),D({a},{s})]", max_abs(lhs - sign * cop(a, r + s)))
    return rpt


def ref_cocommutativity_report(rep_a, rep_b, r_max=4, tolerance=1e-10):
    rpt = Report("yangian-cocommutativity", tolerance)
    for name in ("k1", "k2", "h1", "h2"):
        for r in range(r_max + 1):
            diff = (ref_coproduct(name, r, rep_a, rep_b)
                    - ref_coproduct(name, r, rep_a, rep_b, opposite=True))
            rpt.add(f"cocomm:{name},{r}", max_abs(diff))
    return rpt


def ref_omega_report(rep_a, rep_b, eps1, eps2, r_max=3, tolerance=1e-10):
    scale = {"e1": 1, "e2": 1, "h0": 1, "f1": eps1, "f2": eps2,
             "h1": eps1, "h2": eps2, "k1": eps2, "k2": eps1}
    ta = _omega_twisted(rep_a, eps1, eps2, -1)
    tb = _omega_twisted(rep_b, eps1, eps2, -1)
    rpt = Report("omega-twist", tolerance)
    for name in FAMILIES:
        for r in range(r_max + 1):
            lhs = ref_coproduct(name, r, rep_a, rep_b)
            rhs = scale[name] * ref_coproduct(name, r, ta, tb, eps=(eps1, eps2))
            rpt.add(f"omega:{name},{r}", max_abs(lhs - rhs))
    return rpt


def ref_intertwine_report(labels_a, labels_b, r_max=4, tolerance=1e-9):
    rep_a, rep_b = scaled_eval_pair(labels_a, labels_b)
    rmat = r_closed(labels_a, labels_b).m
    rpt = Report("yangian-intertwining", tolerance)
    for name in FAMILIES:
        for r in range(r_max + 1):
            d = ref_coproduct(name, r, rep_a, rep_b).m
            dop = ref_coproduct(name, r, rep_a, rep_b, opposite=True).m
            rpt.add(f"intertwine:{name},{r}", max_abs(dop @ rmat - rmat @ d))
    return rpt


def assert_same_report(got, want):
    assert got.suite == want.suite and got.tolerance == want.tolerance
    assert ([(c.identity, c.tolerance) for c in got.cases]
            == [(c.identity, c.tolerance) for c in want.cases])
    assert [c.residual for c in got.cases] == [c.residual for c in want.cases]
    assert got.passed == want.passed


def suite_draw(seed):
    """Labels and twist parameters drawn the way the yangian suite draws a sample."""
    rng = next(iter(suites._child_rngs(seed, 1)))
    alpha = suites.draw_alpha(rng)
    la, lb = suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)
    return la, lb, suites._annulus(rng, 0.5, 1.5), suites._annulus(rng, 0.5, 1.5)


EPS_PAIRS = [(1.0, 1.0), (1.3 - 0.2j, 0.7 + 0.4j)]


@pytest.mark.parametrize("eps", EPS_PAIRS)
@pytest.mark.parametrize("opposite", [False, True])
def test_tower_matches_term_by_term(pair, eps, opposite):
    eva, evb = pair
    tower = coproduct_tower(eva, evb, eps, 6, opposite)
    assert tower.shape == (len(FAMILIES), 7, 4, 4)
    for f, name in enumerate(FAMILIES):
        for r in range(7):
            ref = _term_by_term_coproduct(name, r, eva, evb, eps, opposite)
            bound = 1e-13 * max(1.0, max_abs(ref))
            assert max_abs(tower[f, r] - ref.m) <= bound, (name, r)


@pytest.mark.parametrize("seed", range(10))
def test_tower_slices_equal_the_per_call_assembly(seed):
    la, lb, eps1, eps2 = suite_draw(seed)
    eva, evb = scaled_eval_pair(la, lb)
    for eps in ((1.0, 1.0), (eps1, eps2)):
        for opposite in (False, True):
            tower = coproduct_tower(eva, evb, eps, 4, opposite)
            for f, name in enumerate(FAMILIES):
                for r in range(5):
                    want = ref_coproduct(name, r, eva, evb, eps, opposite).m
                    assert np.array_equal(tower[f, r], want), (name, r)
                    got = yangian_coproduct(name, r, eva, evb, eps, opposite)
                    assert np.array_equal(got.m, want), (name, r)


def test_tower_is_read_only_and_memoised(pair):
    eva, evb = pair
    tower = coproduct_tower(eva, evb, (1.0, 1.0), 4)
    assert coproduct_tower(eva, evb, (1.0, 1.0), 4) is tower
    # one entry whatever the call form
    assert coproduct_tower(eva, evb) is tower
    assert coproduct_tower(eva, evb, (1 + 0j, 1), r_max=4, opposite=0) is tower
    opposite = coproduct_tower(eva, evb, opposite=True)
    assert coproduct_tower(eva, evb, (1.0, 1.0), 4, True) is opposite
    assert opposite is not tower
    for arr in (tower, opposite):
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 1.0
    twin = EvalRep.from_images(eva.space, eva.images, eva.alpha, rho=eva.rho)
    assert coproduct_tower(twin, evb) is not tower  # equal images, distinct object
    assert np.array_equal(coproduct_tower(twin, evb), tower)
    assert _tower.cache_info().maxsize == STACK_CACHE_SIZE
    with pytest.raises(ValueError):
        coproduct_tower(eva, evb, r_max=-1)


def test_bracket_layout_is_built_once_per_depth_and_format():
    """Bracket reports on fresh modules read one cached layout per (rs_max,
    names format); none is rebuilt per call, and its index table is read-only."""
    layout = yangian._bracket_layout
    for seed in range(3):
        la, lb, _, _ = suite_draw(seed)
        eva, evb = scaled_eval_pair(la, lb)
        for rs_max in (0, 3, 8):
            level_bracket_report(eva, rs_max)
        for rs_max in (0, 2, 4):
            coproduct_hom_report(eva, evb, rs_max)
        if seed == 0:
            misses = layout.cache_info().misses
    assert layout.cache_info().misses == misses
    assert layout.cache_info().maxsize == STACK_CACHE_SIZE
    names, brackets, targets, signs = layout(2, "[{a},{r};{b},{s}]")
    # eight brackets, six (r, s) with r + s <= 2
    assert len(names) == len(targets) == len(signs) == len(brackets[1]) == 8 * 6
    assert [c.identity for c in level_bracket_report(eva, 2).cases] == list(names)
    for index in (*brackets, targets, signs):
        with pytest.raises(ValueError):
            index[0] = 1


def test_coproduct_is_a_tower_slice(pair):
    eva, evb = pair
    for opposite in (False, True):
        tower = coproduct_tower(eva, evb, r_max=6, opposite=opposite)
        for f, name in enumerate(FAMILIES):
            for r in range(7):
                got = yangian_coproduct(name, r, eva, evb, opposite=opposite)
                assert got.space_out == got.space_in == eva.space.tensor(evb.space)
                assert np.array_equal(got.m, tower[f, r])


def test_tower_reports_match_the_reference_bodies_on_the_fixture(pair):
    eva, evb = pair
    for rs_max in (0, 2, 4):
        assert_same_report(coproduct_hom_report(eva, evb, rs_max),
                           ref_hom_report(eva, evb, rs_max))
    assert_same_report(coproduct_hom_report(eva, evb, 3, EPS_PAIRS[1]),
                       ref_hom_report(eva, evb, 3, EPS_PAIRS[1]))
    assert_same_report(k_cocommutativity_report(eva, evb, 4),
                       ref_cocommutativity_report(eva, evb, 4))
    for eps1, eps2 in EPS_PAIRS:
        assert_same_report(omega_twist_equivalence(eva, evb, eps1, eps2, 3),
                           ref_omega_report(eva, evb, eps1, eps2, 3))
    assert_same_report(yangian_intertwine(A, B, 4), ref_intertwine_report(A, B, 4))


@pytest.mark.parametrize("seed", range(10))
def test_tower_reports_match_the_reference_bodies_on_suite_pairs(seed):
    la, lb, eps1, eps2 = suite_draw(seed)
    eva, evb = scaled_eval_pair(la, lb)
    assert_same_report(coproduct_hom_report(eva, evb, 4), ref_hom_report(eva, evb, 4))
    assert_same_report(k_cocommutativity_report(eva, evb, 4),
                       ref_cocommutativity_report(eva, evb, 4))
    assert_same_report(omega_twist_equivalence(eva, evb, eps1, eps2, 3),
                       ref_omega_report(eva, evb, eps1, eps2, 3))
    assert_same_report(yangian_intertwine(la, lb, 4), ref_intertwine_report(la, lb, 4))


def ref_current_product(a, b):
    """The double loop over the coefficients of two series (sequences of matrices)."""
    n = len(a) - 1
    out = [np.zeros_like(a[0]) for _ in range(n + 1)]
    for r, x in enumerate(a):
        for s in range(n + 1 - r):
            out[r + s] = out[r + s] + x @ b[s]
    return out


def ref_current_inverse(a):
    inv0 = np.linalg.inv(a[0])
    out = [inv0]
    for r in range(1, len(a)):
        acc = np.zeros_like(inv0)
        for s in range(1, r + 1):
            acc = acc + a[s] @ out[r - s]
        out.append(-inv0 @ acc)
    return out


@pytest.mark.parametrize("dim", [2, 4])
def test_current_product_and_inverse_equal_the_double_loop(dim, pair):
    rng = np.random.default_rng(dim)

    def draw(order):
        return np.array([rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                         for _ in range(order + 1)])
    cases = [(draw(order), draw(order)) for order in (1, 4, 6) for _ in range(3)]
    if dim == 2:
        cur = currents(pair[0], 6)
        # the h currents lead: their constant term 1 is invertible
        cases += [(cur["h1"], cur["h2"]), (cur["h0"], cur["e1"]), (cur["h2"], cur["k1"])]
    for a, b in cases:
        got = _cauchy(a, b)
        for x, y in zip(got, ref_current_product(a, b)):
            assert np.array_equal(x, y)
        for x, y in zip(_series_inverse(a), ref_current_inverse(a)):
            assert np.array_equal(x, y)


# -- the current reports against the bodies over tuple-of-matrices series --


@dataclass(frozen=True)
class RefCurrent:
    """The series as a tuple of frozen per-coefficient copies, with the
    double-loop product: the arithmetic the current reports were written on."""

    coeffs: tuple

    def __post_init__(self):
        frozen = []
        for c in self.coeffs:
            arr = np.array(c, dtype=np.complex128)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "coeffs", tuple(frozen))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        return RefCurrent(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return RefCurrent(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, RefCurrent):
            return RefCurrent(tuple(ref_current_product(self.coeffs, other.coeffs)))
        return RefCurrent(tuple(complex(other) * a for a in self.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return RefCurrent(tuple(ref_current_inverse(self.coeffs)))

    def shift(self, k=1):
        zero = np.zeros_like(self.coeffs[0])
        return RefCurrent((zero,) * k + self.coeffs[: self.order + 1 - k])

    def max_abs(self):
        return max(float(np.abs(c).max()) for c in self.coeffs)

    @staticmethod
    def one(dim, order):
        return RefCurrent((np.eye(dim, dtype=complex),)
                          + tuple(np.zeros((dim, dim), dtype=complex) for _ in range(order)))


def ref_currents(ev, order):
    dim = ev.space.dim
    zero = np.zeros((dim, dim), dtype=complex)
    out = {}
    for name in ("e1", "e2", "f1", "f2", "k1", "k2"):
        mats = [zero] + [ev.rho ** (r - 1) * ev[name].m for r in range(1, order + 1)]
        out[name] = RefCurrent(tuple(mats))
    for name in ("h0", "h1", "h2"):
        mats = [np.eye(dim, dtype=complex)] + [ev.rho ** (r - 1) * ev[name].m
                                               for r in range(1, order + 1)]
        out[name] = RefCurrent(tuple(mats))
    return out


def ref_current_relations_report(ev, order, tolerance=1e-11):
    cur = ref_currents(ev, order)
    rpt = Report("current-relations", tolerance)
    n = order

    def cross(a, b, anticommute):
        table = {}
        for r in range(n + 1):
            for s in range(n + 1):
                prod = a.coeffs[r] @ b.coeffs[s]
                swap = b.coeffs[s] @ a.coeffs[r]
                table[(r, s)] = prod + swap if anticommute else prod - swap
        return table

    pairs = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
             ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for (a, b), t in pairs.items():
        comm = cross(cur[a], cur[b], anticommute=True)
        tcur = cur[t]
        for r in range(n):
            for s in range(n - r):
                lhs = comm[(r, s + 1)] - comm[(r + 1, s)]
                rhs = np.zeros_like(lhs)
                if s == 0:
                    rhs = rhs + tcur.coeffs[r]
                if r == 0:
                    rhs = rhs - tcur.coeffs[s]
                rpt.add(f"(w-z)[{a}(z),{b}(w)]@({r},{s})", max_abs(lhs - rhs))
    for b, sign in (("e1", -1), ("e2", -1), ("f1", +1), ("f2", +1)):
        comm = cross(cur["h0"], cur[b], anticommute=False)
        bcur = cur[b]
        for r in range(n):
            for s in range(n - r):
                lhs = comm[(r, s + 1)] - comm[(r + 1, s)]
                rhs = np.zeros_like(lhs)
                if r == 0:
                    rhs = rhs + sign * bcur.coeffs[s]
                if s == 0:
                    rhs = rhs - sign * bcur.coeffs[r]
                rpt.add(f"(w-z)[h0(z),{b}(w)]@({r},{s})", max_abs(lhs - rhs))
    if ev.alpha is not None:
        a1, a2 = ev.alpha
        usq = complex((ev["u+"] @ ev["u+"]).m[0, 0])
        usqm = complex((ev["u-"] @ ev["u-"]).m[0, 0])
        hcomb = usq * cur["h1"] - usqm * cur["h2"]
        for i, alpha in ((1, a1), (2, a2)):
            diff = cur[f"k{i}"] - alpha * hcomb.shift(1)
            rpt.add(f"k{i}(z) - a{i}(u^2 h1 - u^-2 h2)/z", diff.max_abs())
    return rpt


def ref_antipode_report(ev, order, tolerance=1e-10):
    cur = ref_currents(ev, order)
    one = RefCurrent.one(ev.space.dim, order)
    h1, h2, k1, k2 = cur["h1"], cur["h2"], cur["k1"], cur["k2"]
    e = {1: cur["e1"], 2: cur["e2"]}
    f = {1: cur["f1"], 2: cur["f2"]}
    big_h = h1 * h2 - k1 * k2
    hinv = big_h.inverse()
    rpt = Report("antipode", tolerance)
    rpt.add("H Hinv - 1", (big_h * hinv - one).max_abs())
    h = {1: h1, 2: h2}
    k = {1: k1, 2: k2}
    s_e, s_f = {}, {}
    for i, j in ((1, 2), (2, 1)):
        s_e[i] = -1 * ((e[i] * h[j] - e[j] * k[i]) * hinv)
        s_f[i] = -1 * ((f[i] * h[j] - f[j] * k[j]) * hinv)
    for i, j in ((1, 2), (2, 1)):
        rpt.add(f"h{i}: (h{j} h{i} - k{i} k{j}) Hinv - 1",
                ((h[j] * h[i] - k[i] * k[j]) * hinv - one).max_abs())
        rpt.add(f"k{i}: commutator telescopes",
                max(((k[i] * h[j] - h[j] * k[i]) * hinv).max_abs(),
                    ((k[i] * h[i] - h[i] * k[i]) * hinv).max_abs()))
        rpt.add(f"e{i}: left antipode",
                ((-1 * (e[i] * h[j] - e[j] * k[i]) + h[j] * e[i] - k[i] * e[j]) * hinv).max_abs())
        rpt.add(f"e{i}: right antipode",
                ((e[i] * big_h - h[i] * (e[i] * h[j] - e[j] * k[i])
                  - k[i] * (e[j] * h[i] - e[i] * k[j])) * hinv).max_abs())
        rpt.add(f"f{i}: left antipode",
                ((f[i] * big_h - (f[i] * h[j] - f[j] * k[j]) * h[i]
                  - (f[j] * h[i] - f[i] * k[i]) * k[j]) * hinv).max_abs())
        rpt.add(f"f{i}: right antipode",
                ((-1 * (f[i] * h[j] - f[j] * k[j]) + f[i] * h[j] - f[j] * k[j]) * hinv).max_abs())
    lhs = s_f[1] * e[1] + s_f[2] * e[2]
    rhs = f[1] * s_e[1] + f[2] * s_e[2]
    rpt.add("h0: S(f)e = f S(e)", (lhs - rhs).max_abs())
    h0 = cur["h0"]
    s_h0 = one - h0 + lhs
    rpt.add("h0: S(h0) + h0 - S(f)e - 1", (s_h0 + h0 - lhs - one).max_abs())
    rpt.add("h0: S(h0) + h0 - f S(e) - 1", (s_h0 + h0 - rhs - one).max_abs())
    return rpt


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)])
def test_current_reports_match_the_reference_bodies_on_suite_pairs(seeds):
    for seed in seeds:
        la, lb, _, _ = suite_draw(seed)
        for ev in scaled_eval_pair(la, lb):
            for order in (2, 4, 6):
                assert_same_report(current_relations_report(ev, order),
                                   ref_current_relations_report(ev, order))
                assert_same_report(antipode_report(ev, order),
                                   ref_antipode_report(ev, order))


@pytest.mark.parametrize("seed", range(3))
def test_antipode_matches_the_reference_body_at_odd_orders_and_eight(seed):
    """With the even orders above, every series order up to 8 is pinned."""
    la, lb, _, _ = suite_draw(seed)
    for ev in scaled_eval_pair(la, lb):
        for order in (1, 3, 5, 7, 8):
            assert_same_report(antipode_report(ev, order), ref_antipode_report(ev, order))


def test_antipode_plan_is_built_once_per_process():
    """Antipode reports of every order on fresh modules read one cached plan,
    whose index arrays are read-only and whose case names are the report's."""
    plan = yangian._antipode_plan
    for seed in range(3):
        la, lb, _, _ = suite_draw(seed)
        for ev in scaled_eval_pair(la, lb):
            for order in (1, 4, 8):
                rpt = antipode_report(ev, order)
    assert plan.cache_info().misses == 1 and plan.cache_info().maxsize == 1
    names, starts, h_row, steps = plan()
    assert [c.identity for c in rpt.cases] == list(names) and len(starts) == len(names) == 16
    assert [times_hinv for *_, times_hinv in steps] == [False, True, False, False]
    assert not any(index.flags.writeable for operands, sums, _ in steps
                   for index in (operands, sums))


def test_current_reports_match_the_reference_bodies_without_couplings(pair):
    eva, _ = pair
    bare = EvalRep.from_images(eva.space, eva.images, rho=eva.rho)
    rpt = current_relations_report(bare, 4)
    assert not any(c.identity.startswith("k1(z)") for c in rpt.cases)
    assert_same_report(rpt, ref_current_relations_report(bare, 4))


def test_series_is_one_read_only_array_copied_from_its_input(pair):
    eva, _ = pair
    cur = currents(eva, 3)
    for name, series in cur.items():
        assert isinstance(series, np.ndarray)
        assert series.shape == (4, 2, 2) and series.dtype == np.complex128
        assert not series.flags.writeable
        assert not np.shares_memory(series, eva.stack)  # the images are copied
        with pytest.raises(ValueError):
            series[1, 0, 0] = 0.0
    for result in (_cauchy(cur["h1"], cur["e1"]), _series_inverse(cur["h1"])):
        assert result.shape == (4, 2, 2) and result.dtype == np.complex128
    with pytest.raises(ValueError):
        currents(eva, 0)


@pytest.mark.parametrize("seed", range(5))
def test_intertwining_on_the_labels_reads_the_suite_towers(seed):
    la, lb, eps1, eps2 = suite_draw(seed)
    eva, evb = scaled_eval_pair(la, lb)
    # equal label bits give one evaluation module, which shares the atypical
    # module's read-only stack
    again = scaled_eval_pair(la, lb)
    assert again[0] is eva and again[1] is evb
    assert eval_rep(RepLabels(la.gamma, la.nu, la.alpha1, la.alpha2)) is eval_rep(la)
    assert isinstance(eva, GeneratorImage) and eval_rep(la).stack is atypical_rep(la).stack
    assert not eval_rep(la).stack.flags.writeable
    # one suite sample's tower reports, then the public intertwining on the labels
    coproduct_hom_report(eva, evb, 4)
    k_cocommutativity_report(eva, evb, 4)
    omega_twist_equivalence(eva, evb, eps1, eps2, 3)
    misses = _tower.cache_info().misses
    yangian_intertwine(la, lb, 4)
    assert _tower.cache_info().misses == misses


@pytest.mark.parametrize("report", [
    lambda ev, evb: yangian.kir_report(ev, r_max=-1),
    lambda ev, evb: yangian.level_bracket_report(ev, -1),
    lambda ev, evb: yangian.omega_preserves_brackets_report(ev, 0.7, 1.3j, -1),
    lambda ev, evb: yangian.omega_twist_equivalence(ev, evb, 0.7, 1.3j, r_max=-1),
    lambda ev, evb: yangian.coproduct_hom_report(ev, evb, -1),
    lambda ev, evb: yangian.coproduct_tower(ev, evb, r_max=-1),
], ids=["kir", "level-brackets", "omega-brackets", "omega-twist", "hom", "tower"])
def test_a_negative_depth_is_a_typed_error(report, pair):
    with pytest.raises(ValueError, match="^negative level$"):
        report(*pair)


def test_level_zero_brackets_are_the_first_relation_cases():
    for rng in suites._child_rngs(5, 200):
        ev = yangian.eval_rep(suites.draw_labels(rng))
        level = yangian.level_bracket_report(ev, 0).cases
        relations = algebra.check_relations(ev).cases[:8]
        assert [c.residual for c in level] == [c.residual for c in relations]
        assert [c.identity for c in relations] == [
            "[e1,f1]-h1", "[e2,f2]-h2", "[e1,f2]-k1", "[e2,f1]-k2",
            "[h0,e1]-e1", "[h0,e2]-e2", "[h0,f1]+f1", "[h0,f2]+f2"]


def _counting(monkeypatch, name):
    """Replace ``yangian.<name>`` by a wrapper that records its calls."""
    calls, target = [], getattr(yangian, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)
    monkeypatch.setattr(yangian, name, counted)
    return calls


def test_one_suite_sample_builds_three_towers_and_four_word_tables(monkeypatch):
    """Delta(a, b) and Delta(b, a) at the suite depth and the omega-twisted
    pair's tower are built; omega's shallower Delta(a, b) reads the first
    levels of the deeper one, and each of the four modules has its word
    table formed once for both tower sides."""
    builds = _counting(monkeypatch, "_direct_tower")
    tables = _counting(monkeypatch, "word_stack")
    suites.suite_yangian(samples=1, seed=8675309)  # fresh labels: no memo holds them
    assert len(builds) == 3
    assert [args[3] for args in builds] == [4, 4, 3]
    assert len(tables) == 4


def test_a_rescaled_pair_builds_only_the_two_modules_it_returns(monkeypatch):
    """rho is read from the labels, so a draw with |rho| > 1 builds its two
    rescaled evaluation modules and no unscaled ones; the memo returns them."""
    la, lb, _, _ = suite_draw(424242)  # labels no other test draws
    worst = max(abs(yangian._rho(la)), abs(yangian._rho(lb)))
    assert worst > 1.0
    builds = _counting(monkeypatch, "atypical_rep")
    eva, evb = scaled_eval_pair(la, lb)
    monkeypatch.undo()
    assert len(builds) == 2 and max(abs(eva.rho), abs(evb.rho)) <= 1.0
    again = scaled_eval_pair(la, lb)
    assert again[0] is eva and again[1] is evb
    s = 1.0 / worst
    assert eval_rep(RepLabels(lb.gamma, lb.nu, lb.alpha1 * s, lb.alpha2 * s)) is evb
    degenerate = RepLabels(la.gamma, 1j, la.alpha1, la.alpha2)
    with pytest.raises(SingularEvaluationError):
        scaled_eval_pair(la, degenerate)


@pytest.mark.parametrize("seed", range(10))
def test_a_shallower_tower_reads_the_deeper_one(seed, monkeypatch):
    la, lb, eps1, eps2 = suite_draw(seed)
    eva, evb = scaled_eval_pair(la, lb)
    _tower.cache_clear()
    for eps in ((1.0, 1.0), (eps1, eps2)):
        for opposite in (False, True):
            deep = coproduct_tower(eva, evb, eps, 6, opposite)
            builds = _counting(monkeypatch, "_direct_tower")
            shallow = [coproduct_tower(eva, evb, eps, r, opposite) for r in range(7)]
            monkeypatch.undo()
            assert not builds
            for r, tower in enumerate(shallow):
                if opposite:
                    fresh = graded_flip(yangian._direct_tower(evb, eva, eps, r),
                                        eva.space, evb.space)
                else:
                    fresh = yangian._direct_tower(eva, evb, eps, r)
                assert tower.shape == fresh.shape and np.array_equal(tower, fresh), r
                assert np.shares_memory(tower, deep) and not tower.flags.writeable
                with pytest.raises(ValueError):
                    tower[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", range(8))
def test_the_level_brackets_read_the_current_coefficients_bitwise(seed):
    la, lb, _, _ = suite_draw(seed)
    for ev in scaled_eval_pair(la, lb):
        for rs_max in (0, 3, 8):
            cur = currents(ev, rs_max + 1)
            rows = np.stack([cur[name][1:] for name in FAMILIES])
            want = yangian._bracket_report("level-brackets", 1e-11, rows, rs_max,
                                           "[{a},{r};{b},{s}]")
            assert_same_report(level_bracket_report(ev, rs_max), want)


@pytest.mark.parametrize("seed", range(4))
def test_the_k_tower_reads_the_current_coefficients(seed, monkeypatch):
    la, lb, _, _ = suite_draw(seed)
    read = _counting(monkeypatch, "_level_images")
    for ev in scaled_eval_pair(la, lb):
        read.clear()
        kir_report(ev, 4)
        ((_, depth),) = read
        images = yangian._level_images(ev, depth)
        cur = currents(ev, depth + 1)
        for name in ("k1", "k2", "h1", "h2"):
            assert np.array_equal(images[FAMILIES.index(name)], cur[name][1:]), name
