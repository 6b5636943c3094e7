import numpy as np
import pytest

from sl11kit import coproduct, suites
from sl11kit.graded import max_abs
from sl11kit.qalgebra import q_check_relations, q_labels
from sl11kit.coproduct import coassociativity_report
from sl11kit.qaffine import (affine_coproduct_image, affine_eval_rep,
                             affine_hom_report, affine_intertwine,
                             affine_relations_report, node_sign,
                             upper_nodes_subalgebra)
from sl11kit.rmatrix import intertwining_report, r_solve, rq_closed

Q = 1.15 + 0.08j
ALPHA = (-0.5, 0.5)
QA = q_labels(0.9 - 0.2j, np.exp(0.4j), Q, ALPHA)[0]
QB = q_labels(0.6 + 0.5j, np.exp(-0.6j), Q, ALPHA)[0]


@pytest.fixture(scope="module")
def rep_pair():
    return affine_eval_rep(QA), affine_eval_rep(QB)


def test_node_sign_convention():
    assert [node_sign(i) for i in (1, 2, 3, 4)] == [1, -1, 1, -1]


def test_eval_images(rep_pair):
    rep, _ = rep_pair
    base = affine_eval_rep(QA)  # same construction
    # K3 is the inverted K2... no: K3+- maps to K1-+; K4+- to K2-+
    assert max_abs(rep["K3+"] - base["K1-"]) == 0.0
    assert max_abs(rep["K4-"] - base["K2+"]) == 0.0
    assert max_abs(rep["V+"] - rep["U+"]) == 0.0
    # [E1, F4] acts by alpha1 rho / (q - 1/q)
    lhs = rep["E1"].m @ rep["F4"].m + rep["F4"].m @ rep["E1"].m
    expect = QA.alpha1 * rep.rho / (Q - 1 / Q) * np.eye(2)
    assert max_abs(lhs - expect) <= 1e-13
    # [E3, F4] acts by alpha1 (L2^- - L2^+)/(q - 1/q)
    lhs = rep["E3"].m @ rep["F4"].m + rep["F4"].m @ rep["E3"].m
    gap = (1 / QA.qmu2 - QA.qmu2) / (Q - 1 / Q)
    assert max_abs(lhs - QA.alpha1 * gap * np.eye(2)) <= 1e-13


def test_e3_proportional_to_e1(rep_pair):
    rep, _ = rep_pair
    ratio = -(QA.qmu2 - 1 / QA.qmu2) / rep.rho
    assert max_abs(rep["E3"] - ratio * rep["E1"]) <= 1e-14


def test_relations_standard(rep_pair):
    rpt = affine_relations_report(rep_pair[0])
    assert rpt.max_residual <= 1e-11
    cases = {c.identity: c.residual for c in rpt.cases}
    assert cases["ev(K+) - 1"] <= 1e-12
    assert cases["[[E3,F2],[E4,F1]] - (K+-K-)/(q-1/q)"] <= 1e-12


def test_relations_swapped_variant():
    rep = affine_eval_rep(QA, variant="swapped")
    assert affine_relations_report(rep).max_residual <= 1e-11
    base = affine_eval_rep(QA)
    assert max_abs(rep["K3+"] - base["K2-"]) == 0.0
    assert max_abs(rep["V+"] - base["U-"]) == 0.0


def test_relations_beta_variant():
    rep = affine_eval_rep(QA, beta=-1.0)
    assert affine_relations_report(rep).max_residual <= 1e-11


def test_beta_must_square_to_one():
    with pytest.raises(ValueError):
        affine_eval_rep(QA, beta=2.0)


def test_unknown_variant():
    with pytest.raises(ValueError):
        affine_eval_rep(QA, variant="sideways")


def test_coproduct_nodes_12_match_deformed(rep_pair):
    from sl11kit.qalgebra import q_atypical_rep, q_coproduct_image
    ra, rb = rep_pair
    qa_rep, qb_rep = q_atypical_rep(QA), q_atypical_rep(QB)
    for name in ("E1", "E2", "F1", "F2", "K1+", "U+"):
        aff = affine_coproduct_image(name, ra, rb)
        ref = q_coproduct_image(name, qa_rep, qb_rep)
        assert max_abs(aff - ref) == 0.0


def test_group_like_coproducts(rep_pair):
    # all fourteen Cartan/group-like elements coproduce as C (x) C
    from sl11kit.qaffine import GROUP_LIKE
    ra, rb = rep_pair
    assert len(GROUP_LIKE) == 14
    for name in GROUP_LIKE:
        mat = affine_coproduct_image(name, ra, rb)
        expect = np.kron(ra[name].m, rb[name].m)
        assert max_abs(mat.m - expect) <= 1e-14


def test_affine_coassociativity(rep_pair):
    ra, rb = rep_pair
    rc = affine_eval_rep(q_labels(0.3 + 0.8j, np.exp(0.9j), Q, ALPHA)[0])
    assert coassociativity_report(ra, rb, rc).max_residual <= 1e-10


def test_affine_hom_on_compatibility(rep_pair):
    assert affine_hom_report(*rep_pair).max_residual <= 1e-10


def test_affine_intertwining():
    rpt = affine_intertwine(QA, QB)
    assert rpt.max_residual <= 1e-9
    cases = {c.identity: c.residual for c in rpt.cases}
    assert cases["intertwine:E3"] <= 1e-10
    assert cases["intertwine:V+"] <= 1e-12


def test_affine_intertwining_beta_variant():
    assert affine_intertwine(QA, QB, beta=-1.0).max_residual <= 1e-9


def suite_pair(seed):
    """Two deformed label sets drawn the way the affine suite draws a sample."""
    rng = next(iter(suites._child_rngs(seed, 1)))
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    return suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)


@pytest.mark.parametrize("seed", range(5))
def test_affine_intertwining_reads_the_stacks_the_suite_built(seed):
    la, lb = suite_pair(seed)
    coproduct._stack.cache_clear()  # an earlier test may hold this pair's stacks
    # the suite's standard pair: its homomorphism report builds the Delta stack
    affine_hom_report(affine_eval_rep(la), affine_eval_rep(lb))
    misses = coproduct._stack.cache_info().misses
    affine_intertwine(la, lb)
    assert coproduct._stack.cache_info().misses == misses + 2  # Delta^op and its swap


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant, beta", [("standard", 1.0), ("swapped", 1.0),
                                           ("standard", -1.0)])
def test_the_svd_oracle_reads_the_affine_modules(seed, variant, beta):
    la, lb = suite_pair(seed)
    ra, rb = affine_eval_rep(la, variant, beta), affine_eval_rep(lb, variant, beta)
    rq = rq_closed(la, lb)
    assert max_abs(r_solve(ra, rb, match_r11=rq.normalization).m - rq.m) <= 1e-10
    got, want = intertwining_report(rq, ra, rb), affine_intertwine(la, lb, variant, beta)
    assert want.suite == "affine-intertwining"
    assert ([(c.identity, c.residual) for c in got.cases]
            == [(c.identity, c.residual) for c in want.cases])


def test_rq_intertwines_upper_nodes_directly(rep_pair):
    # nodes {3,4} with V form a deformed-algebra module; the deformed
    # R-matrix intertwines its coproducts too
    ra, rb = rep_pair
    sa, sb = upper_nodes_subalgebra(ra), upper_nodes_subalgebra(rb)
    rq = rq_closed(QA, QB)
    assert intertwining_report(rq, sa, sb).max_residual <= 1e-10


def test_upper_nodes_form_deformed_algebra(rep_pair):
    rep = upper_nodes_subalgebra(rep_pair[0])
    assert q_check_relations(rep).max_residual <= 1e-11


def test_alt_affinization_dispatch():
    from sl11kit.qaffine import alt_affinization
    std = alt_affinization(QA)
    assert std.variant == "standard" and std.beta == 1.0
    assert max_abs(alt_affinization(QA, "swapped")["K3+"]
                   - affine_eval_rep(QA)["K2-"]) == 0.0
    bs = alt_affinization(QA, "beta-sign")
    assert bs.beta == -1.0
    assert affine_relations_report(bs).max_residual <= 1e-11


# -- the evaluation module is a GeneratorImage --------------------------------------

VARIANTS = (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0))


def test_affine_rep_is_a_generator_image():
    from sl11kit.algebra import GeneratorImage
    from sl11kit.qaffine import AFFINE_NAMES, AffineRep
    for variant, beta in VARIANTS:
        rep = affine_eval_rep(QA, variant, beta)
        assert isinstance(rep, GeneratorImage) and isinstance(rep, AffineRep)
        assert sorted(rep.names) == sorted(AFFINE_NAMES)
        assert (rep.q, rep.variant, rep.beta) == (Q, variant, beta)
    assert not {"__post_init__", "__getitem__", "names"} & set(vars(AffineRep))
    with pytest.raises(KeyError, match="unknown generator 'L1\\+'"):
        rep["L1+"]


def test_l_image_is_the_product_of_its_word():
    from functools import reduce

    from sl11kit.qaffine import _l_word
    for variant, beta in VARIANTS:
        rep = affine_eval_rep(QA, variant, beta)
        for i in (1, 2, 3, 4):
            for sign in ("+", "-"):
                word = _l_word(i, sign)
                assert len(word) == 4
                want = reduce(np.matmul, [rep[name].m for name in word])
                assert np.array_equal(rep.l_image(i, sign).m, want), (i, sign)
    with pytest.raises(ValueError):
        rep.l_image(5, "+")


def test_replace_keeps_the_affine_metadata():
    import dataclasses

    from sl11kit.qaffine import AffineRep
    for variant, beta in VARIANTS:
        rep = affine_eval_rep(QA, variant, beta)
        stack = np.array(rep.stack)
        stack[rep.names.index("E3")] *= 2
        twin = dataclasses.replace(rep, stack=stack)
        assert type(twin) is AffineRep
        assert (twin.rho, twin.variant, twin.beta) == (rep.rho, rep.variant, rep.beta)
        assert (twin.alpha, twin.q, twin.kind) == (rep.alpha, rep.q, rep.kind)
        assert max_abs(twin["E3"] - 2 * rep["E3"]) == 0.0
