"""The Hopf-structure checkers against their SuperMatrix references.

The coassociativity, counit/antipode and cocommutativity reports of
:mod:`sl11kit.coproduct` are one set of functions for the three algebras:
each reads the registry entry ``ALGEBRAS[rep.kind]`` (its coproduct table,
cocommutative generators and report prefix) and evaluates the coproduct
stacks, and ``klein_twist`` reads the Klein rows of the same entry.  The
references below are the per-algebra formulations they replace: one
SuperMatrix product per coproduct term, with the antipode and counit written
out by hand.  Both must report the same cases, in the same order, with
bitwise-equal residuals.
"""
import dataclasses
import warnings

import numpy as np
import pytest

from sl11kit import algebra, qaffine, qalgebra, suites
from sl11kit.algebra import CLASSICAL_NAMES, COPRODUCT
from sl11kit.coproduct import (ALGEBRAS, CoproductTable, _stack, _words, coassociativity_report,
                               cocommutativity_report, counit_antipode_report)
from sl11kit.graded import SuperMatrix, graded_kron, identity, max_abs, zeros
from sl11kit.qaffine import AFFINE_COPRODUCT, AFFINE_NAMES, affine_coproduct_image
from sl11kit.qalgebra import Q_COPRODUCT, Q_NAMES, q_coproduct_image
from sl11kit.report import Report

SEEDS = range(6)

# -- references: the antipode and counit by hand, one SuperMatrix per term ----------


def word_product(rep, word):
    """Reference: the named images multiplied left to right, one SuperMatrix each."""
    if not word:
        return np.eye(rep.space.dim, dtype=np.complex128)
    mat = rep[word[0]].m
    for name in word[1:]:
        mat = mat @ rep[name].m
    return mat


def word_matrix(rep, word):
    return SuperMatrix(rep.space, rep.space, word_product(rep, word))


REF_ANTIPODE = {name: (name, -1) for name in CLASSICAL_NAMES if not name.startswith("u")}
REF_ANTIPODE["u+"] = ("u-", 1)
REF_ANTIPODE["u-"] = ("u+", 1)
REF_COUNIT = {name: (1 if name.startswith("u") else 0) for name in CLASSICAL_NAMES}
REF_Q_GROUP_LIKE = ("K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
                    "L1+", "L1-", "L2+", "L2-", "U+", "U-")
REF_Q_ANTIPODE = {"E1": ("E1", -1), "E2": ("E2", -1), "F1": ("F1", -1), "F2": ("F2", -1)}
for _c in REF_Q_GROUP_LIKE:
    REF_Q_ANTIPODE[_c] = (_c[:-1] + ("-" if _c.endswith("+") else "+"), 1)


def ref_coassociativity(suite, names, table, cop, rep_a, rep_b, rep_c, tolerance=1e-10):
    r = Report(suite, tolerance)
    for name in names:
        space3 = rep_a.space.tensor(rep_b.space).tensor(rep_c.space)
        left = zeros(space3, space3, None)
        right = left
        for coeff, lf, rf in table.terms[name]:
            dl = identity(rep_a.space.tensor(rep_b.space))
            for n in lf:
                dl = dl @ cop(n, rep_a, rep_b)
            left = left + coeff * graded_kron(dl, word_matrix(rep_c, rf))
            dr = identity(rep_b.space.tensor(rep_c.space))
            for n in rf:
                dr = dr @ cop(n, rep_b, rep_c)
            right = right + coeff * graded_kron(word_matrix(rep_a, lf), dr)
        r.add(f"coassoc:{name}", max_abs(left - right))
    return r


def ref_counit_antipode(suite, names, table, antipode, counit, rep, tolerance):
    r = Report(suite, tolerance)
    for name in names:
        acc = zeros(rep.space, rep.space)
        for coeff, left, right in table.terms[name]:
            s_mat = identity(rep.space)
            for n in reversed(left):
                src, sc = antipode[n]
                s_mat = s_mat @ (sc * rep[src])
            acc = acc + coeff * (s_mat @ word_matrix(rep, right))
        r.add(f"antipode:{name}", max_abs(acc - counit(name) * identity(rep.space)))
    return r


def ref_cocommutativity(suite, names, cop, rep_a, rep_b, tolerance):
    r = Report(suite, tolerance)
    for name in names:
        diff = cop(name, rep_a, rep_b) - cop(name, rep_a, rep_b, opposite=True)
        r.add(f"cocomm:{name}", max_abs(diff))
    return r


def ref_klein_twist(name, rep):
    table, alpha_map = algebra.KLEIN_ROWS[name]
    imgs = {g: coeff * rep[src] for g, (src, coeff) in table.items()}
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return algebra.GeneratorImage.from_images(rep.space, imgs, alpha=alpha, kind=rep.kind)


def ref_q_klein_twist(name, rep):
    table, alpha_map = qalgebra.Q_KLEIN_ROWS[name]
    imgs = {g: rep[src] for g, (src, _) in table.items()}
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return algebra.GeneratorImage.from_images(rep.space, imgs, alpha=alpha, q=rep.q, kind="q")


# -- seeded representations ----------------------------------------------------------


def classical_reps(seed):
    """Three atypical modules, a typical KAC_SPACE module and the Klein twists."""
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    reps = [algebra.atypical_rep(suites.draw_labels(rng, alpha)) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        typical = algebra.typical_rep(1.3 - 0.2j, 0.7 + 0.4j, reps[0]["u+"].m[0, 0], alpha)
    twists = [algebra.klein_twist(name, rep) for name in algebra.KLEIN_ROWS for rep in reps[:2]]
    return reps, typical, twists


def q_reps(seed):
    rng = np.random.default_rng(100 + seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    labs = [suites.draw_qlabels(rng, q, alpha) for _ in range(3)]
    reps = [qalgebra.q_atypical_rep(lab) for lab in labs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        typical = qalgebra.q_typical_rep(0.9 - 0.2j, 0.6 + 0.5j, labs[0].nu, q, alpha)
    twists = [algebra.klein_twist(name, rep) for name in qalgebra.Q_KLEIN_ROWS
              for rep in reps[:2]]
    return reps, typical, twists


def affine_reps(seed):
    """Standard, swapped and beta = -1 evaluation modules on three deformed labels."""
    rng = np.random.default_rng(200 + seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    labs = [suites.draw_qlabels(rng, q, alpha) for _ in range(3)]
    return [[qaffine.affine_eval_rep(lab, variant, beta) for lab in labs]
            for variant, beta in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0))]


def triples(reps, typical, twists):
    a, b, c = reps
    return [(a, b, c), (typical, a, b), (a, typical, b), (b, c, typical),
            tuple(twists[:2]) + (c,), (twists[2], a, twists[3]), tuple(twists[-3:])]


def singles(reps, typical, twists):
    return [*reps, typical, *twists]


def pairs(reps, typical, twists):
    a, b, _ = reps
    return [(a, b), (b, a), (a, typical), (typical, b), tuple(twists[:2]), (twists[2], a)]


def assert_same_report(got: Report, want: Report):
    assert got.suite == want.suite and got.tolerance == want.tolerance
    assert [c.identity for c in got.cases] == [c.identity for c in want.cases]
    assert [c.tolerance for c in got.cases] == [c.tolerance for c in want.cases]
    assert [c.residual for c in got.cases] == [c.residual for c in want.cases]
    assert got.passed == want.passed


# -- tests -----------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_coassociativity_matches_reference(seed):
    for triple in triples(*classical_reps(seed)):
        got = coassociativity_report(*triple)
        assert_same_report(got, ref_coassociativity(
            "coassociativity", CLASSICAL_NAMES, COPRODUCT, algebra.coproduct_image, *triple))
        assert got.passed
    for triple in triples(*q_reps(seed)):
        got = coassociativity_report(*triple)
        assert_same_report(got, ref_coassociativity(
            "q-coassociativity", Q_NAMES, Q_COPRODUCT, q_coproduct_image, *triple))
        assert got.passed
    for triple in affine_reps(seed):
        got = coassociativity_report(*triple)
        assert_same_report(got, ref_coassociativity(
            "affine-coassociativity", AFFINE_NAMES, AFFINE_COPRODUCT,
            affine_coproduct_image, *triple))
        assert got.passed


@pytest.mark.parametrize("seed", SEEDS)
def test_counit_antipode_matches_reference(seed):
    for rep in singles(*classical_reps(seed)):
        for args in ((), (1e-12,)):
            got = counit_antipode_report(rep, *args)
            assert_same_report(got, ref_counit_antipode(
                "counit-antipode", CLASSICAL_NAMES, COPRODUCT, REF_ANTIPODE,
                REF_COUNIT.get, rep, *(args or (1e-10,))))
            assert got.passed
    for rep in singles(*q_reps(seed)):
        got = counit_antipode_report(rep, 1e-12)
        assert_same_report(got, ref_counit_antipode(
            "q-counit-antipode", Q_NAMES, Q_COPRODUCT, REF_Q_ANTIPODE,
            lambda name: 1 if name in REF_Q_GROUP_LIKE else 0, rep, 1e-12))
        assert got.passed


@pytest.mark.parametrize("seed", SEEDS)
def test_cocommutativity_matches_reference(seed):
    for pair in pairs(*classical_reps(seed)):
        got = cocommutativity_report(*pair, 1e-12)
        assert_same_report(got, ref_cocommutativity(
            "cocommutativity", ("h1", "h2", "k1", "k2", "u+", "u-"),
            algebra.coproduct_image, *pair, 1e-12))
        assert got.passed
        assert cocommutativity_report(*pair).tolerance == 1e-10
    for pair in pairs(*q_reps(seed)):
        got = cocommutativity_report(*pair, 1e-12)
        assert_same_report(got, ref_cocommutativity(
            "q-cocommutativity", REF_Q_GROUP_LIKE, q_coproduct_image, *pair, 1e-12))
        assert got.passed


def test_table_antipode_and_counit_match_the_hand_written_ones():
    assert dict(COPRODUCT.antipode) == REF_ANTIPODE
    assert dict(Q_COPRODUCT.antipode) == REF_Q_ANTIPODE
    assert list(COPRODUCT.counit) == [REF_COUNIT[n] for n in COPRODUCT.names]
    assert list(Q_COPRODUCT.counit) == [n in REF_Q_GROUP_LIKE for n in Q_COPRODUCT.names]


@pytest.mark.parametrize("seed", SEEDS)
def test_affine_antipode_and_counit_hold(seed):
    for reps in affine_reps(seed):
        rpt = counit_antipode_report(reps[0], 1e-12)
        assert [c.identity for c in rpt.cases] == [f"antipode:{n}" for n in AFFINE_NAMES]
        assert rpt.passed


@pytest.mark.parametrize("seed", SEEDS)
def test_twists_match_reference(seed):
    for twist, reference, reps in ((algebra.klein_twist, ref_klein_twist, classical_reps),
                                   (algebra.klein_twist, ref_q_klein_twist, q_reps)):
        base, typical, _ = reps(seed)
        for rep in (*base, typical):
            for name in ("ef", "ef_cross", "nodes"):
                got, want = twist(name, rep), reference(name, rep)
                assert got.names == want.names
                assert (got.alpha, got.q, got.kind) == (want.alpha, want.q, want.kind)
                for g in got.names:
                    assert np.array_equal(got[g].m, want[g].m), (name, g)
                    assert got[g].parity == want[g].parity
    with pytest.raises(KeyError, match="unknown twist"):
        algebra.klein_twist("bogus", base[0])


def test_coassociativity_flags_a_doubled_coproduct_term():
    terms = dict(COPRODUCT.terms)
    terms["e1"] = ((1, ("e1",), ("u-",)), (2, ("u+",), ("e1",)))
    broken = CoproductTable(terms, inverses={"u+": "u-", "u-": "u+"})
    reps, _, _ = classical_reps(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(ALGEBRAS, "classical",
                      dataclasses.replace(ALGEBRAS["classical"], coproduct=broken))
        rpt = coassociativity_report(*reps)
    assert [c.identity for c in rpt.cases if c.residual > rpt.tolerance] == ["coassoc:e1"]
    assert coassociativity_report(*reps).passed


def test_coassociativity_memoises_only_its_own_modules():
    # the tensor modules live for one call: their stacks and word products stay
    # out of the memos, which keep the pairs (a, b), (b, c) and the words of a, b, c
    for reps, report in ((classical_reps(0)[0], coassociativity_report),
                         (q_reps(0)[0], coassociativity_report)):
        _stack.cache_clear()
        _words.cache_clear()
        report(*reps)
        assert _stack.cache_info().currsize == 2
        assert _words.cache_info().currsize == 3
