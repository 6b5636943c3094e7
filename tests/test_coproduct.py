"""The stacked coproduct images against a term-by-term reference, the memo,
and the intertwining solver that reads the stacks."""
import dataclasses
import json
import warnings

import numpy as np
import pytest

from sl11kit import algebra, coproduct, qaffine, qalgebra, rmatrix, suites, yangian
from sl11kit.algebra import COPRODUCT, KAC_SPACE, RepLabels
from sl11kit.coproduct import STACK_CACHE_SIZE, _stack, _words, coproduct_stack, kron_sum
from sl11kit.graded import SuperMatrix, graded_kron, identity, kron_arrays
from sl11kit.qaffine import AFFINE_COPRODUCT
from sl11kit.qalgebra import Q_COPRODUCT


def _word(rep, word) -> SuperMatrix:
    mat = identity(rep.space)
    for name in word:
        mat = mat @ rep[name]
    return mat


def _parity(word, odd) -> int:
    return sum(name in odd for name in word) % 2


def _reference(table, odd, name, rep_a, rep_b, opposite) -> np.ndarray:
    """Sum of coeff * graded_kron(word_a, word_b) over the terms of Delta(name).

    The opposite coproduct applies the graded flip to each term, so it uses
    no permutation matrix: L (x) R becomes (-1)^{|L||R|} R (x) L.
    """
    total = 0
    for coeff, left, right in table.terms[name]:
        if opposite:
            sign = -1 if _parity(left, odd) * _parity(right, odd) else 1
            total = total + sign * coeff * graded_kron(_word(rep_a, right), _word(rep_b, left)).m
        else:
            total = total + coeff * graded_kron(_word(rep_a, left), _word(rep_b, right)).m
    return total


def _assert_stack_matches(table, odd, rep_a, rep_b):
    for opposite in (False, True):
        stack = coproduct_stack(table, rep_a, rep_b, opposite)
        assert stack.shape == (len(table.names), rep_a.space.dim * rep_b.space.dim,
                               rep_a.space.dim * rep_b.space.dim)
        for i, name in enumerate(table.names):
            ref = _reference(table, odd, name, rep_a, rep_b, opposite)
            bound = 1e-15 * max(1.0, np.abs(ref).max())
            assert np.abs(stack[i] - ref).max() <= bound, (name, opposite)


def _classical_pairs(rng):
    alpha = suites.draw_alpha(rng)
    la, lb = suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)
    ra, rb = algebra.atypical_rep(la), algebra.atypical_rep(lb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        ta = algebra.typical_rep(1.3 - 0.2j, 0.7 + 0.4j, la.nu, alpha)
        tb = algebra.typical_rep(0.4 + 0.1j, -1.1, lb.nu, alpha)
    assert ta.space == KAC_SPACE
    return [(ra, rb), (ta, tb),
            (algebra.klein_twist("ef", ra), algebra.klein_twist("ef", rb)),
            (algebra.klein_twist("nodes", ra), rb),
            (rmatrix.conjugate_rep(ra), rmatrix.conjugate_rep(rb))]


def _q_pairs(rng):
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    qa, qb = suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
    ra, rb = qalgebra.q_atypical_rep(qa), qalgebra.q_atypical_rep(qb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        ta = qalgebra.q_typical_rep(0.9 - 0.2j, 0.6 + 0.5j, qa.nu, q, alpha)
        tb = qalgebra.q_typical_rep(0.3 + 0.1j, 1.2, qb.nu, q, alpha)
    return [(ra, rb), (ta, tb),
            (algebra.klein_twist("ef", ra), algebra.klein_twist("ef", rb)),
            (algebra.klein_twist("ef_cross", ra), rb),
            (rmatrix.conjugate_rep(ra), rmatrix.conjugate_rep(rb))]


@pytest.mark.parametrize("seed", range(4))
def test_classical_stack_matches_term_by_term_reference(seed):
    for ra, rb in _classical_pairs(np.random.default_rng(seed)):
        _assert_stack_matches(COPRODUCT, algebra._ODD_NAMES, ra, rb)


@pytest.mark.parametrize("seed", range(4))
def test_q_stack_matches_term_by_term_reference(seed):
    for ra, rb in _q_pairs(np.random.default_rng(seed)):
        _assert_stack_matches(Q_COPRODUCT, qalgebra._Q_ODD, ra, rb)


@pytest.mark.parametrize("seed", range(4))
def test_affine_stack_matches_term_by_term_reference(seed):
    rng = np.random.default_rng(seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    qa, qb = suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
    for variant, beta in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0)):
        ra = qaffine.affine_eval_rep(qa, variant, beta)
        rb = qaffine.affine_eval_rep(qb, variant, beta)
        _assert_stack_matches(AFFINE_COPRODUCT, qaffine._AFF_ODD, ra, rb)


def _column_by_column(columns, space_a, space_b, words_a, words_b):
    """kron_sum as one graded Kronecker product per column, summed in order."""
    return sum(coeff * kron_arrays(words_a[left], words_b[right], space_a, space_a,
                                   space_b, space_b) for coeff, left, right in zip(*columns))


@pytest.mark.parametrize("seed", range(3))
def test_one_pass_kron_sum_is_the_column_by_column_sum(seed):
    rng = np.random.default_rng(seed)
    (ra, rb), (ta, tb), *_ = _classical_pairs(rng)
    (qa, qb), *_ = _q_pairs(rng)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    fa, fb = (qaffine.affine_eval_rep(suites.draw_qlabels(rng, q, alpha)) for _ in range(2))
    for table, a, b in ((COPRODUCT, ra, rb), (COPRODUCT, ta, tb), (COPRODUCT, ra, ta),
                        (Q_COPRODUCT, qa, qb), (AFFINE_COPRODUCT, fa, fb)):
        args = (table.columns, a.space, b.space, _words(table, a), _words(table, b))
        one_pass = kron_sum(*args)
        assert np.array_equal(one_pass, _column_by_column(*args))
        assert np.array_equal(coproduct_stack(table, a, b), one_pass)


@pytest.mark.parametrize("eps", [(1.0, 1.0), (1.3 - 0.2j, 0.7 + 0.4j)])
def test_one_pass_kron_sum_builds_the_yangian_tower(eps, monkeypatch):
    rng = np.random.default_rng(23)
    alpha = suites.draw_alpha(rng)
    eva, evb = yangian.scaled_eval_pair(suites.draw_labels(rng, alpha),
                                        suites.draw_labels(rng, alpha))
    tower = yangian._direct_tower(eva, evb, eps, 4)
    monkeypatch.setattr(yangian, "kron_sum", _column_by_column)
    assert np.array_equal(yangian._direct_tower(eva, evb, eps, 4), tower)


def test_mixed_dimension_pairs_match_reference_in_both_orders():
    # atypical (C11) with typical (KAC_SPACE): the graded flip between spaces
    # of different dimension
    rng = np.random.default_rng(17)
    (ra, _), (ta, _), *_ = _classical_pairs(rng)
    (qa, _), (qta, _), *_ = _q_pairs(rng)
    for table, odd, small, big in ((COPRODUCT, algebra._ODD_NAMES, ra, ta),
                                   (Q_COPRODUCT, qalgebra._Q_ODD, qa, qta)):
        assert small.space.dim != big.space.dim
        _assert_stack_matches(table, odd, small, big)
        _assert_stack_matches(table, odd, big, small)
    assert coproduct.cocommutativity_report(ra, ta).max_residual <= 1e-12


def test_image_functions_are_slices_of_the_stack():
    rng = np.random.default_rng(11)
    (ra, rb), *_ = _classical_pairs(rng)
    (qa, qb), *_ = _q_pairs(rng)
    for image, table, a, b in ((algebra.coproduct_image, COPRODUCT, ra, rb),
                               (qalgebra.q_coproduct_image, Q_COPRODUCT, qa, qb)):
        for opposite in (False, True):
            stack = coproduct_stack(table, a, b, opposite)
            for i, name in enumerate(table.names):
                mat = image(name, a, b, opposite)
                assert isinstance(mat, SuperMatrix)
                assert mat.space_out == a.space.tensor(b.space)
                assert np.array_equal(mat.m, stack[i])
        with pytest.raises(KeyError, match="unknown generator"):
            image("nope", a, b)


def test_memoised_stacks_are_read_only_and_per_object():
    lab_a = RepLabels(1.2 + 0.3j, np.exp(0.4j), -0.5, 0.5)
    lab_b = RepLabels(0.8 - 0.1j, np.exp(-1.1j), -0.5, 0.5)
    ra, rb = algebra.atypical_rep(lab_a), algebra.atypical_rep(lab_b)
    twin = algebra.GeneratorImage.from_images(ra.space, ra.images, ra.alpha)  # equal content, distinct object
    stack = coproduct_stack(COPRODUCT, ra, rb)
    assert coproduct_stack(COPRODUCT, ra, rb, opposite=False) is stack
    assert coproduct_stack(COPRODUCT, twin, rb) is not stack
    for opposite in (False, True):
        with pytest.raises(ValueError):
            coproduct_stack(COPRODUCT, ra, rb, opposite)[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        _words(COPRODUCT, ra)[0, 0, 0] = 1.0
    assert _words(COPRODUCT, twin) is not _words(COPRODUCT, ra)
    assert _stack.cache_info().maxsize == _words.cache_info().maxsize == STACK_CACHE_SIZE
    # fresh objects built one after another never see another object's entry
    u = COPRODUCT.position("u+")
    for k in range(3 * STACK_CACHE_SIZE):
        nu = np.exp(0.01j * (k + 1))
        rep = algebra.atypical_rep(RepLabels(1.0, nu, -0.5, 0.5))
        dup = coproduct_stack(COPRODUCT, rep, rep)[u]
        assert np.abs(dup - nu * nu * np.eye(4)).max() <= 1e-15


def test_r_solve_agrees_with_closed_forms():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        alpha = suites.draw_alpha(rng)
        la, lb = suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)
        rc = rmatrix.r_closed(la, lb)
        rs = rmatrix.r_solve(algebra.atypical_rep(la), algebra.atypical_rep(lb),
                             match_r11=rc.normalization)
        assert np.abs(rs.m - rc.m).max() <= 1e-12
        q = suites.draw_q(rng)
        qa, qb = suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
        rq = rmatrix.rq_closed(qa, qb)
        rs = rmatrix.r_solve(qalgebra.q_atypical_rep(qa), qalgebra.q_atypical_rep(qb),
                             match_r11=rq.normalization)
        assert np.abs(rs.m - rq.m).max() <= 1e-12


def test_solver_keeps_all_singular_values_and_rejects_reducible_pairs():
    rng = np.random.default_rng(5)
    alpha = suites.draw_alpha(rng)
    la, lb = suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)
    qa = suites.draw_qlabels(rng)
    qb = suites.draw_qlabels(rng, qa.q, qa.alpha)
    for ra, rb in ((algebra.atypical_rep(la), algebra.atypical_rep(lb)),
                   (qalgebra.q_atypical_rep(qa), qalgebra.q_atypical_rep(qb))):
        null, svals = rmatrix.solve_intertwiner(ra, rb)
        assert svals.shape == (16,) and len(null) == 1
        assert np.all(np.diff(svals) <= 0)
    degenerate = algebra.atypical_rep(RepLabels(1.0, 1.0, -0.5, 0.5))
    null, svals = rmatrix.solve_intertwiner(degenerate, degenerate)
    assert svals.shape == (16,) and len(null) > 1
    with pytest.raises(rmatrix.ReducibleTensorError) as err:
        rmatrix.r_solve(degenerate, degenerate)
    assert err.value.dim == len(null)


def test_intertwining_rows_follow_the_representation_names():
    # the twisted deformed module lists its generators in another order
    rng = np.random.default_rng(3)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    qa, qb = suites.draw_qlabels(rng, q, alpha), suites.draw_qlabels(rng, q, alpha)
    ra = algebra.klein_twist("ef", qalgebra.q_atypical_rep(qa))
    rb = algebra.klein_twist("ef", qalgebra.q_atypical_rep(qb))
    assert ra.names != Q_COPRODUCT.names
    rm = rmatrix.r_solve(ra, rb)
    rpt = rmatrix.intertwining_report(rm, ra, rb)
    assert [c.identity for c in rpt.cases] == [f"intertwine:{n}" for n in ra.names]
    for case in rpt.cases:
        name = case.identity.split(":")[1]
        dop = qalgebra.q_coproduct_image(name, ra, rb, True).m
        d = qalgebra.q_coproduct_image(name, ra, rb).m
        assert case.residual == np.abs(dop @ rm.m - rm.m @ d).max()
    assert rpt.max_residual <= 1e-10


# -- module builders as values of their labels -------------------------------------

LAB = RepLabels(1.2, np.exp(0.4j), -0.5, 0.5)
QLAB = qalgebra.q_labels(0.9 - 0.2j, np.exp(0.4j), 1.15, (-0.5, 0.5))[0]


def test_equal_labels_give_one_module_object_for_every_call_form():
    twin, qtwin = dataclasses.replace(LAB), dataclasses.replace(QLAB)
    assert twin == LAB and twin is not LAB and qtwin == QLAB and qtwin is not QLAB
    assert algebra.atypical_rep(twin) is algebra.atypical_rep(LAB)
    assert qalgebra.q_atypical_rep(qtwin) is qalgebra.q_atypical_rep(QLAB)
    build, alt = qaffine.affine_eval_rep, qaffine.alt_affinization
    forms = {
        "standard": [build, alt, lambda lab: build(lab, "standard", 1.0),
                     lambda lab: build(lab, beta=1), lambda lab: build(lab, beta=1 + 0j)],
        "swapped": [lambda lab: build(lab, "swapped"), lambda lab: build(lab, "swapped", 1),
                    lambda lab: alt(lab, "swapped")],
        "beta": [lambda lab: build(lab, beta=-1.0), lambda lab: build(lab, "standard", -1),
                 lambda lab: alt(lab, "beta-sign")],
    }
    ids = {name: {id(form(lab)) for form in group for lab in (QLAB, qtwin)}
           for name, group in forms.items()}
    assert all(len(group) == 1 for group in ids.values()), ids
    assert len(set.union(*ids.values())) == 3
    # so the memos keyed by module object hit wherever a module is rebuilt
    rep, rep_twin = qalgebra.q_atypical_rep(QLAB), qalgebra.q_atypical_rep(qtwin)
    assert coproduct_stack(Q_COPRODUCT, rep_twin, rep_twin) is coproduct_stack(Q_COPRODUCT, rep, rep)


def _zero_flips(labels):
    """Copies of ``labels`` equal to it as numbers, each with the sign of one
    zero part of one field flipped."""
    out = []
    for field in dataclasses.fields(labels):
        z = getattr(labels, field.name)
        if isinstance(z, complex):
            if z.real == 0:
                out.append(dataclasses.replace(labels, **{field.name: complex(-z.real, z.imag)}))
            if z.imag == 0:
                out.append(dataclasses.replace(labels, **{field.name: complex(z.real, -z.imag)}))
    return out


def _text(rep) -> str:
    return json.dumps(rep.to_dict())


def test_labels_differing_in_the_sign_of_a_zero_part_get_their_own_module():
    """A memo keyed by ``==`` alone would serve the first module to every
    probe; each probe's module must be its own fresh build."""
    builders = [
        (algebra.atypical_rep, algebra.atypical_rep.__wrapped__, LAB),
        (qalgebra.q_atypical_rep, qalgebra.q_atypical_rep.__wrapped__, QLAB),
        *((lambda lab, v=v, b=b: qaffine.affine_eval_rep(lab, v, b),
           lambda lab, v=v, b=b: qaffine._affine_eval.__wrapped__(lab, v, complex(b)), QLAB)
          for v, b in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0))),
        (lambda lab: qaffine.affine_eval_rep(QLAB, "standard", lab),
         lambda lab: qaffine._affine_eval.__wrapped__(QLAB, "standard", lab), -1 + 0j),
    ]
    differ = 0
    for memoised, fresh, labels in builders:
        first = memoised(labels)
        probes = (_zero_flips(labels) if dataclasses.is_dataclass(labels)
                  else [complex(labels.real, -labels.imag)])
        assert probes
        for probe in probes:
            assert probe == labels
            got = memoised(probe)
            assert got is not first and _text(got) == _text(fresh(probe))
            differ += _text(got) != _text(first)
    assert differ >= 6
