"""Checks that evaluate several modules, or several lines, in one array pass.

``RelationTable.reports`` evaluates a stack of modules at once; the relation
checkers take a sequence of modules, and the hopf and affine suites check a
module together with its Klein twists (or its beta variant) that way.  Every
batched report must equal the module's own report: the same cases, in the
same order, with bitwise-equal residuals.  ``fusion_report`` and
``singlet_lines`` take their lines as batched products; the references below
are their former per-generator loops, copied verbatim.
"""
import dataclasses

import numpy as np
import pytest

from sl11kit import algebra, qaffine, qalgebra, suites
from sl11kit.algebra import (CLASSICAL_NAMES, DegenerateFusionError, bracket_layout,
                             graded_brackets, require_complex128)
from sl11kit.coproduct import ALGEBRAS, coproduct_stack, spell, word_stack
from sl11kit.graded import max_abs
from sl11kit.report import Report

SEEDS = range(20)
TWISTS = ("ef", "ef_cross", "nodes")


# -- references: the former loop bodies, verbatim --------------------------------------


def loop_fusion_report(suite: str, rep_a, rep_b, lowering: tuple[str, str], weights, raised,
                       want: np.ndarray, tolerance: float) -> tuple[np.ndarray, Report]:
    require_complex128("the fusion basis inverse", (rep_a, rep_b))
    table = ALGEBRAS[rep_a.kind].coproduct
    cop = dict(zip(table.names, coproduct_stack(table, rep_a, rep_b)))
    low1, low2 = (cop[name] for name in lowering)
    v0 = np.eye(4, dtype=complex)[3]  # w0 (x) w0'
    v1, v2 = low1 @ v0, low2 @ v0
    v21 = low2 @ v1
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report(suite, tolerance)
    for name, val in weights:
        r.add(f"weight:{name}", max_abs(cop[name] @ v0 - val * v0), expected=val)
    for name, c1, c2 in raised:
        r.add(f"{name}.v21", max_abs(cop[name] @ v21 - (c1 * v1 - c2 * v2)))
    binv = np.linalg.inv(basis)
    for name, target in zip(table.names, want):
        r.add(f"basis-conjugation:{name}", max_abs(binv @ cop[name] @ basis - target))
    return basis, r


def loop_singlet_lines(suite: str, rep_a, rep_b, v: np.ndarray, annihilating, invariant, eigen,
                       tolerance: float) -> Report:
    table = ALGEBRAS[rep_a.kind].coproduct
    cop = dict(zip(table.names, coproduct_stack(table, rep_a, rep_b)))
    r = Report(suite, tolerance)
    for name in annihilating:
        r.add(f"annihilation:{name}", max_abs(cop[name] @ v))
    for name in invariant:
        r.add(f"invariance:{name}", max_abs(cop[name] @ v - v))
    for name in eigen:
        gv = cop[name] @ v
        coeff = np.vdot(v, gv) / np.vdot(v, v)
        r.add(f"{name}-eigenvector", max_abs(gv - coeff * v), eigenvalue=complex(coeff))
    return r


# -- draws as the suites make them -----------------------------------------------------


def sample_rng(seed):
    return next(iter(suites._child_rngs(seed, 1)))


def hopf_draw(seed):
    """The undeformed and deformed label triples of one hopf-suite sample."""
    rng = sample_rng(seed)
    alpha = suites.draw_alpha(rng)
    labs = [suites.draw_labels(rng, alpha) for _ in range(3)]
    q, qalpha = suites.draw_q(rng), suites.draw_alpha(rng)
    return labs, [suites.draw_qlabels(rng, q, qalpha) for _ in range(3)]


def singlet_draw(seed):
    """The two singlet pairs of one singlet-suite sample."""
    rng = sample_rng(seed)
    lab = suites.draw_labels(rng)
    sign = 1 if rng.integers(2) else -1
    qlab = suites.draw_qlabels(rng)
    return ((lab, suites._singlet_partner(lab, sign)),
            (qlab, suites._q_singlet_partner(qlab, sign)))


def affine_labels(seed):
    """The first label set of one affine-suite sample."""
    rng = sample_rng(seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    return suites.draw_qlabels(rng, q, alpha)


def assert_same_report(got: Report, want: Report):
    assert (got.suite, got.tolerance, got.names) == (want.suite, want.tolerance, want.names)
    assert got.tolerances == want.tolerances
    assert got.params == want.params
    assert got.residuals == want.residuals  # every residual bit: == on floats


def with_twists(rep):
    return [rep, *(algebra.klein_twist(name, rep) for name in TWISTS)]


# -- batched relation checks -----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_a_module_and_its_twists_in_one_pass_read_as_their_own_reports(seed):
    labs, qlabs = hopf_draw(seed)
    for checker, rep, tolerance in ((algebra.check_relations, algebra.atypical_rep(labs[0]),
                                     1e-12),
                                    (qalgebra.q_check_relations,
                                     qalgebra.q_atypical_rep(qlabs[0]), 1e-11)):
        modules = with_twists(rep)
        batched = checker(modules, tolerance)
        assert len(batched) == len(modules)
        for got, module in zip(batched, modules):
            assert_same_report(got, checker(module, tolerance))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_affine_standard_and_beta_modules_in_one_pass_read_as_their_own(seed):
    la = affine_labels(seed)
    modules = [qaffine.affine_eval_rep(la), qaffine.affine_eval_rep(la, beta=-1.0)]
    batched = qaffine.affine_relations_report(modules)
    for got, module in zip(batched, modules):
        assert_same_report(got, qaffine.affine_relations_report(module))


def test_the_table_evaluates_a_stack_of_modules_as_each_module_alone():
    labs, _ = hopf_draw(3)
    modules = [algebra.atypical_rep(lab) for lab in labs]
    stack = np.stack([rep.stack for rep in modules])
    batched = algebra.RELATIONS.reports("s", 1e-10, stack, [None] * 3,
                                        [rep.alpha for rep in modules])
    for got, rep in zip(batched, modules):
        assert_same_report(got, algebra.RELATIONS.report("s", 1e-10, rep.stack, None, rep.alpha))


def test_a_batch_whose_modules_carry_different_coefficients_is_rejected():
    labs, qlabs = hopf_draw(0)
    rep = algebra.atypical_rep(labs[0])
    uncoupled = dataclasses.replace(rep, alpha=None)
    # one at a time, each module's report lists the cases its coefficients allow
    assert len(algebra.check_relations(uncoupled).names) < len(algebra.check_relations(rep).names)
    with pytest.raises(ValueError, match="differ in which of q and the couplings"):
        algebra.check_relations([rep, uncoupled])
    qrep = qalgebra.q_atypical_rep(qlabs[0])
    with pytest.raises(ValueError, match="differ in which of q and the couplings"):
        qalgebra.q_check_relations([qrep, dataclasses.replace(qrep, alpha=None)])
    with pytest.raises(ValueError, match="no deformation parameter"):
        qalgebra.q_check_relations([qrep, dataclasses.replace(qrep, q=None)])


def test_a_batch_of_two_affine_variants_is_rejected():
    la = affine_labels(0)
    with pytest.raises(ValueError, match="variants"):
        qaffine.affine_relations_report([qaffine.affine_eval_rep(la),
                                         qaffine.affine_eval_rep(la, "swapped")])


@pytest.mark.parametrize("seed", range(5))
def test_the_suites_read_the_batched_reports(seed):
    """The hopf twist lines and the affine relation lines are the max residuals of
    the modules' own reports."""
    labs, qlabs = hopf_draw(seed)
    hopf = suites.run_suite("hopf", 1, seed)
    residual = dict(zip(hopf.names, hopf.residuals))
    for prefix, checker, rep in (("twist", algebra.check_relations,
                                  algebra.atypical_rep(labs[0])),
                                 ("q-twist", qalgebra.q_check_relations,
                                  qalgebra.q_atypical_rep(qlabs[0]))):
        for name in TWISTS:
            want = checker(algebra.klein_twist(name, rep)).max_residual
            assert residual[f"[0]{prefix}:{name}"] == want
    affine = suites.run_suite("affine", 1, seed)
    residual = dict(zip(affine.names, affine.residuals))
    la = affine_labels(seed)
    for line, module in (("relations", qaffine.affine_eval_rep(la)),
                         ("relations-swapped", qaffine.affine_eval_rep(la, "swapped")),
                         ("relations-beta", qaffine.affine_eval_rep(la, beta=-1.0))):
        assert residual[f"[0]{line}"] == qaffine.affine_relations_report(module).max_residual


# -- batched lines of fusion and the singlet ------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_fusion_lines_equal_the_loop_bodies(seed, monkeypatch):
    labs, qlabs = hopf_draw(seed)
    for check, pair in ((algebra.fuse_check, labs[:2]), (qalgebra.q_fuse_check, qlabs[:2])):
        try:
            got = check(*pair)
        except DegenerateFusionError:
            continue
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "fusion_report", loop_fusion_report)
            mp.setattr(qalgebra, "fusion_report", loop_fusion_report)
            want = check(*pair)
        assert np.array_equal(got.basis, want.basis)
        assert_same_report(got.report, want.report)


@pytest.mark.parametrize("seed", SEEDS)
def test_singlet_lines_equal_the_loop_bodies(seed, monkeypatch):
    pair, qpair = singlet_draw(seed)
    for check, labels in ((algebra.singlet_report, pair), (qalgebra.q_singlet_report, qpair)):
        got = check(*labels)
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "singlet_lines", loop_singlet_lines)
            mp.setattr(qalgebra, "singlet_lines", loop_singlet_lines)
            want = check(*labels)
        assert_same_report(got, want)


# -- leading axes and empty tables -----------------------------------------------------


@pytest.mark.parametrize("dtype", [np.complex128, object])
def test_word_stack_of_no_words_is_empty_in_the_stack_dtype(dtype):
    stack = algebra.atypical_rep(hopf_draw(0)[0][0]).stack.astype(dtype)
    empty = spell(CLASSICAL_NAMES, [])
    assert empty.shape == (0, 1)
    for x in (stack, np.stack([stack, stack])):
        words = word_stack(x, empty)
        assert words.shape == (*x.shape[:-3], 0, 2, 2) and words.dtype == x.dtype


def test_word_stack_and_brackets_read_each_leading_index_on_its_own():
    labs, _ = hopf_draw(1)
    stacks = np.stack([algebra.atypical_rep(lab).stack for lab in labs])
    spelled = spell(CLASSICAL_NAMES, [("e1", "f1", "u+"), ("k1",), (), ("u-", "u-")])
    layout = bracket_layout(CLASSICAL_NAMES, frozenset({"e1", "e2", "f1", "f2"}),
                            [("e1", "f1"), ("h0", "e2"), ("f2", "f2")])
    words, brackets = word_stack(stacks, spelled), graded_brackets(stacks, layout)
    for b, stack in enumerate(stacks):
        assert np.array_equal(words[b], word_stack(stack, spelled))
        assert np.array_equal(brackets[b], graded_brackets(stack, layout))
