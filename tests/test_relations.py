"""The relation and level-bracket checkers against their SuperMatrix references.

The checkers read every graded bracket from one gathered batched product
over the pairs they check (``algebra.graded_brackets``).  The references
below are the pairwise formulation, one ``graded_comm`` or SuperMatrix
product per bracket; both must report the same cases, in the same order,
with the same residuals.
"""
import dataclasses
import re
import warnings

import numpy as np
import pytest

from sl11kit import algebra, qaffine, qalgebra, suites, yangian
from sl11kit.algebra import CLASSICAL_NAMES
from sl11kit.algebra import bracket_layout, graded_brackets
from sl11kit.graded import (EVEN, ODD, GradedSpace, SuperMatrix, graded_comm, identity,
                            max_abs)
from sl11kit.qaffine import GROUP_LIKE, node_sign
from sl11kit.report import Report

SEEDS = range(6)


# -- references: one SuperMatrix per product ------------------------------------------


def ref_check_relations(rep, tolerance=1e-10):
    r = Report("algebra-relations", tolerance)
    im = rep.images
    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for (a, b), t in targets.items():
        r.add(f"[{a},{b}]-{t}", max_abs(graded_comm(im[a], im[b], ODD, ODD) - im[t]))
    for a in ("e1", "e2"):
        r.add(f"[h0,{a}]-{a}", max_abs(graded_comm(im["h0"], im[a], EVEN, ODD) - im[a]))
    for a in ("f1", "f2"):
        r.add(f"[h0,{a}]+{a}", max_abs(graded_comm(im["h0"], im[a], EVEN, ODD) + im[a]))
    for a, b in (("e1", "e1"), ("e1", "e2"), ("e2", "e2"),
                 ("f1", "f1"), ("f1", "f2"), ("f2", "f2")):
        r.add(f"[{a},{b}]", max_abs(graded_comm(im[a], im[b], ODD, ODD)))
    r.add("u+u- - 1", max_abs(im["u+"] @ im["u-"] - identity(rep.space)))
    for c in ("h1", "h2", "k1", "k2", "u+", "u-"):
        for g in CLASSICAL_NAMES:
            pg = ODD if g in algebra._ODD_NAMES else EVEN
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], EVEN, pg)))
    if rep.alpha is not None:
        a1, a2 = rep.alpha
        usq = im["u+"] @ im["u+"] - im["u-"] @ im["u-"]
        r.add("k1 - alpha1(u^2-u^-2)", max_abs(im["k1"] - a1 * usq))
        r.add("k2 - alpha2(u^2-u^-2)", max_abs(im["k2"] - a2 * usq))
    return r


def ref_q_check_relations(rep, tolerance=1e-10):
    q = rep.q
    im = rep.images
    one = identity(rep.space)
    r = Report("q-algebra-relations", tolerance)
    for base in ("K0", "K1", "K2", "L1", "L2", "U"):
        plus, minus = f"{base}+", f"{base}-"
        if base == "U":
            plus, minus = "U+", "U-"
        r.add(f"{plus}{minus} - 1", max_abs(im[plus] @ im[minus] - one))
    for a in ("E1", "E2"):
        r.add(f"K0+ {a} K0- - q {a}", max_abs(im["K0+"] @ im[a] @ im["K0-"] - q * im[a]))
    for a in ("F1", "F2"):
        r.add(f"K0- {a} K0+ - q {a}", max_abs(im["K0-"] @ im[a] @ im["K0+"] - q * im[a]))
    qq = q - 1 / q
    targets = {
        ("E1", "F1"): (im["K1+"] @ im["K1+"] - im["K1-"] @ im["K1-"]) * (1 / qq),
        ("E2", "F2"): (im["K2+"] @ im["K2+"] - im["K2-"] @ im["K2-"]) * (1 / qq),
    }
    if rep.alpha is not None:
        a1, a2 = rep.alpha
        targets[("E1", "F2")] = (a1 / qq) * (im["L1+"] - im["L1-"])
        targets[("E2", "F1")] = (a2 / qq) * (im["L2+"] - im["L2-"])
    for (a, b), t in targets.items():
        r.add(f"[{a},{b}]", max_abs(graded_comm(im[a], im[b], ODD, ODD) - t))
    for a, b in (("E1", "E1"), ("E1", "E2"), ("E2", "E2"),
                 ("F1", "F1"), ("F1", "F2"), ("F2", "F2")):
        r.add(f"[{a},{b}]", max_abs(graded_comm(im[a], im[b], ODD, ODD)))
    r.add("L1+ - K1+K2+U^2", max_abs(im["L1+"] - im["K1+"] @ im["K2+"] @ im["U+"] @ im["U+"]))
    r.add("L2+ - K1+K2+U^-2", max_abs(im["L2+"] - im["K1+"] @ im["K2+"] @ im["U-"] @ im["U-"]))
    r.add("L1- - K1-K2-U^-2", max_abs(im["L1-"] - im["K1-"] @ im["K2-"] @ im["U-"] @ im["U-"]))
    r.add("L2- - K1-K2-U^2", max_abs(im["L2-"] - im["K1-"] @ im["K2-"] @ im["U+"] @ im["U+"]))
    for c in ("K1+", "K1-", "K2+", "K2-", "L1+", "L1-", "L2+", "L2-", "U+", "U-"):
        for g in ("E1", "E2", "F1", "F2", "K0+", "K0-"):
            pg = ODD if g in qalgebra._Q_ODD else EVEN
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], EVEN, pg)))
    return r


def ref_affine_relations_report(rep, tolerance=1e-11):
    im = rep.images
    q = rep.q
    qq = q - 1 / q
    one = identity(rep.space)
    r = Report("affine-relations", tolerance)
    for base in ("K0", "K1", "K2", "K3", "K4", "U", "V"):
        r.add(f"{base}+{base}- - 1", max_abs(im[f"{base}+"] @ im[f"{base}-"] - one))
    for i in range(1, 5):
        r.add(f"K0+ E{i} K0- - q E{i}",
              max_abs(im["K0+"] @ im[f"E{i}"] @ im["K0-"] - q * im[f"E{i}"]))
        r.add(f"K0- F{i} K0+ - q F{i}",
              max_abs(im["K0-"] @ im[f"F{i}"] @ im["K0+"] - q * im[f"F{i}"]))

    def comm(a, b):
        return graded_comm(im[a], im[b], ODD, ODD)

    def even_comm(x, y):
        return x @ y - y @ x

    for block in ((1, 2), (3, 4)):
        for i in block:
            for j in block:
                lhs = comm(f"E{i}", f"F{j}")
                if i == j:
                    kp, km = im[f"K{i}+"], im[f"K{i}-"]
                    target = (kp @ kp - km @ km) * (1 / qq)
                else:
                    target = (rep.alpha[i - 1] / qq) * (rep.l_image(i, "+")
                                                        - rep.l_image(i, "-"))
                r.add(f"[E{i},F{j}]", max_abs(lhs - target))
    kplus = im["K1+"] @ im["K2+"] @ im["K3+"] @ im["K4+"]
    kminus = im["K1-"] @ im["K2-"] @ im["K3-"] @ im["K4-"]
    if rep.variant == "standard":
        serre1 = even_comm(comm("E3", "F2"), comm("E4", "F1"))
        r.add("[[E3,F2],[E4,F1]] - (K+-K-)/(q-1/q)",
              max_abs(serre1 - (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lhs = even_comm(comm(f"E{i}", f"F{i+2}"), comm(f"E{j+2}", f"F{j}"))
            lp = rep.l_image(i, "+") @ rep.l_image(j + 2, "+")
            lm = rep.l_image(i, "-") @ rep.l_image(j + 2, "-")
            r.add(f"[[E{i},F{i+2}],[E{j+2},F{j}]] - L-line",
                  max_abs(lhs - (lp - lm) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            s = node_sign(i)
            uv_p = im["U+"] @ im["V+"]
            uv_m = im["U-"] @ im["V-"]
            kk_p = im[f"K{i}+"] @ im[f"K{j+2}+"]
            kk_m = im[f"K{i}-"] @ im[f"K{j+2}-"]
            if s == -1:
                kk_p, kk_m = np.linalg.inv(kk_p.m), np.linalg.inv(kk_m.m)
                kk_p = SuperMatrix(rep.space, rep.space, kk_p, EVEN)
                kk_m = SuperMatrix(rep.space, rep.space, kk_m, EVEN)
            target = (rep.alpha[i - 1] / qq) * (uv_p @ kk_p - uv_m @ kk_m)
            r.add(f"[E{i},F{j+2}] - compatibility",
                  max_abs(comm(f"E{i}", f"F{j+2}") - target))
    else:
        serre1 = even_comm(comm("E3", "F1"), comm("E4", "F2"))
        r.add("[[E3,F1],[E4,F2]] - (K+-K-)/(q-1/q)",
              max_abs(serre1 - (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lhs = even_comm(comm(f"E{i}", f"F{j+2}"), comm(f"E{i+2}", f"F{i}"))
            lp = rep.l_image(i, "+") @ rep.l_image(i + 2, "+")
            lm = rep.l_image(i, "-") @ rep.l_image(i + 2, "-")
            r.add(f"[[E{i},F{j+2}],[E{i+2},F{i}]] - L-line",
                  max_abs(lhs - (lp - lm) * (1 / qq)))
        for i in (1, 2):
            s = node_sign(i)
            uv_p = im["U+"] @ im["V-"]
            uv_m = im["U-"] @ im["V+"]
            kk_p = im[f"K{i}+"] @ im[f"K{i+2}+"]
            kk_m = im[f"K{i}-"] @ im[f"K{i+2}-"]
            if s == -1:
                kk_p = SuperMatrix(rep.space, rep.space, np.linalg.inv(kk_p.m), EVEN)
                kk_m = SuperMatrix(rep.space, rep.space, np.linalg.inv(kk_m.m), EVEN)
            target = (rep.alpha[i - 1] / qq) * (uv_p @ kk_p - uv_m @ kk_m)
            r.add(f"[E{i},F{i+2}] - compatibility",
                  max_abs(comm(f"E{i}", f"F{i+2}") - target))
    for i in range(1, 5):
        for j in range(i, 5):
            r.add(f"[E{i},E{j}]", max_abs(comm(f"E{i}", f"E{j}")))
            r.add(f"[F{i},F{j}]", max_abs(comm(f"F{i}", f"F{j}")))
    for c in GROUP_LIKE:
        if c in ("K0+", "K0-"):
            continue
        for g in ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"):
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], EVEN, ODD)))
    r.add("ev(K+) - 1", max_abs(kplus - one))
    r.add("ev(K-) - 1", max_abs(kminus - one))
    return r


def ref_level_bracket_report(ev, rs_max=8, tolerance=1e-11):
    rpt = Report("level-brackets", tolerance)
    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for r in range(rs_max + 1):
        for s in range(rs_max + 1 - r):
            for (a, b), t in targets.items():
                lhs = ev.image(a, r) @ ev.image(b, s) + ev.image(b, s) @ ev.image(a, r)
                rpt.add(f"[{a},{r};{b},{s}]", max_abs(lhs - ev.image(t, r + s)))
            for a in ("e1", "e2"):
                lhs = ev.image("h0", r) @ ev.image(a, s) - ev.image(a, s) @ ev.image("h0", r)
                rpt.add(f"[h0,{r};{a},{s}]", max_abs(lhs - ev.image(a, r + s)))
            for a in ("f1", "f2"):
                lhs = ev.image("h0", r) @ ev.image(a, s) - ev.image(a, s) @ ev.image("h0", r)
                rpt.add(f"[h0,{r};{a},{s}]", max_abs(lhs + ev.image(a, r + s)))
    return rpt


# -- seeded representations --------------------------------------------------------


def classical_reps(seed):
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    lab = suites.draw_labels(rng, alpha)
    rep = algebra.atypical_rep(lab)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        typical = algebra.typical_rep(1.3 - 0.2j, 0.7 + 0.4j, lab.nu, alpha)
    twists = [algebra.klein_twist(name, rep) for name in algebra.KLEIN_ROWS]
    return [rep, typical, *twists]


def q_reps(seed):
    rng = np.random.default_rng(100 + seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    lab = suites.draw_qlabels(rng, q, alpha)
    rep = qalgebra.q_atypical_rep(lab)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        typical = qalgebra.q_typical_rep(0.9 - 0.2j, 0.6 + 0.5j, lab.nu, q, alpha)
    twists = [algebra.klein_twist(name, rep) for name in qalgebra.Q_KLEIN_ROWS]
    upper = qaffine.upper_nodes_subalgebra(qaffine.affine_eval_rep(lab))
    return [rep, typical, *twists, upper]


def affine_reps(seed):
    rng = np.random.default_rng(200 + seed)
    lab = suites.draw_qlabels(rng, suites.draw_q(rng), suites.draw_alpha(rng))
    return [qaffine.affine_eval_rep(lab, variant, beta)
            for variant, beta in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0))]


def eval_reps(seed):
    rng = np.random.default_rng(300 + seed)
    alpha = suites.draw_alpha(rng)
    ev, _ = yangian.scaled_eval_pair(suites.draw_labels(rng, alpha),
                                     suites.draw_labels(rng, alpha))
    eps1, eps2 = suites._annulus(rng, 0.5, 1.5), suites._annulus(rng, 0.5, 1.5)
    return [ev, yangian._omega_twisted(ev, eps1, eps2, +1)]


def assert_same_report(got: Report, want: Report):
    assert got.suite == want.suite and got.tolerance == want.tolerance
    assert [c.identity for c in got.cases] == [c.identity for c in want.cases]
    assert [c.tolerance for c in got.cases] == [c.tolerance for c in want.cases]
    for g, w in zip(got.cases, want.cases):
        assert abs(g.residual - w.residual) <= 1e-15, g.identity
    assert got.passed == want.passed


def perturbed(rep, name, factor=1 + 1e-6):
    """The same representation with the image of ``name`` scaled by ``factor``."""
    stack = np.array(rep.stack)
    g = rep.names.index(name)
    stack[g] = stack[g] * complex(factor)
    return dataclasses.replace(rep, stack=stack)


def flagged(rpt: Report) -> list[str]:
    return [c.identity for c in rpt.cases if c.residual > rpt.tolerance]


CHECKERS = [
    (algebra.check_relations, ref_check_relations, classical_reps, "e1", 1e-12),
    (qalgebra.q_check_relations, ref_q_check_relations, q_reps, "E1", 1e-11),
    (qaffine.affine_relations_report, ref_affine_relations_report, affine_reps, "E3", 1e-11),
]


# -- tests -----------------------------------------------------------------------------


@pytest.mark.parametrize("checker, reference, reps, _name, tolerance", CHECKERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_checker_matches_reference(checker, reference, reps, _name, tolerance, seed):
    for rep in reps(seed):
        got = checker(rep, tolerance)
        assert_same_report(got, reference(rep, tolerance))
        assert got.passed


@pytest.mark.parametrize("checker, reference, reps, name, tolerance", CHECKERS)
def test_checker_flags_the_cases_the_reference_flags(checker, reference, reps, name,
                                                     tolerance):
    for seed in SEEDS:
        for rep in reps(seed):
            bad = perturbed(rep, name)
            got, want = checker(bad, tolerance), reference(bad, tolerance)
            assert_same_report(got, want)
            assert flagged(got) == flagged(want) != []


@pytest.mark.parametrize("checker, _reference, reps, name, _tolerance", CHECKERS)
def test_checker_raises_on_a_missing_image(checker, _reference, reps, name, _tolerance):
    for rep in reps(0):
        keep = [g for g, other in enumerate(rep.names) if other != name]
        bare = dataclasses.replace(rep, names=[rep.names[g] for g in keep],
                                   stack=rep.stack[keep], parity=[rep.parity[g] for g in keep])
        with pytest.raises(KeyError, match=f"missing generator images: \\['{name}'\\]"):
            checker(bare)


@pytest.mark.parametrize("seed", SEEDS)
def test_level_brackets_match_reference(seed):
    for ev in eval_reps(seed):
        for rs_max in range(9):
            got = yangian.level_bracket_report(ev, rs_max)
            assert_same_report(got, ref_level_bracket_report(ev, rs_max))
            assert got.passed
            bad = perturbed(ev, "e1")
            got = yangian.level_bracket_report(bad, rs_max)
            want = ref_level_bracket_report(bad, rs_max)
            assert_same_report(got, want)
            assert flagged(got) == flagged(want) != []


def test_omega_brackets_read_the_level_bracket_table(seed=3):
    ev = eval_reps(seed)[0]
    eps1, eps2 = 1.2 - 0.3j, 0.7 + 0.1j
    got = yangian.omega_preserves_brackets_report(ev, eps1, eps2)
    want = ref_level_bracket_report(yangian._omega_twisted(ev, eps1, eps2, +1), 3)
    want.suite = "omega-brackets"
    assert_same_report(got, want)


def test_graded_brackets_match_pairwise_graded_comm():
    rng = np.random.default_rng(9)
    space = GradedSpace(4, (0, 1, 1, 0))
    # non-homogeneous matrices: the declared parity alone sets the sign
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    names = ("a", "b", "c", "d", "e", "f")
    odd = frozenset({"a", "c", "d"})
    pairs = [(x, y) for x in names for y in names]
    got = graded_brackets(stack, bracket_layout(names, odd, pairs))
    assert got.shape == (36, 4, 4)
    for k, (x, y) in enumerate(pairs):
        a, b = names.index(x), names.index(y)
        ref = graded_comm(SuperMatrix(space, space, stack[a]),
                          SuperMatrix(space, space, stack[b]), int(x in odd), int(y in odd))
        assert np.array_equal(got[k], ref.m), (x, y)


@pytest.mark.parametrize("table, names, odd, typo, case", [
    (algebra.RELATIONS, CLASSICAL_NAMES, algebra._ODD_NAMES, ("alpha1:", "alphx1:"),
     "k1 - alpha1(u^2-u^-2)"),
    (qalgebra.Q_RELATIONS, qalgebra.Q_NAMES, qalgebra._Q_ODD, ("q:", "Q:"), "K0+ E1 K0- - q E1")])
def test_a_typo_in_a_coefficient_symbol_is_rejected_naming_its_case(table, names, odd, typo,
                                                                    case):
    # a symbol outside the grammar would otherwise drop its cases without a word
    cases = [(name, lhs, rhs.replace(*typo)) for name, lhs, rhs in table.cases]
    symbol = typo[1][:-1]
    with pytest.raises(ValueError, match=re.escape(f"relation {case!r}: unknown coefficient "
                                                   f"symbol {symbol!r}")):
        algebra.RelationTable(names, odd, cases)
    assert algebra.RelationTable(names, odd, table.cases).case_names == table.case_names


def test_every_symbol_of_the_grammar_is_valued():
    # q over (q-1/q) is grammatical, so it is valued, not dropped
    rep = qalgebra.q_atypical_rep(suites.draw_qlabels(np.random.default_rng(4)))
    table = algebra.RelationTable(qalgebra.Q_NAMES, qalgebra._Q_ODD, [
        ("K0+ q/(q-1/q)", "q/(q-1/q): K0+", "0"), ("K0+ alpha2", "alpha2: K0+", "0"),
        ("[E1,E1]", "[E1,E1]", "0"), ("K0+K0- - 1", "K0+ K0-", "1")])
    rpt = table.report("s", 1.0, rep.stack, rep.q, rep.alpha)
    k0 = rep["K0+"].m
    assert rpt.names == table.case_names
    assert rpt.residuals[:2] == [np.abs(k0 * (rep.q / (rep.q - 1 / rep.q))).max(),
                                 np.abs(k0 * rep.alpha[1]).max()]


@pytest.mark.parametrize("cases", [
    [("K0+K0- - 1", "K0+ K0-", "1"), ("q K0+", "q: K0+", "0")],
    [("[E1,E1]", "[E1,E1]", "0"), ("[E1,F2]", "[E1,F2]", "0"), ("K0+ - K0+", "K0+", "K0+")],
], ids=["no-bracket", "no-word-of-two-letters"])
def test_a_table_without_a_bracket_or_a_long_word_evaluates(cases):
    rep = qalgebra.q_atypical_rep(suites.draw_qlabels(np.random.default_rng(4)))
    rpt = algebra.RelationTable(qalgebra.Q_NAMES, qalgebra._Q_ODD, cases).report(
        "s", 1.0, rep.stack, rep.q, rep.alpha)
    x = {name: rep[name].m for name in ("E1", "F2", "K0+", "K0-")}
    want = {"K0+K0- - 1": x["K0+"] @ x["K0-"] - np.eye(2), "q K0+": rep.q * x["K0+"],
            "[E1,E1]": 2 * x["E1"] @ x["E1"], "[E1,F2]": x["E1"] @ x["F2"] + x["F2"] @ x["E1"],
            "K0+ - K0+": 0 * x["K0+"]}
    assert rpt.names == [name for name, _, _ in cases]
    assert rpt.residuals == [np.abs(want[name]).max() for name in rpt.names]
