"""Modules as one read-only image stack, against their SuperMatrix references.

Every module builder fills or gathers a ``(G, n, n)`` stack, and the three
relation checkers read that stack through gathered batched products.  The
references below are the per-image SuperMatrix builders and the
``bracket_table`` relation checkers these replaced, kept as they were: every
image must be equal to the reference's, and every residual bitwise equal, in
the same case order.
"""
import json
import warnings

import numpy as np
import pytest

from sl11kit import algebra, graded, qaffine, qalgebra, suites
from sl11kit.algebra import CLASSICAL_NAMES, GeneratorImage
from sl11kit.graded import C11, EVEN, ODD, SuperMatrix, identity, unit
from sl11kit.qaffine import AFFINE_NAMES, GROUP_LIKE, AffineRep, _l_word, node_sign

SEEDS = range(25)

E12, E21, ONE = unit(C11, C11, 0, 1), unit(C11, C11, 1, 0), identity(C11)
KAC_ONE = identity(algebra.KAC_SPACE)


# -- references: one SuperMatrix per image ---------------------------------------------


def ref_atypical_rep(labels):
    g, nu = labels.gamma, labels.nu
    imgs = {
        "e1": g * E21, "e2": (1 / g) * E21,
        "f1": g * labels.mu2 * E12, "f2": (1 / g) * labels.mu1 * E12,
        "h0": SuperMatrix(C11, C11, np.diag([-2.0, -1.0]), EVEN),
        "h1": labels.lambda1 * ONE, "h2": labels.lambda2 * ONE,
        "k1": labels.mu1 * ONE, "k2": labels.mu2 * ONE,
        "u+": nu * ONE, "u-": (1 / nu) * ONE,
    }
    return GeneratorImage.from_images(C11, imgs, alpha=labels.alpha)


def ref_kac_odd_images(lam1, lam2, mu1, mu2):
    f1 = np.zeros((4, 4), dtype=complex)
    f1[1, 0], f1[3, 2] = 1.0, -1.0
    f2 = np.zeros((4, 4), dtype=complex)
    f2[2, 0], f2[3, 1] = 1.0, 1.0
    e1 = np.zeros((4, 4), dtype=complex)
    e1[0, 1], e1[0, 2], e1[1, 3], e1[2, 3] = lam1, mu1, mu1, -lam1
    e2 = np.zeros((4, 4), dtype=complex)
    e2[0, 1], e2[0, 2], e2[1, 3], e2[2, 3] = mu2, lam2, lam2, -mu2
    space = algebra.KAC_SPACE
    return tuple(SuperMatrix(space, space, m, ODD) for m in (e1, e2, f1, f2))


def ref_typical_rep(lambda1, lambda2, nu, alpha):
    a1, a2 = alpha
    mu1, mu2 = a1 * (nu**2 - nu**-2), a2 * (nu**2 - nu**-2)
    space = algebra.KAC_SPACE
    imgs = {
        **dict(zip(("e1", "e2", "f1", "f2"), ref_kac_odd_images(lambda1, lambda2, mu1, mu2))),
        "h0": SuperMatrix(space, space, np.diag([0.0, -1.0, -1.0, -2.0]), EVEN),
        "h1": lambda1 * KAC_ONE, "h2": lambda2 * KAC_ONE,
        "k1": mu1 * KAC_ONE, "k2": mu2 * KAC_ONE,
        "u+": nu * KAC_ONE, "u-": (1 / nu) * KAC_ONE,
    }
    return GeneratorImage.from_images(space, imgs, alpha=alpha)


def ref_q_atypical_rep(labels):
    g, nu, q = labels.gamma, labels.nu, labels.q
    imgs = {
        "E1": g * E21, "E2": (1 / g) * E21,
        "F1": labels.alpha2 * g * labels.br_mu2 * E12,
        "F2": labels.alpha1 * (1 / g) * labels.br_mu1 * E12,
        "K0+": SuperMatrix(C11, C11, np.diag([q**-2, q**-1]), EVEN),
        "K0-": SuperMatrix(C11, C11, np.diag([q**2, q]), EVEN),
        "K1+": labels.qlam1 * ONE, "K1-": (1 / labels.qlam1) * ONE,
        "K2+": labels.qlam2 * ONE, "K2-": (1 / labels.qlam2) * ONE,
        "L1+": labels.qmu1 * ONE, "L1-": (1 / labels.qmu1) * ONE,
        "L2+": labels.qmu2 * ONE, "L2-": (1 / labels.qmu2) * ONE,
        "U+": nu * ONE, "U-": (1 / nu) * ONE,
    }
    return GeneratorImage.from_images(C11, imgs, alpha=labels.alpha, q=q, kind="q")


def ref_q_typical_from_powers(qlam1, qlam2, nu, q, alpha):
    a1, a2 = alpha
    qmu1, qmu2 = qlam1 * qlam2 * nu**2, qlam1 * qlam2 * nu**-2
    br = [qalgebra.qbracket_of_power(x, q) for x in (qlam1**2, qlam2**2, qmu1, qmu2)]
    space = algebra.KAC_SPACE
    imgs = {
        **dict(zip(("E1", "E2", "F1", "F2"),
                   ref_kac_odd_images(br[0], br[1], a1 * br[2], a2 * br[3]))),
        "K0+": SuperMatrix(space, space, np.diag([1.0, q**-1, q**-1, q**-2]), EVEN),
        "K0-": SuperMatrix(space, space, np.diag([1.0, q, q, q**2]), EVEN),
        "K1+": qlam1 * KAC_ONE, "K1-": (1 / qlam1) * KAC_ONE,
        "K2+": qlam2 * KAC_ONE, "K2-": (1 / qlam2) * KAC_ONE,
        "L1+": qmu1 * KAC_ONE, "L1-": (1 / qmu1) * KAC_ONE,
        "L2+": qmu2 * KAC_ONE, "L2-": (1 / qmu2) * KAC_ONE,
        "U+": nu * KAC_ONE, "U-": (1 / nu) * KAC_ONE,
    }
    return GeneratorImage.from_images(space, imgs, alpha=alpha, q=q, kind="q")


def ref_affine_eval_rep(labels, variant="standard", beta=1.0):
    base = ref_q_atypical_rep(labels)
    rho = (labels.nu**2 * labels.qlam1 / labels.qlam2
           - labels.nu**-2 * labels.qlam2 / labels.qlam1)
    lgap = {1: labels.qmu1 - 1 / labels.qmu1, 2: labels.qmu2 - 1 / labels.qmu2}
    imgs = {name: base[name] for name in
            ("E1", "E2", "F1", "F2", "K0+", "K0-", "K1+", "K1-", "K2+", "K2-", "U+", "U-")}
    if variant == "standard":
        pairs = {3: (1, 2), 4: (2, 1)}
        kmap = {"K3+": "K1-", "K3-": "K1+", "K4+": "K2-", "K4-": "K2+"}
        alpha = (labels.alpha1, labels.alpha2, labels.alpha1, labels.alpha2)
        vmap = {"V+": "U+", "V-": "U-"}
    else:
        pairs = {3: (2, 1), 4: (1, 2)}
        kmap = {"K3+": "K2-", "K3-": "K2+", "K4+": "K1-", "K4-": "K1+"}
        alpha = (labels.alpha1, labels.alpha2, labels.alpha2, labels.alpha1)
        vmap = {"V+": "U-", "V-": "U+"}
    for node, (i, j) in pairs.items():
        imgs[f"E{node}"] = (-beta * lgap[j] / rho) * base[f"E{i}"]
        imgs[f"F{node}"] = (beta * rho / lgap[j]) * base[f"F{i}"]
    for tgt, src in kmap.items():
        imgs[tgt] = base[src]
    for tgt, src in vmap.items():
        imgs[tgt] = beta * base[src]
    return AffineRep.from_images(base.space, imgs, alpha, labels.q, "affine",
                                 rho=rho, variant=variant, beta=beta)


def ref_twist(rows, name, rep):
    table, alpha_map = rows[name]
    imgs = {g: coeff * rep[src] for g, (src, coeff) in table.items()}
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return GeneratorImage.from_images(rep.space, imgs, alpha=alpha, q=rep.q, kind=rep.kind)


def word_product(rep, word):
    mat = rep[word[0]].m
    for name in word[1:]:
        mat = mat @ rep[name].m
    return mat


def l_image(rep, i, sign):
    return SuperMatrix(rep.space, rep.space, word_product(rep, _l_word(i, sign)), EVEN)


def ref_upper_nodes_subalgebra(rep):
    imgs = {
        "E1": rep["E3"], "E2": rep["E4"], "F1": rep["F3"], "F2": rep["F4"],
        "K0+": rep["K0+"], "K0-": rep["K0-"],
        "K1+": rep["K3+"], "K1-": rep["K3-"], "K2+": rep["K4+"], "K2-": rep["K4-"],
        "L1+": l_image(rep, 3, "+"), "L1-": l_image(rep, 3, "-"),
        "L2+": l_image(rep, 4, "+"), "L2-": l_image(rep, 4, "-"),
        "U+": rep["V+"], "U-": rep["V-"],
    }
    return GeneratorImage.from_images(rep.space, imgs, alpha=(rep.alpha[2], rep.alpha[3]),
                                      q=rep.q, kind="q")


# -- references: the bracket-table relation checkers ------------------------------------


def ref_bracket_table(stack, odd):
    odd = np.asarray(odd, dtype=bool)
    prod = stack[:, None] @ stack[None, :]
    sign = np.where(odd[:, None] & odd[None, :], -1.0, 1.0)
    return prod - sign[:, :, None, None] * prod.transpose(1, 0, 2, 3)


def ref_relation_images(rep, names, odd):
    x = np.stack([rep.images[n].m for n in names])
    table = ref_bracket_table(x, [n in odd for n in names])
    index = {n: i for i, n in enumerate(names)}
    return {n: x[i] for n, i in index.items()}, lambda a, b: table[index[a], index[b]]


def residuals(cases):
    return [float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max()) for _, lhs, rhs in cases]


def ref_check_relations(rep):
    im, comm = ref_relation_images(rep, CLASSICAL_NAMES, algebra._ODD_NAMES)
    zero = np.zeros((rep.space.dim, rep.space.dim))
    cases = [(f"[{a},{b}]{'-' if sign > 0 else '+'}{t}", comm(a, b), sign * im[t])
             for a, b, t, sign in algebra._BRACKETS]
    for a, b in (("e1", "e1"), ("e1", "e2"), ("e2", "e2"),
                 ("f1", "f1"), ("f1", "f2"), ("f2", "f2")):
        cases.append((f"[{a},{b}]", comm(a, b), zero))
    cases.append(("u+u- - 1", im["u+"] @ im["u-"], np.eye(rep.space.dim)))
    for c in ("h1", "h2", "k1", "k2", "u+", "u-"):
        for g in CLASSICAL_NAMES:
            cases.append((f"central:[{c},{g}]", comm(c, g), zero))
    if rep.alpha is not None:
        a1, a2 = rep.alpha
        usq = im["u+"] @ im["u+"] - im["u-"] @ im["u-"]
        cases.append(("k1 - alpha1(u^2-u^-2)", im["k1"], usq * a1))
        cases.append(("k2 - alpha2(u^2-u^-2)", im["k2"], usq * a2))
    return cases


def ref_ef_targets(im, q, alpha, nodes):
    qq = q - 1 / q
    out = {}
    for i in nodes:
        for j in nodes:
            if i == j:
                kp, km = im[f"K{i}+"], im[f"K{i}-"]
                out[f"E{i}", f"F{j}"] = (kp @ kp - km @ km) * (1 / qq)
            elif alpha is not None:
                out[f"E{i}", f"F{j}"] = (im[f"L{i}+"] - im[f"L{i}-"]) * (alpha[i - 1] / qq)
    return out


def ref_q_check_relations(rep):
    im, comm = ref_relation_images(rep, qalgebra.Q_NAMES, qalgebra._Q_ODD)
    q = rep.q
    one = np.eye(rep.space.dim)
    zero = np.zeros((rep.space.dim, rep.space.dim))
    cases = []
    for base in ("K0", "K1", "K2", "L1", "L2", "U"):
        plus, minus = f"{base}+", f"{base}-"
        cases.append((f"{plus}{minus} - 1", im[plus] @ im[minus], one))
    for a in ("E1", "E2"):
        cases.append((f"K0+ {a} K0- - q {a}", im["K0+"] @ im[a] @ im["K0-"], im[a] * q))
    for a in ("F1", "F2"):
        cases.append((f"K0- {a} K0+ - q {a}", im["K0-"] @ im[a] @ im["K0+"], im[a] * q))
    targets = ref_ef_targets(im, q, rep.alpha, (1, 2))
    cases += [(f"[{a},{b}]", comm(a, b), targets[a, b])
              for a, b in (("E1", "F1"), ("E2", "F2"), ("E1", "F2"), ("E2", "F1"))
              if (a, b) in targets]
    for a, b in (("E1", "E1"), ("E1", "E2"), ("E2", "E2"),
                 ("F1", "F1"), ("F1", "F2"), ("F2", "F2")):
        cases.append((f"[{a},{b}]", comm(a, b), zero))
    cases.append(("L1+ - K1+K2+U^2", im["L1+"], im["K1+"] @ im["K2+"] @ im["U+"] @ im["U+"]))
    cases.append(("L2+ - K1+K2+U^-2", im["L2+"], im["K1+"] @ im["K2+"] @ im["U-"] @ im["U-"]))
    cases.append(("L1- - K1-K2-U^-2", im["L1-"], im["K1-"] @ im["K2-"] @ im["U-"] @ im["U-"]))
    cases.append(("L2- - K1-K2-U^2", im["L2-"], im["K1-"] @ im["K2-"] @ im["U+"] @ im["U+"]))
    for c in ("K1+", "K1-", "K2+", "K2-", "L1+", "L1-", "L2+", "L2-", "U+", "U-"):
        for g in ("E1", "E2", "F1", "F2", "K0+", "K0-"):
            cases.append((f"central:[{c},{g}]", comm(c, g), zero))
    return cases


def ref_affine_relations_report(rep):
    im, comm = ref_relation_images(rep, AFFINE_NAMES, qaffine._AFF_ODD)
    q = rep.q
    qq = q - 1 / q
    one = np.eye(rep.space.dim)
    zero = np.zeros((rep.space.dim, rep.space.dim))
    cases = []

    def even_comm(a, b):
        return a @ b - b @ a

    def l_word(i, sign):
        return word_product(rep, _l_word(i, sign))

    for base in ("K0", "K1", "K2", "K3", "K4", "U", "V"):
        cases.append((f"{base}+{base}- - 1", im[f"{base}+"] @ im[f"{base}-"], one))
    for i in range(1, 5):
        cases.append((f"K0+ E{i} K0- - q E{i}",
                      im["K0+"] @ im[f"E{i}"] @ im["K0-"], im[f"E{i}"] * q))
        cases.append((f"K0- F{i} K0+ - q F{i}",
                      im["K0-"] @ im[f"F{i}"] @ im["K0+"], im[f"F{i}"] * q))
    for block in ((1, 2), (3, 4)):
        words = {f"L{i}{sign}": l_word(i, sign) for i in block for sign in "+-"}
        targets = ref_ef_targets(im | words, q, rep.alpha, block)
        cases += [(f"[E{i},F{j}]", comm(f"E{i}", f"F{j}"), targets[f"E{i}", f"F{j}"])
                  for i in block for j in block]
    kplus = im["K1+"] @ im["K2+"] @ im["K3+"] @ im["K4+"]
    kminus = im["K1-"] @ im["K2-"] @ im["K3-"] @ im["K4-"]
    if rep.variant == "standard":
        cases.append(("[[E3,F2],[E4,F1]] - (K+-K-)/(q-1/q)",
                      even_comm(comm("E3", "F2"), comm("E4", "F1")),
                      (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lp = l_word(i, "+") @ l_word(j + 2, "+")
            lm = l_word(i, "-") @ l_word(j + 2, "-")
            cases.append((f"[[E{i},F{i+2}],[E{j+2},F{j}]] - L-line",
                          even_comm(comm(f"E{i}", f"F{i+2}"), comm(f"E{j+2}", f"F{j}")),
                          (lp - lm) * (1 / qq)))
        compat = [(i, j + 2, "V+", "V-") for i, j in ((1, 2), (2, 1))]
    else:
        cases.append(("[[E3,F1],[E4,F2]] - (K+-K-)/(q-1/q)",
                      even_comm(comm("E3", "F1"), comm("E4", "F2")),
                      (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lp = l_word(i, "+") @ l_word(i + 2, "+")
            lm = l_word(i, "-") @ l_word(i + 2, "-")
            cases.append((f"[[E{i},F{j+2}],[E{i+2},F{i}]] - L-line",
                          even_comm(comm(f"E{i}", f"F{j+2}"), comm(f"E{i+2}", f"F{i}")),
                          (lp - lm) * (1 / qq)))
        compat = [(i, i + 2, "V-", "V+") for i in (1, 2)]
    for i, k, vp, vm in compat:
        uv_p, uv_m = im["U+"] @ im[vp], im["U-"] @ im[vm]
        kk_p, kk_m = im[f"K{i}+"] @ im[f"K{k}+"], im[f"K{i}-"] @ im[f"K{k}-"]
        if node_sign(i) == -1:  # (K_i^+ K_k^+)^{-1} read as the K^- word
            kk_p, kk_m = kk_m, kk_p
        target = (uv_p @ kk_p - uv_m @ kk_m) * (rep.alpha[i - 1] / qq)
        cases.append((f"[E{i},F{k}] - compatibility", comm(f"E{i}", f"F{k}"), target))
    for i in range(1, 5):
        for j in range(i, 5):
            cases.append((f"[E{i},E{j}]", comm(f"E{i}", f"E{j}"), zero))
            cases.append((f"[F{i},F{j}]", comm(f"F{i}", f"F{j}"), zero))
    for c in GROUP_LIKE[2:]:
        for g in ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"):
            cases.append((f"central:[{c},{g}]", comm(c, g), zero))
    cases.append(("ev(K+) - 1", kplus, one))
    cases.append(("ev(K-) - 1", kminus, one))
    return cases


# -- suite-drawn modules ------------------------------------------------------------------


def draws(seed):
    """Labels as the hopf and affine suites draw them."""
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    labels = suites.draw_labels(rng, alpha)
    q = suites.draw_q(rng)
    qlabels = suites.draw_qlabels(rng, q, suites.draw_alpha(rng))
    return labels, qlabels


def module_pairs(seed):
    """(built, reference) for every stack builder and twist on one draw, by the
    relation checker that takes the module."""
    labels, ql = draws(seed)
    rep, qrep = algebra.atypical_rep(labels), qalgebra.q_atypical_rep(ql)
    lam1, lam2 = 1.3 - 0.2j + 0.1 * seed, 0.7 + 0.4j
    k1, k2 = ql.qlam1 * 1.1, ql.qlam2 * (0.9 + 0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", algebra.AtypicalLocusWarning)
        typical = (algebra.typical_rep(lam1, lam2, labels.nu, labels.alpha),
                   ref_typical_rep(lam1, lam2, labels.nu, labels.alpha))
        q_typical = (qalgebra.q_typical_from_powers(k1, k2, ql.nu, ql.q, ql.alpha),
                     ref_q_typical_from_powers(k1, k2, ql.nu, ql.q, ql.alpha))
    pairs = {
        "classical": [(rep, ref_atypical_rep(labels)), typical]
        + [(algebra.klein_twist(name, rep), ref_twist(algebra.KLEIN_ROWS, name, rep))
           for name in algebra.KLEIN_ROWS],
        "q": [(qrep, ref_q_atypical_rep(ql)), q_typical]
        + [(algebra.klein_twist(name, qrep), ref_twist(qalgebra.Q_KLEIN_ROWS, name, qrep))
           for name in qalgebra.Q_KLEIN_ROWS],
        "affine": []}
    for variant, beta in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0)):
        aff = qaffine.affine_eval_rep(ql, variant, beta)
        pairs["affine"].append((aff, ref_affine_eval_rep(ql, variant, beta)))
        pairs["q"].append((qaffine.upper_nodes_subalgebra(aff), ref_upper_nodes_subalgebra(aff)))
    return pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_every_builder_equals_its_supermatrix_reference(seed):
    pairs = module_pairs(seed)
    for got, want in (pair for group in pairs.values() for pair in group):
        assert isinstance(got, GeneratorImage)
        # the affine module now lists its images in table order
        assert sorted(got.names) == sorted(want.names)
        assert np.array_equal(got.stack, np.stack([want.images[n].m for n in got.names]))
        assert got.parity == tuple(want.images[n].parity for n in got.names)
        assert (got.space, got.alpha, got.q, got.kind) == (want.space, want.alpha, want.q,
                                                           want.kind)
        assert not got.stack.flags.writeable
    # the serialized atypical modules keep every byte, signed zeros included
    for got, want in (pairs["classical"][0], pairs["q"][0]):
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


CHECKERS = [
    (algebra.check_relations, ref_check_relations, "classical"),
    (qalgebra.q_check_relations, ref_q_check_relations, "q"),
    (qaffine.affine_relations_report, ref_affine_relations_report, "affine"),
]


@pytest.mark.parametrize("checker, reference, kind", CHECKERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_residual_equals_the_bracket_table_checker(checker, reference, kind, seed):
    for rep, _ in module_pairs(seed)[kind]:
        got = checker(rep)
        cases = reference(rep)
        assert got.names == [name for name, _, _ in cases]
        assert got.residuals == residuals(cases)


def test_a_checker_without_couplings_drops_the_coupled_lines():
    labels, ql = draws(3)
    for checker, reference, rep in (
            (algebra.check_relations, ref_check_relations, algebra.atypical_rep(labels)),
            (qalgebra.q_check_relations, ref_q_check_relations, qalgebra.q_atypical_rep(ql))):
        bare = GeneratorImage(rep.space, rep.names, rep.stack, rep.parity, None, rep.q, rep.kind)
        cases = reference(bare)
        got = checker(bare)
        assert len(cases) < len(checker(rep).names)
        assert got.names == [name for name, _, _ in cases]
        assert got.residuals == residuals(cases)


def test_the_mapping_constructor_stacks_once_and_views_on_access():
    labels, _ = draws(0)
    rep = algebra.atypical_rep(labels)
    again = GeneratorImage.from_images(rep.space, dict(rep.images), alpha=rep.alpha)
    assert np.array_equal(again.stack, rep.stack) and again.names == rep.names
    assert again.parity == rep.parity and not again.stack.flags.writeable
    with pytest.raises(ValueError, match="not an operator on the carrier space"):
        GeneratorImage.from_images(algebra.KAC_SPACE, rep.images)
    view = rep["e1"]
    assert isinstance(view, SuperMatrix) and view.parity == ODD
    assert np.array_equal(view.m, rep.stack[0]) and not view.m.flags.writeable
    assert "e1" in rep.images and "E1" not in rep.images
    with pytest.raises(TypeError):
        rep.images["e1"] = view
    with pytest.raises(KeyError, match="missing generator images: \\['x'\\]"):
        rep.gather(("e1", "x"))


def test_suite_samples_build_few_supermatrices(monkeypatch):
    # a hopf, affine and singlet sample built 462 SuperMatrix objects when
    # every image was one
    made = []
    post_init = graded.SuperMatrix.__post_init__

    def counted(self):
        made.append(1)
        post_init(self)
    monkeypatch.setattr(graded.SuperMatrix, "__post_init__", counted)
    for name in ("hopf", "affine", "singlet"):
        suites.run_recorded(name, samples=1, seed=11)
    assert len(made) < 20
