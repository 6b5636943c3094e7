"""Quantum affine extension: four odd node pairs over the deformed algebra.

The affine algebra doubles the node set of the deformed algebra (E_i, F_i
for i = 1..4, Cartan elements K_i^{+-} for i = 0..4, and group-like U, V),
with quantum Serre relations and a compatibility relation coupling the two
halves through the (i) = (-1)^{i-1} exponent convention.  Everything is
realized through the evaluation map onto a deformed atypical module:

    E_{i+2} -> -rho^{-1} (L_j^+ - L_j^-) E_i,   F_{i+2} -> rho (L_j^+ - L_j^-)^{-1} F_i,
    K_{i+2}^{+-} -> K_i^{-+},                    V^{+-} -> U^{+-},

with rho the scalar of U^2 K1^+ K2^- - U^{-2} K1^- K2^+.  Two variants are
implemented: the node-swapped evaluation, and the beta-signed one (beta^2=1)
where V maps to beta U and the odd-node normalizations carry the same beta.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .coproduct import CoproductTable, coproduct_matrix, coproduct_stack, word_product
from .graded import EVEN, SuperMatrix
from .qalgebra import QRepLabels, _ef_targets, q_atypical_rep
from .algebra import GeneratorImage, coassociativity_checker, relation_images
from .report import Report, residual_report
from .rmatrix import rq_closed

AFFINE_NAMES = ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4",
                "K0+", "K0-", "K1+", "K1-", "K2+", "K2-", "K3+", "K3-",
                "K4+", "K4-", "U+", "U-", "V+", "V-")
_AFF_ODD = frozenset({"E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"})
GROUP_LIKE = ("K0+", "K0-", "K1+", "K1-", "K2+", "K2-", "K3+", "K3-",
              "K4+", "K4-", "U+", "U-", "V+", "V-")

#: exponent convention (i) = (-1)^{i-1} used in the mixed relations
def node_sign(i: int) -> int:
    return 1 if i % 2 == 1 else -1


@dataclass(frozen=True, eq=False)
class AffineRep(GeneratorImage):
    """Evaluation module of the affine algebra: the images, the couplings
    (alpha1..alpha4) and q, with the evaluation scalar ``rho`` and the
    ``variant`` and ``beta`` the module was built with."""

    _: KW_ONLY
    rho: complex
    variant: str = "standard"
    beta: complex = 1.0

    def l_image(self, i: int, sign: str) -> SuperMatrix:
        """L_i^{+-} assembled from the Cartan and group-like images.

        For i in {1,2}: L_i^{+-} = (U^{+-2})^{(i)} K1^{+-} K2^{+-};
        for i in {3,4}: same with V and the upper node pair.
        """
        return SuperMatrix(self.space, self.space, word_product(self, _l_word(i, sign)), EVEN)


def _l_word(i: int, sign: str) -> tuple[str, str, str, str]:
    """The generator word whose product is L_i^{+-} (see :meth:`AffineRep.l_image`)."""
    other = "-" if sign == "+" else "+"
    if i in (1, 2):
        dress, ka, kb = "U", "K1", "K2"
    elif i in (3, 4):
        dress, ka, kb = "V", "K3", "K4"
    else:
        raise ValueError("node index out of range")
    s = sign if node_sign(i) == 1 else other
    return (f"{dress}{s}", f"{dress}{s}", f"{ka}{sign}", f"{kb}{sign}")


def affine_eval_rep(labels: QRepLabels, variant: str = "standard",
                    beta: complex = 1.0) -> AffineRep:
    """Build the affine evaluation module on a deformed atypical representation."""
    if variant not in ("standard", "swapped"):
        raise ValueError("variant must be 'standard' or 'swapped'")
    if abs(beta * beta - 1.0) > 1e-12:
        raise ValueError("beta must square to 1")
    base = q_atypical_rep(labels)
    rho = (labels.nu**2 * labels.qlam1 / labels.qlam2
           - labels.nu**-2 * labels.qlam2 / labels.qlam1)
    if abs(rho) < 1e-12:
        raise ValueError("the evaluation scalar rho vanishes at this point")
    lgap = {1: labels.qmu1 - 1 / labels.qmu1, 2: labels.qmu2 - 1 / labels.qmu2}
    imgs = {name: base[name] for name in
            ("E1", "E2", "F1", "F2", "K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
             "U+", "U-")}
    if variant == "standard":
        # E_{i+2} from E_i with the complementary central gap
        pairs = {3: (1, 2), 4: (2, 1)}   # node -> (base node i, gap node j)
        kmap = {"K3+": "K1-", "K3-": "K1+", "K4+": "K2-", "K4-": "K2+"}
        alpha = (labels.alpha1, labels.alpha2, labels.alpha1, labels.alpha2)
    else:
        pairs = {3: (2, 1), 4: (1, 2)}
        kmap = {"K3+": "K2-", "K3-": "K2+", "K4+": "K1-", "K4-": "K1+"}
        alpha = (labels.alpha1, labels.alpha2, labels.alpha2, labels.alpha1)
    for node, (i, j) in pairs.items():
        imgs[f"E{node}"] = (-beta * lgap[j] / rho) * base[f"E{i}"]
        imgs[f"F{node}"] = (beta * rho / lgap[j]) * base[f"F{i}"]
    for tgt, src in kmap.items():
        imgs[tgt] = base[src]
    if variant == "standard":
        imgs["V+"] = beta * base["U+"]
        imgs["V-"] = beta * base["U-"]
    else:
        imgs["V+"] = beta * base["U-"]
        imgs["V-"] = beta * base["U+"]
    return AffineRep(base.space, imgs, alpha, labels.q, "affine",
                     rho=rho, variant=variant, beta=beta)


def alt_affinization(labels: QRepLabels, variant: str = "standard") -> AffineRep:
    """Alternative evaluation modules: ``standard``, node-``swapped``, or
    ``beta-sign`` (the V -> -U dressing with matching odd-node signs)."""
    if variant == "beta-sign":
        return affine_eval_rep(labels, "standard", beta=-1.0)
    return affine_eval_rep(labels, variant)


def affine_relations_report(rep: AffineRep, tolerance: float = 1e-11) -> Report:
    """Residuals of the affine defining relations, Serre and compatibility lines
    included, for the variant the representation was built with.
    """
    im, comm = relation_images(rep, AFFINE_NAMES, _AFF_ODD)
    q = rep.q
    qq = q - 1 / q
    one = np.eye(rep.space.dim)
    zero = np.zeros((rep.space.dim, rep.space.dim))
    cases = []

    def even_comm(a, b):
        return a @ b - b @ a

    def l_image(i, sign):
        return word_product(rep, _l_word(i, sign))

    # scalars multiply matrices on the right, as in SuperMatrix: numpy can
    # round scalar * matrix differently in the last bit
    for base in ("K0", "K1", "K2", "K3", "K4", "U", "V"):
        cases.append((f"{base}+{base}- - 1", im[f"{base}+"] @ im[f"{base}-"], one))
    for i in range(1, 5):
        cases.append((f"K0+ E{i} K0- - q E{i}",
                      im["K0+"] @ im[f"E{i}"] @ im["K0-"], im[f"E{i}"] * q))
        cases.append((f"K0- F{i} K0+ - q F{i}",
                      im["K0-"] @ im[f"F{i}"] @ im["K0+"], im[f"F{i}"] * q))
    # sl(1|1)^2 blocks on nodes {1,2} and {3,4}
    for block in ((1, 2), (3, 4)):
        words = {f"L{i}{sign}": l_image(i, sign) for i in block for sign in "+-"}
        targets = _ef_targets(im | words, q, rep.alpha, block)
        cases += [(f"[E{i},F{j}]", comm(f"E{i}", f"F{j}"), targets[f"E{i}", f"F{j}"])
                  for i in block for j in block]
    # quantum Serre lines and the compatibility relation
    kplus = im["K1+"] @ im["K2+"] @ im["K3+"] @ im["K4+"]
    kminus = im["K1-"] @ im["K2-"] @ im["K3-"] @ im["K4-"]
    if rep.variant == "standard":
        cases.append(("[[E3,F2],[E4,F1]] - (K+-K-)/(q-1/q)",
                      even_comm(comm("E3", "F2"), comm("E4", "F1")),
                      (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lp = l_image(i, "+") @ l_image(j + 2, "+")
            lm = l_image(i, "-") @ l_image(j + 2, "-")
            cases.append((f"[[E{i},F{i+2}],[E{j+2},F{j}]] - L-line",
                          even_comm(comm(f"E{i}", f"F{i+2}"), comm(f"E{j+2}", f"F{j}")),
                          (lp - lm) * (1 / qq)))
        compat = [(i, j + 2, "V+", "V-") for i, j in ((1, 2), (2, 1))]
    else:
        cases.append(("[[E3,F1],[E4,F2]] - (K+-K-)/(q-1/q)",
                      even_comm(comm("E3", "F1"), comm("E4", "F2")),
                      (kplus - kminus) * (1 / qq)))
        for i, j in ((1, 2), (2, 1)):
            lp = l_image(i, "+") @ l_image(i + 2, "+")
            lm = l_image(i, "-") @ l_image(i + 2, "-")
            cases.append((f"[[E{i},F{j+2}],[E{i+2},F{i}]] - L-line",
                          even_comm(comm(f"E{i}", f"F{j+2}"), comm(f"E{i+2}", f"F{i}")),
                          (lp - lm) * (1 / qq)))
        compat = [(i, i + 2, "V-", "V+") for i in (1, 2)]
    for i, k, vp, vm in compat:
        uv_p, uv_m = im["U+"] @ im[vp], im["U-"] @ im[vm]
        kk_p, kk_m = im[f"K{i}+"] @ im[f"K{k}+"], im[f"K{i}-"] @ im[f"K{k}-"]
        if node_sign(i) == -1:
            kk_p, kk_m = np.linalg.inv(kk_p), np.linalg.inv(kk_m)
        target = (uv_p @ kk_p - uv_m @ kk_m) * (rep.alpha[i - 1] / qq)
        cases.append((f"[E{i},F{k}] - compatibility", comm(f"E{i}", f"F{k}"), target))
    # triviality of same-chirality brackets across all four nodes
    for i in range(1, 5):
        for j in range(i, 5):
            cases.append((f"[E{i},E{j}]", comm(f"E{i}", f"E{j}"), zero))
            cases.append((f"[F{i},F{j}]", comm(f"F{i}", f"F{j}"), zero))
    # centrality of the Cartan/group-like elements
    for c in GROUP_LIKE:
        if c in ("K0+", "K0-"):
            continue
        for g in ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"):
            cases.append((f"central:[{c},{g}]", comm(c, g), zero))
    # evaluation collapses the full Cartan product to 1
    cases.append(("ev(K+) - 1", kplus, one))
    cases.append(("ev(K-) - 1", kminus, one))
    return residual_report("affine-relations", tolerance, *zip(*cases))


# -- coproduct ------------------------------------------------------------------

_aff_terms: dict[str, tuple] = {}
for _i, _dress in ((1, "U"), (2, "U"), (3, "V"), (4, "V")):
    _p, _m = (f"{_dress}+", f"{_dress}-") if node_sign(_i) == 1 else (f"{_dress}-", f"{_dress}+")
    _aff_terms[f"E{_i}"] = ((1, (f"E{_i}",), (_m, f"K{_i}-")),
                            (1, (_p, f"K{_i}+"), (f"E{_i}",)))
    _aff_terms[f"F{_i}"] = ((1, (f"F{_i}",), (_p, f"K{_i}-")),
                            (1, (_m, f"K{_i}+"), (f"F{_i}",)))
for _c in GROUP_LIKE:
    _aff_terms[_c] = ((1, (_c,), (_c,)),)
AFFINE_COPRODUCT = CoproductTable(
    {name: _aff_terms[name] for name in AFFINE_NAMES},
    inverses={c: c[:-1] + ("-" if c.endswith("+") else "+") for c in GROUP_LIKE})


def affine_coproduct_image(name: str, rep_a: AffineRep, rep_b: AffineRep,
                           opposite: bool = False) -> SuperMatrix:
    """Matrix of the affine coproduct: U-dressing on nodes 1,2 and V-dressing
    on nodes 3,4; all fourteen Cartan/group-like elements are group-like."""
    return coproduct_matrix(AFFINE_COPRODUCT, name, rep_a, rep_b, opposite)


affine_coassociativity_report = coassociativity_checker(AFFINE_COPRODUCT,
                                                        "affine-coassociativity")


def affine_hom_report(rep_a: AffineRep, rep_b: AffineRep,
                      tolerance: float = 1e-10) -> Report:
    """Coproduct homomorphism residual on the compatibility relation."""
    if rep_a.variant != "standard" or rep_b.variant != "standard":
        raise ValueError("the coproduct check runs on the standard variant")
    qq = rep_a.q - 1 / rep_a.q
    d = dict(zip(AFFINE_COPRODUCT.names, coproduct_stack(AFFINE_COPRODUCT, rep_a, rep_b)))
    names, lhs, rhs = [], [], []
    for i, j in ((1, 2), (2, 1)):
        e, f = d[f"E{i}"], d[f"F{j+2}"]
        uv_p, uv_m = d["U+"] @ d["V+"], d["U-"] @ d["V-"]
        # the lower node sign (i) picks which Cartan pair dresses U V
        kp, km = ("+", "-") if node_sign(i) == 1 else ("-", "+")
        kk_p = d[f"K{i}{kp}"] @ d[f"K{j+2}{kp}"]
        kk_m = d[f"K{i}{km}"] @ d[f"K{j+2}{km}"]
        names.append(f"hom:[E{i},F{j+2}]")
        lhs.append(e @ f + f @ e)
        # matrix * scalar, the order SuperMatrix uses
        rhs.append((uv_p @ kk_p - uv_m @ kk_m) * (rep_a.alpha[i - 1] / qq))
    return residual_report("affine-coproduct-homomorphism", tolerance, names, lhs, rhs)


def affine_intertwine(labels_a: QRepLabels, labels_b: QRepLabels,
                      variant: str = "standard", beta: complex = 1.0,
                      tolerance: float = 1e-9) -> Report:
    """The deformed R-matrix intertwines the affine coproducts for every node."""
    rep_a = affine_eval_rep(labels_a, variant, beta)
    rep_b = affine_eval_rep(labels_b, variant, beta)
    return _pair_intertwine(rep_a, rep_b, labels_a, labels_b, tolerance)


def _pair_intertwine(rep_a: AffineRep, rep_b: AffineRep, labels_a: QRepLabels,
                     labels_b: QRepLabels, tolerance: float = 1e-9) -> Report:
    """:func:`affine_intertwine` on evaluation modules already built from the
    labels, so their memoised coproduct stacks are read, not rebuilt."""
    rmat = rq_closed(labels_a, labels_b).m
    d = coproduct_stack(AFFINE_COPRODUCT, rep_a, rep_b)
    dop = coproduct_stack(AFFINE_COPRODUCT, rep_a, rep_b, opposite=True)
    return residual_report("affine-intertwining", tolerance,
                           [f"intertwine:{name}" for name in AFFINE_COPRODUCT.names],
                           dop @ rmat, rmat @ d)


def upper_nodes_subalgebra(rep: AffineRep) -> GeneratorImage:
    """Nodes {3,4} with V as a copy of the deformed algebra.

    The L images are assembled from the Cartan data, so the returned
    representation can be fed straight to the deformed relation checker.
    """
    imgs = {
        "E1": rep["E3"], "E2": rep["E4"], "F1": rep["F3"], "F2": rep["F4"],
        "K0+": rep["K0+"], "K0-": rep["K0-"],
        "K1+": rep["K3+"], "K1-": rep["K3-"], "K2+": rep["K4+"], "K2-": rep["K4-"],
        "L1+": rep.l_image(3, "+"), "L1-": rep.l_image(3, "-"),
        "L2+": rep.l_image(4, "+"), "L2-": rep.l_image(4, "-"),
        "U+": rep["V+"], "U-": rep["V-"],
    }
    return GeneratorImage(rep.space, imgs, alpha=(rep.alpha[2], rep.alpha[3]),
                          q=rep.q, kind="q")
