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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coproduct import (CoproductTable, coproduct_matrix, coproduct_stack,
                        word_matrix)
from .graded import (EVEN, ODD, GradedSpace, SuperMatrix, graded_comm,
                     graded_kron, identity, max_abs, zeros)
from .qalgebra import QRepLabels, q_atypical_rep
from .algebra import GeneratorImage
from .report import Report

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
class AffineRep:
    """Evaluation module of the affine algebra."""

    space: GradedSpace
    images: Mapping[str, SuperMatrix]
    alpha: tuple[complex, complex, complex, complex]
    q: complex
    rho: complex
    variant: str = "standard"
    beta: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "images", MappingProxyType(dict(self.images)))

    def __getitem__(self, name: str) -> SuperMatrix:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    @property
    def names(self):
        return tuple(self.images)

    def l_image(self, i: int, sign: str) -> SuperMatrix:
        """L_i^{+-} assembled from the Cartan and group-like images.

        For i in {1,2}: L_i^{+-} = (U^{+-2})^{(i)} K1^{+-} K2^{+-};
        for i in {3,4}: same with V and the upper node pair.
        """
        other = "-" if sign == "+" else "+"
        if i in (1, 2):
            dress, ka, kb = "U", "K1", "K2"
        elif i in (3, 4):
            dress, ka, kb = "V", "K3", "K4"
        else:
            raise ValueError("node index out of range")
        s = sign if node_sign(i) == 1 else other
        d = self[f"{dress}{s}"]
        return d @ d @ self[f"{ka}{sign}"] @ self[f"{kb}{sign}"]


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
    return AffineRep(base.space, imgs, alpha, labels.q, rho, variant, beta)


def alt_affinization(labels: QRepLabels, variant: str = "standard") -> AffineRep:
    """Alternative evaluation modules: ``standard``, node-``swapped``, or
    ``beta-sign`` (the V -> -U dressing with matching odd-node signs)."""
    if variant == "beta-sign":
        return affine_eval_rep(labels, "standard", beta=-1.0)
    return affine_eval_rep(labels, variant)


def affine_relations_report(rep: AffineRep, tolerance: float = 1e-11) -> Report:
    """Residuals of the affine defining relations, Serre and compatibility lines
    included, for the variant the representation was built with."""
    missing = [n for n in AFFINE_NAMES if n not in rep.names]
    if missing:
        raise KeyError(f"missing generator images: {missing}")
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

    # sl(1|1)^2 blocks on nodes {1,2} and {3,4}
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
    # quantum Serre lines and the compatibility relation
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
    # triviality of same-chirality brackets across all four nodes
    for i in range(1, 5):
        for j in range(i, 5):
            r.add(f"[E{i},E{j}]", max_abs(comm(f"E{i}", f"E{j}")))
            r.add(f"[F{i},F{j}]", max_abs(comm(f"F{i}", f"F{j}")))
    # centrality of the Cartan/group-like elements
    for c in GROUP_LIKE:
        if c in ("K0+", "K0-"):
            continue
        for g in ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"):
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], EVEN, ODD)))
    # evaluation collapses the full Cartan product to 1
    r.add("ev(K+) - 1", max_abs(kplus - one))
    r.add("ev(K-) - 1", max_abs(kminus - one))
    return r


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
AFFINE_COPRODUCT = CoproductTable({name: _aff_terms[name] for name in AFFINE_NAMES})


def affine_coproduct_image(name: str, rep_a: AffineRep, rep_b: AffineRep,
                           opposite: bool = False) -> SuperMatrix:
    """Matrix of the affine coproduct: U-dressing on nodes 1,2 and V-dressing
    on nodes 3,4; all fourteen Cartan/group-like elements are group-like."""
    return coproduct_matrix(AFFINE_COPRODUCT, name, rep_a, rep_b, opposite)


def affine_coassociativity_report(rep_a: AffineRep, rep_b: AffineRep,
                                  rep_c: AffineRep, tolerance: float = 1e-10) -> Report:
    r = Report("affine-coassociativity", tolerance)
    for name in AFFINE_NAMES:
        space3 = rep_a.space.tensor(rep_b.space).tensor(rep_c.space)
        left = zeros(space3, space3, None)
        right = left
        for coeff, lf, rf in AFFINE_COPRODUCT.terms[name]:
            dl = identity(rep_a.space.tensor(rep_b.space))
            for n in lf:
                dl = dl @ affine_coproduct_image(n, rep_a, rep_b)
            left = left + coeff * graded_kron(dl, word_matrix(rep_c, rf))
            dr = identity(rep_b.space.tensor(rep_c.space))
            for n in rf:
                dr = dr @ affine_coproduct_image(n, rep_b, rep_c)
            right = right + coeff * graded_kron(word_matrix(rep_a, lf), dr)
        r.add(f"coassoc:{name}", max_abs(left - right))
    return r


def affine_hom_report(rep_a: AffineRep, rep_b: AffineRep,
                      tolerance: float = 1e-10) -> Report:
    """Coproduct homomorphism residual on the compatibility relation."""
    if rep_a.variant != "standard" or rep_b.variant != "standard":
        raise ValueError("the coproduct check runs on the standard variant")
    q = rep_a.q
    qq = q - 1 / q

    def cop(n, opp=False):
        return affine_coproduct_image(n, rep_a, rep_b, opp)

    r = Report("affine-coproduct-homomorphism", tolerance)
    for i, j in ((1, 2), (2, 1)):
        s = node_sign(i)
        lhs = graded_comm(cop(f"E{i}"), cop(f"F{j+2}"), ODD, ODD)
        uv_p = cop("U+") @ cop("V+")
        uv_m = cop("U-") @ cop("V-")
        if s == 1:
            kk_p = cop(f"K{i}+") @ cop(f"K{j+2}+")
            kk_m = cop(f"K{i}-") @ cop(f"K{j+2}-")
        else:
            kk_p = cop(f"K{i}-") @ cop(f"K{j+2}-")
            kk_m = cop(f"K{i}+") @ cop(f"K{j+2}+")
        rhs = (rep_a.alpha[i - 1] / qq) * (uv_p @ kk_p - uv_m @ kk_m)
        r.add(f"hom:[E{i},F{j+2}]", max_abs(lhs - rhs))
    return r


def affine_intertwine(labels_a: QRepLabels, labels_b: QRepLabels,
                      variant: str = "standard", beta: complex = 1.0,
                      tolerance: float = 1e-9) -> Report:
    """The deformed R-matrix intertwines the affine coproducts for every node."""
    from .rmatrix import rq_closed
    rep_a = affine_eval_rep(labels_a, variant, beta)
    rep_b = affine_eval_rep(labels_b, variant, beta)
    rmat = rq_closed(labels_a, labels_b).m
    d = coproduct_stack(AFFINE_COPRODUCT, rep_a, rep_b)
    dop = coproduct_stack(AFFINE_COPRODUCT, rep_a, rep_b, opposite=True)
    residuals = np.abs(dop @ rmat - rmat @ d).max(axis=(1, 2))
    r = Report("affine-intertwining", tolerance)
    for name, res in zip(AFFINE_COPRODUCT.names, residuals):
        r.add(f"intertwine:{name}", res)
    return r


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
