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

from .coproduct import (ALGEBRAS, Algebra, CoproductTable, coproduct_matrix, coproduct_stack,
                        memoised_by_labels, spell, word_stack)
from .graded import EVEN, ODD, SuperMatrix
from .qalgebra import Q_NAMES, QRepLabels, _Q_PARITY, ef_relation, q_atypical_rep
from .algebra import GeneratorImage, RelationTable, label_scalar
from .report import Report
from .rmatrix import intertwining_report, rq_closed

AFFINE_NAMES = ("E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4",
                "K0+", "K0-", "K1+", "K1-", "K2+", "K2-", "K3+", "K3-",
                "K4+", "K4-", "U+", "U-", "V+", "V-")
_AFF_ODD = frozenset({"E1", "E2", "E3", "E4", "F1", "F2", "F3", "F4"})
GROUP_LIKE = ("K0+", "K0-", "K1+", "K1-", "K2+", "K2-", "K3+", "K3-",
              "K4+", "K4-", "U+", "U-", "V+", "V-")
_AFF_PARITY = tuple(ODD if name in _AFF_ODD else EVEN for name in AFFINE_NAMES)

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
        word = word_stack(self.gather(AFFINE_NAMES), spell(AFFINE_NAMES, [_l_word(i, sign)]))
        return SuperMatrix(self.space, self.space, word[0], EVEN)


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


#: Per variant, the deformed image each affine image is read from, in
#: ``AFFINE_NAMES`` order: E_{i+2}, F_{i+2} from the base node i, K_{i+2}^{+-}
#: from K^{-+}, V from U; and the gap node j of E3 and of E4.
_EVAL_SOURCES = {
    "standard": (("E1", "E2", "E1", "E2", "F1", "F2", "F1", "F2", "K0+", "K0-", "K1+", "K1-",
                  "K2+", "K2-", "K1-", "K1+", "K2-", "K2+", "U+", "U-", "U+", "U-"), (2, 1)),
    "swapped": (("E1", "E2", "E2", "E1", "F1", "F2", "F2", "F1", "K0+", "K0-", "K1+", "K1-",
                 "K2+", "K2-", "K2-", "K2+", "K1-", "K1+", "U+", "U-", "U-", "U+"), (1, 2)),
}
_SCALED = [AFFINE_NAMES.index(name) for name in ("E3", "E4", "F3", "F4", "V+", "V-")]


def affine_eval_rep(labels: QRepLabels, variant: str = "standard",
                    beta: complex = 1.0) -> AffineRep:
    """Build the affine evaluation module on a deformed atypical representation; memoised."""
    # positional, normalised arguments: one module object whatever the call form
    return _affine_eval(labels, variant, label_scalar(beta))


@memoised_by_labels
def _affine_eval(labels: QRepLabels, variant: str, beta: complex) -> AffineRep:
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
    sources, (j3, j4) = _EVAL_SOURCES[variant]
    stack = base.gather(sources)
    # E_{i+2} from E_i with the complementary central gap, V from beta U
    stack[_SCALED] *= np.array([-beta * lgap[j3] / rho, -beta * lgap[j4] / rho,
                                beta * rho / lgap[j3], beta * rho / lgap[j4],
                                beta, beta])[:, None, None]
    # nodes 3 and 4 couple as their base nodes, the complements of their gap nodes
    alpha = (*labels.alpha, labels.alpha[2 - j3], labels.alpha[2 - j4])
    return AffineRep(base.space, AFFINE_NAMES, stack, _AFF_PARITY, alpha, labels.q, "affine",
                     rho=rho, variant=variant, beta=beta)


def alt_affinization(labels: QRepLabels, variant: str = "standard") -> AffineRep:
    """Alternative evaluation modules: ``standard``, node-``swapped``, or
    ``beta-sign`` (the V -> -U dressing with matching odd-node signs)."""
    if variant == "beta-sign":
        return affine_eval_rep(labels, "standard", beta=-1.0)
    return affine_eval_rep(labels, variant)


def _affine_relations(variant: str) -> RelationTable:
    """The affine defining relations of one variant: group-like inverses, K0
    conjugations, [E_i, F_j} on both node blocks, the Serre line, the two
    L-lines and compatibility lines on the node pairs (i, k), the vanishing
    odd pairs, centrality and the evaluation constraints ev(K^{+-}) = 1."""
    if variant == "standard":
        serre, ik, uv = ("E3F2", "E4F1", "E1F3", "E4F2", "E2F4", "E3F1"), ((1, 4), (2, 3)), "+-"
    else:
        serre, ik, uv = ("E3F1", "E4F2", "E1F4", "E3F1", "E2F3", "E4F2"), ((1, 3), (2, 4)), "-+"
    brackets = [f"[{pair[:2]},{pair[2:]}]" for pair in serre]
    commutators = [(f"[{a},{b}]", f"{a} {b} - {b} {a}")
                   for a, b in zip(brackets[::2], brackets[1::2])]

    def l_sub(i, sign):  # L_i^{+-} as a sub-word
        return "(" + " ".join(_l_word(i, sign)) + ")"
    return RelationTable(AFFINE_NAMES, _AFF_ODD, [
        *((f"{base}+{base}- - 1", f"{base}+ {base}-", "1")
          for base in ("K0", "K1", "K2", "K3", "K4", "U", "V")),
        *((f"K0{s} {x}{i} K0{t} - q {x}{i}", f"K0{s} {x}{i} K0{t}", f"q: {x}{i}")
          for i in range(1, 5) for x, s, t in (("E", "+", "-"), ("F", "-", "+"))),
        *(ef_relation(i, j, l_sub) for block in ((1, 2), (3, 4)) for i in block for j in block),
        (commutators[0][0] + " - (K+-K-)/(q-1/q)", commutators[0][1],
         "1/(q-1/q): K1+ K2+ K3+ K4+ - K1- K2- K3- K4-"),
        *((name + " - L-line", lhs,
           f"1/(q-1/q): {l_sub(i, '+')} {l_sub(k, '+')} - {l_sub(i, '-')} {l_sub(k, '-')}")
          for (name, lhs), (i, k) in zip(commutators[1:], ik)),
        # U V K_i K_k, the K signs (i) then -(i)
        *((f"[E{i},F{k}] - compatibility", f"[E{i},F{k}]", f"alpha{i}/(q-1/q): (U+ V{uv[0]}) "
           f"(K{i}{p} K{k}{p}) - (U- V{uv[1]}) (K{i}{m} K{k}{m})")
          for i, k in ik for p, m in ["+-" if node_sign(i) == 1 else "-+"]),
        *((f"[{x}{i},{x}{j}]", f"[{x}{i},{x}{j}]", "0")
          for i in range(1, 5) for j in range(i, 5) for x in "EF"),
        *((f"central:[{c},{g}]", f"[{c},{g}]", "0")
          for c in GROUP_LIKE[2:] for g in AFFINE_NAMES[:8]),
        ("ev(K+) - 1", "K1+ K2+ K3+ K4+", "1"), ("ev(K-) - 1", "K1- K2- K3- K4-", "1")])


AFFINE_RELATIONS = {variant: _affine_relations(variant) for variant in ("standard", "swapped")}


def affine_relations_report(rep: AffineRep, tolerance: float = 1e-11) -> Report:
    """Residuals of the affine defining relations (:data:`AFFINE_RELATIONS`), Serre and
    compatibility lines included, for the variant the representation was built with.
    Given a sequence of modules of one variant, one report each, from one pass."""
    variants = {r.variant for r in ([rep] if isinstance(rep, GeneratorImage) else rep)}
    if len(variants) > 1:
        raise ValueError(f"a batch of modules of the variants {sorted(variants)}; "
                         "check each variant on its own")
    return AFFINE_RELATIONS[variants.pop()].check("affine-relations", tolerance, rep)


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
#: The affine algebra's record: the fourteen group-likes cocommute; no Klein twists.
ALGEBRAS["affine"] = Algebra("affine-", AFFINE_COPRODUCT, GROUP_LIKE, {})


def affine_coproduct_image(name: str, rep_a: AffineRep, rep_b: AffineRep,
                           opposite: bool = False) -> SuperMatrix:
    """Matrix of the affine coproduct: U-dressing on nodes 1,2 and V-dressing
    on nodes 3,4; all fourteen Cartan/group-like elements are group-like."""
    return coproduct_matrix(AFFINE_COPRODUCT, name, rep_a, rep_b, opposite)


#: The compatibility relations of the standard variant, read on the coproduct stack.
_DELTA_COMPATIBILITY = RelationTable(AFFINE_NAMES, _AFF_ODD, [
    ("hom:" + name.removesuffix(" - compatibility"), lhs, rhs)
    for name, lhs, rhs in AFFINE_RELATIONS["standard"].cases if name.endswith("compatibility")])


def affine_hom_report(rep_a: AffineRep, rep_b: AffineRep,
                      tolerance: float = 1e-10) -> Report:
    """Coproduct homomorphism residual on the compatibility relation."""
    if rep_a.variant != "standard" or rep_b.variant != "standard":
        raise ValueError("the coproduct check runs on the standard variant")
    return _DELTA_COMPATIBILITY.report("affine-coproduct-homomorphism", tolerance,
                                       coproduct_stack(ALGEBRAS[rep_a.kind].coproduct,
                                                       rep_a, rep_b), rep_a.q, rep_a.alpha)


def affine_intertwine(labels_a: QRepLabels, labels_b: QRepLabels,
                      variant: str = "standard", beta: complex = 1.0,
                      tolerance: float = 1e-9) -> Report:
    """The deformed R-matrix intertwines the affine coproducts for every node:
    :func:`.rmatrix.intertwining_report` on the memoised evaluation modules,
    so a pair already built from these labels has its coproduct stacks read."""
    rep_a, rep_b = (affine_eval_rep(labels, variant, beta) for labels in (labels_a, labels_b))
    rpt = intertwining_report(rq_closed(labels_a, labels_b), rep_a, rep_b, tolerance)
    rpt.suite = "affine-intertwining"
    return rpt


#: The deformed algebra on nodes {3,4} with V, in ``Q_NAMES`` order: the
#: upper images, and the L images assembled from the Cartan data.
_UPPER = spell(AFFINE_NAMES, [
    ("E3",), ("E4",), ("F3",), ("F4",), ("K0+",), ("K0-",), ("K3+",), ("K3-",), ("K4+",),
    ("K4-",), _l_word(3, "+"), _l_word(3, "-"), _l_word(4, "+"), _l_word(4, "-"), ("V+",), ("V-",)])


def upper_nodes_subalgebra(rep: AffineRep) -> GeneratorImage:
    """Nodes {3,4} with V as a copy of the deformed algebra.

    The L images are assembled from the Cartan data, so the returned
    representation can be fed straight to the deformed relation checker.
    """
    stack = word_stack(rep.gather(AFFINE_NAMES), _UPPER)
    return GeneratorImage(rep.space, Q_NAMES, stack, _Q_PARITY, (rep.alpha[2], rep.alpha[3]),
                          rep.q, "q")
