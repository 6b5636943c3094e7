"""Quantum deformation of the centrally extended sl(1|1)^2 algebra.

Generators: E_i, F_i (odd), the grading element K0^{+-}, central K_i^{+-},
L_i^{+-}, U^{+-}.  Weights enter only through stored q-powers:

* ``qlam_i`` = q^{lambda_i/2}, the K_i^+ eigenvalue on the highest vector;
* q^{mu_i}  = q^{(lambda1+lambda2)/2} nu^{+-2}, the L_i^+ eigenvalue, forced
  by the quotient relation L_i^+ = K_1^+ K_2^+ U^{+-2}.

Storing powers rather than exponents removes every logarithm branch.  The
bracket of a weight symbol is read as

    [x]_q = (q^x - q^{-x}) / (q - q^{-1}),

the unique convention compatible with [E_i, F_i] = (K_i^{+2} - K_i^{-2})/(q - q^{-1})
acting on q^{+-lambda_i/2} eigenvectors.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import AtypicalLocusWarning, GeneratorImage, SingletPreconditionError
from .coproduct import CoproductTable, coproduct_matrix, word_matrix
from .graded import (C11, EVEN, ODD, GradedSpace, SuperMatrix, graded_comm,
                     graded_kron, identity, max_abs, unit, zeros)
from .report import Report

Q_NAMES = ("E1", "E2", "F1", "F2", "K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
           "L1+", "L1-", "L2+", "L2-", "U+", "U-")
_Q_ODD = frozenset({"E1", "E2", "F1", "F2"})

_KAC_SPACE = GradedSpace(4, (EVEN, ODD, ODD, EVEN))


class RootOfUnityError(ValueError):
    """q is (numerically) a root of unity; the deformation requires generic q."""


def reject_root_of_unity(q: complex, order: int = 48, tol: float = 1e-9) -> None:
    q = complex(q)
    if q == 0:
        raise RootOfUnityError("q must be nonzero")
    power = 1.0 + 0.0j
    for _ in range(order):
        power *= q
        if abs(power - 1.0) < tol:
            raise RootOfUnityError(f"q = {q} is a root of unity up to order {order}")


def qbracket(x: complex, q: complex) -> complex:
    """[x]_q = (q^x - q^{-x})/(q - q^{-1}) for a numeric exponent x."""
    q = complex(q)
    if abs(q - 1) < 1e-14 or abs(q + 1) < 1e-14:
        raise ValueError("qbracket undefined at q = +-1")
    qx = np.exp(complex(x) * np.log(q))
    return (qx - 1 / qx) / (q - 1 / q)


def qbracket_of_power(qx: complex, q: complex) -> complex:
    """[x]_q given the precomputed power qx = q^x (branch-free companion)."""
    q = complex(q)
    if abs(q - 1) < 1e-14 or abs(q + 1) < 1e-14:
        raise ValueError("qbracket undefined at q = +-1")
    qx = complex(qx)
    return (qx - 1 / qx) / (q - 1 / q)


@dataclass(frozen=True)
class QRepLabels:
    """Deformed atypical labels: (gamma, nu, q, q^{lambda_i/2}, alpha_i).

    Construction validates that q is not a root of unity, that the deformed
    shortening constraint [l1][l2] = a1 a2 [m1][m2] holds, and that gamma^2
    matches both of its defining ratios.
    """

    gamma: complex
    nu: complex
    q: complex
    qlam1: complex  # q^{lambda1/2}
    qlam2: complex  # q^{lambda2/2}
    alpha1: complex
    alpha2: complex
    branch: str = ""

    def __post_init__(self):
        for name in ("gamma", "nu", "q", "qlam1", "qlam2", "alpha1", "alpha2"):
            val = complex(getattr(self, name))
            if val == 0:
                raise ValueError(f"{name} must be nonzero")
            object.__setattr__(self, name, val)
        reject_root_of_unity(self.q)
        scale = max(abs(self.br_lam1 * self.br_lam2), 1.0)
        if abs(self.shortening_residual()) > 1e-8 * scale:
            raise ValueError("labels violate the deformed shortening constraint")
        if max(abs(r) for r in self.gamma_residuals()) > 1e-8 * max(abs(self.gamma) ** 2, 1.0):
            raise ValueError("gamma is inconsistent with the weight powers")

    # L_i^+ eigenvalues q^{mu_i}; products of stored powers, no branch choice.
    @property
    def qmu1(self) -> complex:
        return self.qlam1 * self.qlam2 * self.nu**2

    @property
    def qmu2(self) -> complex:
        return self.qlam1 * self.qlam2 * self.nu**-2

    @property
    def br_lam1(self) -> complex:
        return qbracket_of_power(self.qlam1**2, self.q)

    @property
    def br_lam2(self) -> complex:
        return qbracket_of_power(self.qlam2**2, self.q)

    @property
    def br_mu1(self) -> complex:
        return qbracket_of_power(self.qmu1, self.q)

    @property
    def br_mu2(self) -> complex:
        return qbracket_of_power(self.qmu2, self.q)

    @property
    def alpha(self) -> tuple[complex, complex]:
        return (self.alpha1, self.alpha2)

    def shortening_residual(self) -> complex:
        return (self.br_lam1 * self.br_lam2
                - self.alpha1 * self.alpha2 * self.br_mu1 * self.br_mu2)

    def gamma_residuals(self) -> tuple[complex, complex]:
        g2 = self.gamma**2
        return (g2 * self.br_lam2 - self.alpha1 * self.br_mu1,
                g2 * self.alpha2 * self.br_mu2 - self.br_lam1)

    def to_dict(self) -> dict:
        from .report import c2j
        return {
            "gamma": c2j(self.gamma), "nu": c2j(self.nu), "q": c2j(self.q),
            "qlam1": c2j(self.qlam1), "qlam2": c2j(self.qlam2),
            "alpha": [c2j(self.alpha1), c2j(self.alpha2)],
            "branch": self.branch,
        }


def q_labels(lambda1: complex, nu: complex, q: complex,
             alpha: tuple[complex, complex],
             k2_branch: int = 0, gamma_branch: int = 0
             ) -> tuple[QRepLabels, QRepLabels]:
    """Solve the deformed shortening constraint for q^{lambda2}.

    With a = q^{lambda1} and x = q^{lambda2} the constraint is the quadratic

        [(a - 1/a) - a1 a2 a] x^2 + a1 a2 (nu^4 + nu^{-4}) x - [(a - 1/a) + a1 a2/a] = 0.

    Both roots are returned (tagged ``root0``/``root1``); ``k2_branch`` picks
    the square root q^{lambda2/2} and ``gamma_branch`` the sign of gamma.
    """
    a1, a2 = alpha
    q = complex(q)
    reject_root_of_unity(q)
    a = np.exp(complex(lambda1) * np.log(q))
    A = (a - 1 / a) - a1 * a2 * a
    B = a1 * a2 * (nu**4 + nu**-4)
    C = -(a - 1 / a) - a1 * a2 / a
    if abs(A) < 1e-13 * max(abs(B), abs(C), 1.0):
        raise ValueError("no finite second root: leading coefficient vanishes")
    disc = B * B - 4 * A * C
    if abs(disc) < 1e-12 * max(abs(B * B), abs(4 * A * C), 1.0):
        warnings.warn("root collision: discriminant is nearly zero")
    sq = np.sqrt(disc)
    if abs(-B + sq) < abs(-B - sq):
        sq = -sq
    x0 = (-B + sq) / (2 * A)
    x1 = C / (A * x0)

    out = []
    for tag, x in (("root0", x0), ("root1", x1)):
        k1 = np.sqrt(a)
        k2 = np.sqrt(x) * (-1) ** (k2_branch % 2)
        qmu1 = k1 * k2 * nu**2
        br_lam2 = qbracket_of_power(x, q)
        g2 = a1 * qbracket_of_power(qmu1, q) / br_lam2
        gamma = np.sqrt(g2) * (-1) ** (gamma_branch % 2)
        out.append(QRepLabels(gamma, nu, q, k1, k2, a1, a2,
                              branch=f"{tag},k2_branch={k2_branch % 2},gamma_branch={gamma_branch % 2}"))
    return tuple(out)


# -- representations ----------------------------------------------------------


def q_atypical_rep(labels: QRepLabels) -> GeneratorImage:
    """2-dimensional deformed atypical representation on basis (w1, w0).

    K0^{+-} acts as diag(q^{-+2}, q^{-+1}); this is the diagonal consistent
    with invertibility and with the 4-dim weights, and it satisfies
    K0^+ E_i K0^- = q E_i and K0^- F_i K0^+ = q F_i exactly.
    """
    g, nu, q = labels.gamma, labels.nu, labels.q
    E12 = unit(C11, C11, 0, 1)
    E21 = unit(C11, C11, 1, 0)
    one = identity(C11)
    imgs = {
        "E1": g * E21,
        "E2": (1 / g) * E21,
        "F1": labels.alpha2 * g * labels.br_mu2 * E12,
        "F2": labels.alpha1 * (1 / g) * labels.br_mu1 * E12,
        "K0+": SuperMatrix(C11, C11, np.diag([q**-2, q**-1]), EVEN),
        "K0-": SuperMatrix(C11, C11, np.diag([q**2, q]), EVEN),
        "K1+": labels.qlam1 * one,
        "K1-": (1 / labels.qlam1) * one,
        "K2+": labels.qlam2 * one,
        "K2-": (1 / labels.qlam2) * one,
        "L1+": labels.qmu1 * one,
        "L1-": (1 / labels.qmu1) * one,
        "L2+": labels.qmu2 * one,
        "L2-": (1 / labels.qmu2) * one,
        "U+": nu * one,
        "U-": (1 / nu) * one,
    }
    return GeneratorImage(C11, imgs, alpha=labels.alpha, q=q, kind="q")


def q_typical_rep(lambda1: complex, lambda2: complex, nu: complex, q: complex,
                  alpha: tuple[complex, complex]) -> GeneratorImage:
    """Deformed 4-dimensional highest-weight module on basis (v0, v1, v2, v21)."""
    q = complex(q)
    k1 = np.exp(complex(lambda1) * np.log(q) / 2)
    k2 = np.exp(complex(lambda2) * np.log(q) / 2)
    return q_typical_from_powers(k1, k2, nu, q, alpha)


def q_typical_from_powers(qlam1: complex, qlam2: complex, nu: complex, q: complex,
                          alpha: tuple[complex, complex]) -> GeneratorImage:
    a1, a2 = alpha
    q = complex(q)
    reject_root_of_unity(q)
    qmu1 = qlam1 * qlam2 * nu**2
    qmu2 = qlam1 * qlam2 * nu**-2
    bl1 = qbracket_of_power(qlam1**2, q)
    bl2 = qbracket_of_power(qlam2**2, q)
    bm1 = qbracket_of_power(qmu1, q)
    bm2 = qbracket_of_power(qmu2, q)
    scale = max(abs(bl1 * bl2), abs(a1 * a2 * bm1 * bm2), 1.0)
    if abs(bl1 * bl2 - a1 * a2 * bm1 * bm2) <= 1e-12 * scale:
        warnings.warn("weights sit on the deformed shortening locus", AtypicalLocusWarning)
    V = _KAC_SPACE
    f1 = np.zeros((4, 4), dtype=complex)
    f1[1, 0] = 1.0
    f1[3, 2] = -1.0
    f2 = np.zeros((4, 4), dtype=complex)
    f2[2, 0] = 1.0
    f2[3, 1] = 1.0
    e1 = np.zeros((4, 4), dtype=complex)
    e1[0, 1] = bl1
    e1[0, 2] = a1 * bm1
    e1[1, 3] = a1 * bm1
    e1[2, 3] = -bl1
    e2 = np.zeros((4, 4), dtype=complex)
    e2[0, 1] = a2 * bm2
    e2[0, 2] = bl2
    e2[1, 3] = bl2
    e2[2, 3] = -a2 * bm2
    eye = np.eye(4)

    def scalar(c):
        return SuperMatrix(V, V, c * eye, EVEN)

    imgs = {
        "E1": SuperMatrix(V, V, e1, ODD),
        "E2": SuperMatrix(V, V, e2, ODD),
        "F1": SuperMatrix(V, V, f1, ODD),
        "F2": SuperMatrix(V, V, f2, ODD),
        "K0+": SuperMatrix(V, V, np.diag([1.0, q**-1, q**-1, q**-2]), EVEN),
        "K0-": SuperMatrix(V, V, np.diag([1.0, q, q, q**2]), EVEN),
        "K1+": scalar(qlam1), "K1-": scalar(1 / qlam1),
        "K2+": scalar(qlam2), "K2-": scalar(1 / qlam2),
        "L1+": scalar(qmu1), "L1-": scalar(1 / qmu1),
        "L2+": scalar(qmu2), "L2-": scalar(1 / qmu2),
        "U+": scalar(nu), "U-": scalar(1 / nu),
    }
    return GeneratorImage(V, imgs, alpha=alpha, q=q, kind="q")


# -- relation checker ----------------------------------------------------------


def q_check_relations(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """Residuals of the deformed defining relations in a representation."""
    missing = [n for n in Q_NAMES if n not in rep.names]
    if missing:
        raise KeyError(f"missing generator images: {missing}")
    if rep.q is None:
        raise ValueError("representation carries no deformation parameter q")
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
        r.add(f"K0+ {a} K0- - q {a}",
              max_abs(im["K0+"] @ im[a] @ im["K0-"] - q * im[a]))
    for a in ("F1", "F2"):
        r.add(f"K0- {a} K0+ - q {a}",
              max_abs(im["K0-"] @ im[a] @ im["K0+"] - q * im[a]))
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
    # quotient constraints tying L to K and U
    r.add("L1+ - K1+K2+U^2", max_abs(im["L1+"] - im["K1+"] @ im["K2+"] @ im["U+"] @ im["U+"]))
    r.add("L2+ - K1+K2+U^-2", max_abs(im["L2+"] - im["K1+"] @ im["K2+"] @ im["U-"] @ im["U-"]))
    r.add("L1- - K1-K2-U^-2", max_abs(im["L1-"] - im["K1-"] @ im["K2-"] @ im["U-"] @ im["U-"]))
    r.add("L2- - K1-K2-U^2", max_abs(im["L2-"] - im["K1-"] @ im["K2-"] @ im["U+"] @ im["U+"]))
    centrals = ("K1+", "K1-", "K2+", "K2-", "L1+", "L1-", "L2+", "L2-", "U+", "U-")
    for c in centrals:
        for g in ("E1", "E2", "F1", "F2", "K0+", "K0-"):
            pg = ODD if g in _Q_ODD else EVEN
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], EVEN, pg)))
    return r


# -- coproduct -----------------------------------------------------------------

_GROUP_LIKE = ("K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
               "L1+", "L1-", "L2+", "L2-", "U+", "U-")

Q_COPRODUCT = CoproductTable({
    "E1": ((1, ("E1",), ("U-", "K1-")), (1, ("U+", "K1+"), ("E1",))),
    "E2": ((1, ("E2",), ("U+", "K2-")), (1, ("U-", "K2+"), ("E2",))),
    "F1": ((1, ("F1",), ("U+", "K1-")), (1, ("U-", "K1+"), ("F1",))),
    "F2": ((1, ("F2",), ("U-", "K2-")), (1, ("U+", "K2+"), ("F2",))),
    **{c: ((1, (c,), (c,)),) for c in _GROUP_LIKE},
})

#: S(E_i) = -E_i, S(F_i) = -F_i, S(C) = C^{-1} on group-likes.
_Q_ANTIPODE = {"E1": ("E1", -1), "E2": ("E2", -1), "F1": ("F1", -1), "F2": ("F2", -1)}
for _c in _GROUP_LIKE:
    _Q_ANTIPODE[_c] = (_c[:-1] + ("-" if _c.endswith("+") else "+"), 1)


def q_coproduct_image(name: str, rep_a: GeneratorImage, rep_b: GeneratorImage,
                      opposite: bool = False) -> SuperMatrix:
    """Matrix of the deformed coproduct (or its opposite) on the tensor space."""
    return coproduct_matrix(Q_COPRODUCT, name, rep_a, rep_b, opposite)


def q_coassociativity_report(rep_a, rep_b, rep_c, tolerance: float = 1e-10) -> Report:
    r = Report("q-coassociativity", tolerance)
    for name in Q_NAMES:
        space3 = rep_a.space.tensor(rep_b.space).tensor(rep_c.space)
        left = zeros(space3, space3, None)
        right = left
        for coeff, lf, rf in Q_COPRODUCT.terms[name]:
            dl = identity(rep_a.space.tensor(rep_b.space))
            for n in lf:
                dl = dl @ q_coproduct_image(n, rep_a, rep_b)
            left = left + coeff * graded_kron(dl, word_matrix(rep_c, rf))
            dr = identity(rep_b.space.tensor(rep_c.space))
            for n in rf:
                dr = dr @ q_coproduct_image(n, rep_b, rep_c)
            right = right + coeff * graded_kron(word_matrix(rep_a, lf), dr)
        r.add(f"coassoc:{name}", max_abs(left - right))
    return r


def q_counit_antipode_report(rep: GeneratorImage, tolerance: float = 1e-12) -> Report:
    """m(S x id)Delta(g) = eps(g) 1 in a single deformed representation."""
    r = Report("q-counit-antipode", tolerance)
    for name in Q_NAMES:
        acc = zeros(rep.space, rep.space)
        for coeff, left, right in Q_COPRODUCT.terms[name]:
            s_mat = identity(rep.space)
            for n in reversed(left):
                src, sc = _Q_ANTIPODE[n]
                s_mat = s_mat @ (sc * rep[src])
            acc = acc + coeff * (s_mat @ word_matrix(rep, right))
        eps = 1 if name in _GROUP_LIKE else 0
        r.add(f"antipode:{name}", max_abs(acc - eps * identity(rep.space)))
    return r


def q_cocommutativity_report(rep_a, rep_b, tolerance: float = 1e-12) -> Report:
    """Group-like elements are exactly co-commutative."""
    r = Report("q-cocommutativity", tolerance)
    for name in _GROUP_LIKE:
        diff = q_coproduct_image(name, rep_a, rep_b) - q_coproduct_image(
            name, rep_a, rep_b, opposite=True)
        r.add(f"cocomm:{name}", max_abs(diff))
    return r


def q_hom_report(rep_a, rep_b, tolerance: float = 1e-11) -> Report:
    """Coproduct homomorphism residuals on the mixed brackets.

    [Delta(E_i), Delta(F_j)] must reproduce alpha_i (Delta(L_i^+)-Delta(L_i^-))/(q-q^{-1}),
    which holds precisely because of the L = K K U^2 quotient.
    """
    if rep_a.alpha is None or rep_a.q is None:
        raise ValueError("representations must carry couplings and q")
    a1, a2 = rep_a.alpha
    q = rep_a.q

    def cop(n, opposite=False):
        return q_coproduct_image(n, rep_a, rep_b, opposite)

    r = Report("q-coproduct-homomorphism", tolerance)
    qq = q - 1 / q
    pairs = {("E1", "F2"): (a1, "L1+", "L1-"), ("E2", "F1"): (a2, "L2+", "L2-")}
    for (x, y), (al, lp, lm) in pairs.items():
        lhs = graded_comm(cop(x), cop(y), ODD, ODD)
        rhs = (al / qq) * (cop(lp) - cop(lm))
        r.add(f"[Delta({x}),Delta({y})]", max_abs(lhs - rhs))
    for (x, y), (kp, km) in {("E1", "F1"): ("K1+", "K1-"),
                             ("E2", "F2"): ("K2+", "K2-")}.items():
        lhs = graded_comm(cop(x), cop(y), ODD, ODD)
        rhs = (1 / qq) * (cop(kp) @ cop(kp) - cop(km) @ cop(km))
        r.add(f"[Delta({x}),Delta({y})]", max_abs(lhs - rhs))
    return r


# -- fusion and the deformed singlet -------------------------------------------


@dataclass
class QFusionResult:
    qlam1: complex
    qlam2: complex
    nu: complex
    basis: np.ndarray
    report: Report


def q_fuse_check(labels_a: QRepLabels, labels_b: QRepLabels,
                 tolerance: float = 1e-10) -> QFusionResult:
    """Identify the product of two deformed atypical modules with the 4-dim one.

    Fused powers multiply: q^{lambda~_i/2} = q^{lambda_i/2} q^{lambda'_i/2}
    and nu~ = nu nu'.  K0 images are compared up to the multiplicative shift
    q^{-+2} carried by the cyclic vector.
    """
    if abs(labels_a.q - labels_b.q) > 1e-12 or \
       max(abs(labels_a.alpha1 - labels_b.alpha1), abs(labels_a.alpha2 - labels_b.alpha2)) > 1e-12:
        raise ValueError("fusion requires identical q and couplings")
    q = labels_a.q
    a1, a2 = labels_a.alpha
    rep_a, rep_b = q_atypical_rep(labels_a), q_atypical_rep(labels_b)
    k1t = labels_a.qlam1 * labels_b.qlam1
    k2t = labels_a.qlam2 * labels_b.qlam2
    nut = labels_a.nu * labels_b.nu
    qmu1t = k1t * k2t * nut**2
    qmu2t = k1t * k2t * nut**-2
    bl1, bl2 = qbracket_of_power(k1t**2, q), qbracket_of_power(k2t**2, q)
    bm1, bm2 = qbracket_of_power(qmu1t, q), qbracket_of_power(qmu2t, q)
    scale = max(abs(bl1 * bl2), abs(a1 * a2 * bm1 * bm2), 1.0)
    if abs(bl1 * bl2 - a1 * a2 * bm1 * bm2) <= 1e-10 * scale:
        from .algebra import DegenerateFusionError
        raise DegenerateFusionError(
            "fused weights satisfy the deformed shortening constraint")

    def cop(name):
        return q_coproduct_image(name, rep_a, rep_b)

    v0 = np.zeros(4, dtype=complex)
    v0[3] = 1.0
    v1 = cop("F1").m @ v0
    v2 = cop("F2").m @ v0
    v21 = cop("F2").m @ (cop("F1").m @ v0)
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report("q-fusion", tolerance)
    for name, val in (("K1+", k1t), ("K2+", k2t), ("L1+", qmu1t), ("L2+", qmu2t),
                      ("U+", nut)):
        r.add(f"weight:{name}", max_abs(cop(name).m @ v0 - val * v0), expected=val)
    r.add("E1.v21", max_abs(cop("E1").m @ v21 - (a1 * bm1 * v1 - bl1 * v2)))
    r.add("E2.v21", max_abs(cop("E2").m @ v21 - (bl2 * v1 - a2 * bm2 * v2)))

    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore", AtypicalLocusWarning)
        target = q_typical_from_powers(k1t, k2t, nut, q, labels_a.alpha)
    binv = np.linalg.inv(basis)
    for name in Q_NAMES:
        want = target[name].m
        if name == "K0+":
            want = q**-2 * want
        elif name == "K0-":
            want = q**2 * want
        got = binv @ cop(name).m @ basis
        r.add(f"basis-conjugation:{name}", max_abs(got - want))
    return QFusionResult(k1t, k2t, nut, basis, r)


def q_singlet_vector(labels_a: QRepLabels, labels_b: QRepLabels,
                     tolerance: float = 1e-10) -> np.ndarray:
    """Deformed invariant vector gamma w1 (x) w0' + q^{-lambda~2/2} gamma' nu nu' w0 (x) w1'.

    Preconditions (as q-powers): q^{lambda~_i} = q^{mu~_i} = 1 and nu nu' = 1.
    The factor q^{-lambda~2/2} is kept verbatim even though it is +-1 on the
    admissible locus.
    """
    k1t = labels_a.qlam1 * labels_b.qlam1
    k2t = labels_a.qlam2 * labels_b.qlam2
    nut = labels_a.nu * labels_b.nu
    qmu1t = k1t * k2t * nut**2
    qmu2t = k1t * k2t * nut**-2
    bad = [f"{nm} = {val:.3e}" for nm, val in
           (("q^lambda~1 - 1", k1t**2 - 1), ("q^lambda~2 - 1", k2t**2 - 1),
            ("q^mu~1 - 1", qmu1t - 1), ("q^mu~2 - 1", qmu2t - 1),
            ("nu nu' - 1", nut - 1))
           if abs(val) > tolerance]
    if bad:
        raise SingletPreconditionError(
            "labels do not admit a deformed singlet; nonzero: " + "; ".join(bad))
    v = np.zeros(4, dtype=complex)
    v[1] = labels_a.gamma
    v[2] = (1 / k2t) * labels_b.gamma * labels_a.nu * labels_b.nu
    return v


def q_singlet_report(labels_a: QRepLabels, labels_b: QRepLabels,
                     tolerance: float = 1e-11) -> Report:
    v = q_singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    rep_a, rep_b = q_atypical_rep(labels_a), q_atypical_rep(labels_b)
    r = Report("q-singlet", tolerance)
    for name in ("E1", "E2", "F1", "F2"):
        r.add(f"annihilation:{name}",
              max_abs(q_coproduct_image(name, rep_a, rep_b).m @ v))
    for name in ("U+", "U-"):
        r.add(f"invariance:{name}",
              max_abs(q_coproduct_image(name, rep_a, rep_b).m @ v - v))
    return r


# -- Klein-four twists ---------------------------------------------------------

Q_KLEIN_ROWS = {
    "ef": ({"E1": "F1", "E2": "F2", "F1": "E1", "F2": "E2",
            "K1+": "K1+", "K1-": "K1-", "K2+": "K2+", "K2-": "K2-",
            "L1+": "L2+", "L1-": "L2-", "L2+": "L1+", "L2-": "L1-",
            "K0+": "K0-", "K0-": "K0+", "U+": "U-", "U-": "U+"},
           lambda a: (a[1], a[0])),
    "ef_cross": ({"E1": "F2", "E2": "F1", "F1": "E2", "F2": "E1",
                  "K1+": "K2+", "K1-": "K2-", "K2+": "K1+", "K2-": "K1-",
                  "L1+": "L1+", "L1-": "L1-", "L2+": "L2+", "L2-": "L2-",
                  "K0+": "K0-", "K0-": "K0+", "U+": "U+", "U-": "U-"},
                 lambda a: a),
    "nodes": ({"E1": "E2", "E2": "E1", "F1": "F2", "F2": "F1",
               "K1+": "K2+", "K1-": "K2-", "K2+": "K1+", "K2-": "K1-",
               "L1+": "L2+", "L1-": "L2-", "L2+": "L1+", "L2-": "L1-",
               "K0+": "K0+", "K0-": "K0-", "U+": "U-", "U-": "U+"},
              lambda a: (a[1], a[0])),
}


def q_klein_twist(name: str, rep: GeneratorImage) -> GeneratorImage:
    """Involutive outer twists of the deformed algebra, with the coupling swaps."""
    try:
        table, alpha_map = Q_KLEIN_ROWS[name]
    except KeyError:
        raise KeyError(f"unknown twist {name!r}; choose from {sorted(Q_KLEIN_ROWS)}") from None
    imgs = {g: rep[src] for g, src in table.items()}
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return GeneratorImage(rep.space, imgs, alpha=alpha, q=rep.q, kind="q")
