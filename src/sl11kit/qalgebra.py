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
from functools import partial

import numpy as np

from .algebra import (C11_E12, C11_E21, C11_ONE, KAC_ONE, KAC_SPACE, AtypicalLocusWarning,
                      DegenerateFusionError, GeneratorImage, _require_singlet,
                      coassociativity_checker, cocommutativity_checker,
                      counit_antipode_checker, fusion_report, kac_odd_images,
                      on_shortening_locus, relation_images, singlet_lines, twist)
from .coproduct import CoproductTable, coproduct_matrix, coproduct_stack
from .graded import C11, EVEN, SuperMatrix
from .report import Report, c2j, residual_report

Q_NAMES = ("E1", "E2", "F1", "F2", "K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
           "L1+", "L1-", "L2+", "L2-", "U+", "U-")
_Q_ODD = frozenset({"E1", "E2", "F1", "F2"})


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
    return qbracket_of_power(np.exp(complex(x) * np.log(complex(q))), q)


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
    imgs = {
        "E1": g * C11_E21,
        "E2": (1 / g) * C11_E21,
        "F1": labels.alpha2 * g * labels.br_mu2 * C11_E12,
        "F2": labels.alpha1 * (1 / g) * labels.br_mu1 * C11_E12,
        "K0+": SuperMatrix(C11, C11, np.diag([q**-2, q**-1]), EVEN),
        "K0-": SuperMatrix(C11, C11, np.diag([q**2, q]), EVEN),
        "K1+": labels.qlam1 * C11_ONE,
        "K1-": (1 / labels.qlam1) * C11_ONE,
        "K2+": labels.qlam2 * C11_ONE,
        "K2-": (1 / labels.qlam2) * C11_ONE,
        "L1+": labels.qmu1 * C11_ONE,
        "L1-": (1 / labels.qmu1) * C11_ONE,
        "L2+": labels.qmu2 * C11_ONE,
        "L2-": (1 / labels.qmu2) * C11_ONE,
        "U+": nu * C11_ONE,
        "U-": (1 / nu) * C11_ONE,
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
    if on_shortening_locus(bl1 * bl2, a1 * a2 * bm1 * bm2, 1e-12):
        warnings.warn("weights sit on the deformed shortening locus", AtypicalLocusWarning)
    V = KAC_SPACE
    imgs = {
        **dict(zip(("E1", "E2", "F1", "F2"),
                   kac_odd_images(bl1, bl2, a1 * bm1, a2 * bm2))),
        "K0+": SuperMatrix(V, V, np.diag([1.0, q**-1, q**-1, q**-2]), EVEN),
        "K0-": SuperMatrix(V, V, np.diag([1.0, q, q, q**2]), EVEN),
        "K1+": qlam1 * KAC_ONE, "K1-": (1 / qlam1) * KAC_ONE,
        "K2+": qlam2 * KAC_ONE, "K2-": (1 / qlam2) * KAC_ONE,
        "L1+": qmu1 * KAC_ONE, "L1-": (1 / qmu1) * KAC_ONE,
        "L2+": qmu2 * KAC_ONE, "L2-": (1 / qmu2) * KAC_ONE,
        "U+": nu * KAC_ONE, "U-": (1 / nu) * KAC_ONE,
    }
    return GeneratorImage(V, imgs, alpha=alpha, q=q, kind="q")


# -- relation checker ----------------------------------------------------------


def _ef_targets(im, q: complex, alpha, nodes: tuple[int, ...]) -> dict:
    """[E_i, F_j} right-hand sides on ``nodes`` from the name -> matrix map ``im``:
    (K_i^{+2} - K_i^{-2})/(q - q^{-1}) for i = j and, when the couplings (by
    node) are known, alpha_i (L_i^+ - L_i^-)/(q - q^{-1}) for i != j.  Scalars
    stay on the right, as in SuperMatrix."""
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


def q_check_relations(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """Residuals of the deformed defining relations in a representation."""
    im, comm = relation_images(rep, Q_NAMES, _Q_ODD)
    if rep.q is None:
        raise ValueError("representation carries no deformation parameter q")
    q = rep.q
    one = np.eye(rep.space.dim)
    zero = np.zeros((rep.space.dim, rep.space.dim))
    cases = []
    # scalars multiply matrices on the right, as in SuperMatrix: numpy can
    # round scalar * matrix differently in the last bit
    for base in ("K0", "K1", "K2", "L1", "L2", "U"):
        plus, minus = f"{base}+", f"{base}-"
        cases.append((f"{plus}{minus} - 1", im[plus] @ im[minus], one))
    for a in ("E1", "E2"):
        cases.append((f"K0+ {a} K0- - q {a}", im["K0+"] @ im[a] @ im["K0-"], im[a] * q))
    for a in ("F1", "F2"):
        cases.append((f"K0- {a} K0+ - q {a}", im["K0-"] @ im[a] @ im["K0+"], im[a] * q))
    targets = _ef_targets(im, q, rep.alpha, (1, 2))
    cases += [(f"[{a},{b}]", comm(a, b), targets[a, b])
              for a, b in (("E1", "F1"), ("E2", "F2"), ("E1", "F2"), ("E2", "F1"))
              if (a, b) in targets]
    for a, b in (("E1", "E1"), ("E1", "E2"), ("E2", "E2"),
                 ("F1", "F1"), ("F1", "F2"), ("F2", "F2")):
        cases.append((f"[{a},{b}]", comm(a, b), zero))
    # quotient constraints tying L to K and U
    cases.append(("L1+ - K1+K2+U^2", im["L1+"], im["K1+"] @ im["K2+"] @ im["U+"] @ im["U+"]))
    cases.append(("L2+ - K1+K2+U^-2", im["L2+"], im["K1+"] @ im["K2+"] @ im["U-"] @ im["U-"]))
    cases.append(("L1- - K1-K2-U^-2", im["L1-"], im["K1-"] @ im["K2-"] @ im["U-"] @ im["U-"]))
    cases.append(("L2- - K1-K2-U^2", im["L2-"], im["K1-"] @ im["K2-"] @ im["U+"] @ im["U+"]))
    centrals = ("K1+", "K1-", "K2+", "K2-", "L1+", "L1-", "L2+", "L2-", "U+", "U-")
    for c in centrals:
        for g in ("E1", "E2", "F1", "F2", "K0+", "K0-"):
            cases.append((f"central:[{c},{g}]", comm(c, g), zero))
    return residual_report("q-algebra-relations", tolerance, *zip(*cases))


# -- coproduct -----------------------------------------------------------------

_GROUP_LIKE = ("K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
               "L1+", "L1-", "L2+", "L2-", "U+", "U-")

Q_COPRODUCT = CoproductTable({
    "E1": ((1, ("E1",), ("U-", "K1-")), (1, ("U+", "K1+"), ("E1",))),
    "E2": ((1, ("E2",), ("U+", "K2-")), (1, ("U-", "K2+"), ("E2",))),
    "F1": ((1, ("F1",), ("U+", "K1-")), (1, ("U-", "K1+"), ("F1",))),
    "F2": ((1, ("F2",), ("U-", "K2-")), (1, ("U+", "K2+"), ("F2",))),
    **{c: ((1, (c,), (c,)),) for c in _GROUP_LIKE},
}, inverses={c: c[:-1] + ("-" if c.endswith("+") else "+") for c in _GROUP_LIKE})

def q_coproduct_image(name: str, rep_a: GeneratorImage, rep_b: GeneratorImage,
                      opposite: bool = False) -> SuperMatrix:
    """Matrix of the deformed coproduct (or its opposite) on the tensor space."""
    return coproduct_matrix(Q_COPRODUCT, name, rep_a, rep_b, opposite)


q_coassociativity_report = coassociativity_checker(Q_COPRODUCT, "q-coassociativity")
q_counit_antipode_report = counit_antipode_checker(Q_COPRODUCT, "q-counit-antipode", 1e-12)
#: Group-like elements are exactly co-commutative.
q_cocommutativity_report = cocommutativity_checker(Q_COPRODUCT, _GROUP_LIKE,
                                                   "q-cocommutativity", 1e-12)


def q_hom_report(rep_a, rep_b, tolerance: float = 1e-11) -> Report:
    """Coproduct homomorphism residuals on the mixed brackets.

    [Delta(E_i), Delta(F_j)] must reproduce alpha_i (Delta(L_i^+)-Delta(L_i^-))/(q-q^{-1}),
    which holds precisely because of the L = K K U^2 quotient.
    """
    if rep_a.alpha is None or rep_a.q is None:
        raise ValueError("representations must carry couplings and q")
    d = dict(zip(Q_COPRODUCT.names, coproduct_stack(Q_COPRODUCT, rep_a, rep_b)))
    targets = _ef_targets(d, rep_a.q, rep_a.alpha, (1, 2))
    pairs = (("E1", "F2"), ("E2", "F1"), ("E1", "F1"), ("E2", "F2"))
    names = [f"[Delta({x}),Delta({y})]" for x, y in pairs]
    lhs = [d[x] @ d[y] + d[y] @ d[x] for x, y in pairs]
    return residual_report("q-coproduct-homomorphism", tolerance, names, lhs,
                           [targets[pair] for pair in pairs])


# -- fusion and the deformed singlet -------------------------------------------


@dataclass
class QFusionResult:
    qlam1: complex
    qlam2: complex
    nu: complex
    basis: np.ndarray
    report: Report


def _q_fused_powers(labels_a: QRepLabels, labels_b: QRepLabels) -> tuple[complex, ...]:
    """(q^{lambda~1/2}, q^{lambda~2/2}, nu~, q^{mu~1}, q^{mu~2}) of the product of
    two deformed atypical modules: the powers and nu multiply."""
    k1t = labels_a.qlam1 * labels_b.qlam1
    k2t = labels_a.qlam2 * labels_b.qlam2
    nut = labels_a.nu * labels_b.nu
    return k1t, k2t, nut, k1t * k2t * nut**2, k1t * k2t * nut**-2


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
    k1t, k2t, nut, qmu1t, qmu2t = _q_fused_powers(labels_a, labels_b)
    bl1, bl2 = qbracket_of_power(k1t**2, q), qbracket_of_power(k2t**2, q)
    bm1, bm2 = qbracket_of_power(qmu1t, q), qbracket_of_power(qmu2t, q)
    if on_shortening_locus(bl1 * bl2, a1 * a2 * bm1 * bm2, 1e-10):
        raise DegenerateFusionError(
            "fused weights satisfy the deformed shortening constraint")
    target = q_typical_from_powers(k1t, k2t, nut, q, labels_a.alpha)
    shift = {"K0+": q**-2, "K0-": q**2}

    def want(name):
        return shift[name] * target[name].m if name in shift else target[name].m

    basis, r = fusion_report(
        "q-fusion", Q_COPRODUCT, q_atypical_rep(labels_a), q_atypical_rep(labels_b),
        ("F1", "F2"), (("K1+", k1t), ("K2+", k2t), ("L1+", qmu1t), ("L2+", qmu2t), ("U+", nut)),
        (("E1", a1 * bm1, bl1), ("E2", bl2, a2 * bm2)), want, tolerance)
    return QFusionResult(k1t, k2t, nut, basis, r)


def q_singlet_vector(labels_a: QRepLabels, labels_b: QRepLabels,
                     tolerance: float = 1e-10) -> np.ndarray:
    """Deformed invariant vector gamma w1 (x) w0' + q^{-lambda~2/2} gamma' nu nu' w0 (x) w1'.

    Preconditions (as q-powers): q^{lambda~_i} = q^{mu~_i} = 1 and nu nu' = 1.
    The factor q^{-lambda~2/2} is kept verbatim even though it is +-1 on the
    admissible locus.
    """
    k1t, k2t, nut, qmu1t, qmu2t = _q_fused_powers(labels_a, labels_b)
    _require_singlet("deformed singlet",
                     (("q^lambda~1 - 1", k1t**2 - 1), ("q^lambda~2 - 1", k2t**2 - 1),
                      ("q^mu~1 - 1", qmu1t - 1), ("q^mu~2 - 1", qmu2t - 1),
                      ("nu nu' - 1", nut - 1)), tolerance)
    v = np.zeros(4, dtype=complex)
    v[1] = labels_a.gamma
    v[2] = (1 / k2t) * labels_b.gamma * labels_a.nu * labels_b.nu
    return v


def q_singlet_report(labels_a: QRepLabels, labels_b: QRepLabels,
                     tolerance: float = 1e-11) -> Report:
    """Annihilation and invariance residuals for the deformed singlet vector."""
    v = q_singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    return singlet_lines("q-singlet", Q_COPRODUCT, q_atypical_rep(labels_a),
                         q_atypical_rep(labels_b), v, ("E1", "E2", "F1", "F2"),
                         ("U+", "U-"), (), tolerance)


# -- Klein-four twists ---------------------------------------------------------

#: Involutive outer twists of the deformed algebra, with the coupling swaps,
#: in the format of :data:`.algebra.KLEIN_ROWS`.
Q_KLEIN_ROWS = {
    "ef": ({"E1": ("F1", 1), "E2": ("F2", 1), "F1": ("E1", 1), "F2": ("E2", 1),
            "K1+": ("K1+", 1), "K1-": ("K1-", 1), "K2+": ("K2+", 1), "K2-": ("K2-", 1),
            "L1+": ("L2+", 1), "L1-": ("L2-", 1), "L2+": ("L1+", 1), "L2-": ("L1-", 1),
            "K0+": ("K0-", 1), "K0-": ("K0+", 1), "U+": ("U-", 1), "U-": ("U+", 1)},
           lambda a: (a[1], a[0])),
    "ef_cross": ({"E1": ("F2", 1), "E2": ("F1", 1), "F1": ("E2", 1), "F2": ("E1", 1),
                  "K1+": ("K2+", 1), "K1-": ("K2-", 1), "K2+": ("K1+", 1), "K2-": ("K1-", 1),
                  "L1+": ("L1+", 1), "L1-": ("L1-", 1), "L2+": ("L2+", 1), "L2-": ("L2-", 1),
                  "K0+": ("K0-", 1), "K0-": ("K0+", 1), "U+": ("U+", 1), "U-": ("U-", 1)},
                 lambda a: a),
    "nodes": ({"E1": ("E2", 1), "E2": ("E1", 1), "F1": ("F2", 1), "F2": ("F1", 1),
               "K1+": ("K2+", 1), "K1-": ("K2-", 1), "K2+": ("K1+", 1), "K2-": ("K1-", 1),
               "L1+": ("L2+", 1), "L1-": ("L2-", 1), "L2+": ("L1+", 1), "L2-": ("L1-", 1),
               "K0+": ("K0+", 1), "K0-": ("K0-", 1), "U+": ("U-", 1), "U-": ("U+", 1)},
              lambda a: (a[1], a[0])),
}

q_klein_twist = partial(twist, Q_KLEIN_ROWS)
