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

from .algebra import (ATYPICAL_PATTERNS, KAC_PATTERNS, KAC_SPACE, AtypicalLocusWarning,
                      DegenerateFusionError, GeneratorImage, RelationTable, _require_singlet,
                      decided, fusion_report, kac_images, label_scalar, on_shortening_locus,
                      singlet_lines)
from .coproduct import (ALGEBRAS, Algebra, CoproductTable, coproduct_matrix, coproduct_stack,
                        memoised_by_labels)
from .graded import C11, EVEN, ODD, SuperMatrix, as_entries
from .report import Report, c2j

Q_NAMES = ("E1", "E2", "F1", "F2", "K0+", "K0-", "K1+", "K1-", "K2+", "K2-",
           "L1+", "L1-", "L2+", "L2-", "U+", "U-")
_Q_ODD = frozenset({"E1", "E2", "F1", "F2"})
_Q_PARITY = tuple(ODD if name in _Q_ODD else EVEN for name in Q_NAMES)


class RootOfUnityError(ValueError):
    """q is (numerically) a root of unity; the deformation requires generic q."""


def reject_root_of_unity(q: complex) -> None:
    """Raise :class:`RootOfUnityError` when q^k is within 1e-9 of 1 for some k <= 48,
    in double precision; |q^k - 1| >= ||q| - 1|, so only q near |q| = 1 can be."""
    try:
        q = complex(q)
    except TypeError as err:
        raise TypeError(f"cannot decide whether q = {q} is a root of unity: {err}") from err
    if q == 0:
        raise RootOfUnityError("q must be nonzero")
    if abs(abs(q) - 1) > 1e-6:
        return
    power = 1.0 + 0.0j
    for _ in range(48):
        power *= q
        if abs(power - 1.0) < 1e-9:
            raise RootOfUnityError(f"q = {q} is a root of unity up to order 48")


def qbracket(x: complex, q: complex) -> complex:
    """[x]_q = (q^x - q^{-x})/(q - q^{-1}) for a numeric exponent x."""
    return qbracket_of_power(np.exp(complex(x) * np.log(complex(q))), q)


def qbracket_of_power(qx: complex, q: complex) -> complex:
    """[x]_q given the precomputed power qx = q^x (branch-free companion)."""
    q = label_scalar(q)
    if abs(q - 1) < 1e-14 or abs(q + 1) < 1e-14:
        raise ValueError("qbracket undefined at q = +-1")
    qx = label_scalar(qx)
    return (qx - 1 / qx) / (q - 1 / q)


@dataclass(frozen=True)
class QRepLabels:
    """Deformed atypical labels: (gamma, nu, q, q^{lambda_i/2}, alpha_i).

    Construction validates that q is not a root of unity, that the deformed
    shortening constraint [l1][l2] = a1 a2 [m1][m2] holds, and that gamma^2
    matches both of its defining ratios.  Fields are stored as ``label_scalar`` gives them.
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
            val = label_scalar(getattr(self, name))
            if val == 0:
                raise ValueError(f"{name} must be nonzero")
            object.__setattr__(self, name, val)
        reject_root_of_unity(self.q)
        residual, scale = abs(self.shortening_residual()), abs(self.br_lam1 * self.br_lam2)
        if decided("the deformed shortening constraint",
                   lambda: residual > 1e-8 * max(scale, 1.0)):
            raise ValueError("labels violate the deformed shortening constraint")
        residuals, scale = [abs(r) for r in self.gamma_residuals()], abs(self.gamma) ** 2
        if decided("whether gamma is consistent with the weight powers",
                   lambda: max(residuals) > 1e-8 * max(scale, 1.0)):
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
    roots = _shortening_roots(lambda1, nu, q, alpha)
    return tuple(_root_labels(roots, root, nu, alpha, k2_branch, gamma_branch)
                 for root in (0, 1))


def q_root_labels(lambda1: complex, nu: complex, q: complex,
                  alpha: tuple[complex, complex], root: int,
                  k2_branch: int = 0, gamma_branch: int = 0) -> QRepLabels:
    """``q_labels(...)[root]``, building and validating only that root's labels."""
    return _root_labels(_shortening_roots(lambda1, nu, q, alpha), root, nu, alpha,
                        k2_branch, gamma_branch)


def _shortening_roots(lambda1: complex, nu: complex, q: complex,
                      alpha: tuple[complex, complex]):
    """(q, q^{lambda1}, (x0, x1)): the two roots of the quadratic of :func:`q_labels`."""
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
    return q, a, (x0, x1)


def _root_labels(roots, root: int, nu: complex, alpha: tuple[complex, complex],
                 k2_branch: int, gamma_branch: int) -> QRepLabels:
    """The labels on root ``root`` of :func:`_shortening_roots`."""
    q, a, xs = roots
    a1, a2 = alpha
    x = xs[root]
    k1 = np.sqrt(a)
    k2 = np.sqrt(x) * (-1) ** (k2_branch % 2)
    qmu1 = k1 * k2 * nu**2
    br_lam2 = qbracket_of_power(x, q)
    g2 = a1 * qbracket_of_power(qmu1, q) / br_lam2
    gamma = np.sqrt(g2) * (-1) ** (gamma_branch % 2)
    return QRepLabels(gamma, nu, q, k1, k2, a1, a2,
                      branch=f"root{root % 2},k2_branch={k2_branch % 2},gamma_branch={gamma_branch % 2}")


# -- representations ----------------------------------------------------------


#: Entry patterns of the deformed atypical and 4-dim images: those of the
#: undeformed modules, with the diagonal K0^{+-} written in over a zero value.
_Q_ATYPICAL_PATTERNS = ATYPICAL_PATTERNS[[0, 1, 2, 3] + [5] * 12]
_Q_KAC_PATTERNS = KAC_PATTERNS[[0, 1, 2, 3] + [5] * 12]


@memoised_by_labels
def q_atypical_rep(labels: QRepLabels) -> GeneratorImage:
    """2-dimensional deformed atypical representation on basis (w1, w0).

    K0^{+-} acts as diag(q^{-+2}, q^{-+1}); this is the diagonal consistent
    with invertibility and with the 4-dim weights, and it satisfies
    K0^+ E_i K0^- = q E_i and K0^- F_i K0^+ = q F_i exactly.  The stack has
    the scalar type of the labels.  Memoised: equal labels give one module object.
    """
    g, nu, q = labels.gamma, labels.nu, labels.q
    qlam1, qlam2, qmu1, qmu2 = labels.qlam1, labels.qlam2, labels.qmu1, labels.qmu2
    values = (g, 1 / g, labels.alpha2 * g * labels.br_mu2, labels.alpha1 * (1 / g) * labels.br_mu1,
              0, 0, qlam1, 1 / qlam1, qlam2, 1 / qlam2, qmu1, 1 / qmu1, qmu2, 1 / qmu2, nu, 1 / nu)
    stack = _Q_ATYPICAL_PATTERNS * as_entries(values)[:, None, None]
    stack[4, [0, 1], [0, 1]] = q**-2, q**-1
    stack[5, [0, 1], [0, 1]] = q**2, q
    return GeneratorImage(C11, Q_NAMES, stack, _Q_PARITY, labels.alpha, q, "q")


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
    q = label_scalar(q)
    reject_root_of_unity(q)
    qmu1 = qlam1 * qlam2 * nu**2
    qmu2 = qlam1 * qlam2 * nu**-2
    bl1 = qbracket_of_power(qlam1**2, q)
    bl2 = qbracket_of_power(qlam2**2, q)
    bm1 = qbracket_of_power(qmu1, q)
    bm2 = qbracket_of_power(qmu2, q)
    if on_shortening_locus(bl1 * bl2, a1 * a2 * bm1 * bm2, 1e-12):
        warnings.warn("weights sit on the deformed shortening locus", AtypicalLocusWarning)
    return _q_typical(qlam1, qlam2, nu, qmu1, qmu2, q, alpha, (bl1, bl2, a1 * bm1, a2 * bm2))


def _q_typical(qlam1, qlam2, nu, qmu1, qmu2, q, alpha, brackets) -> GeneratorImage:
    """:func:`q_typical_from_powers` from the powers, the weight q-brackets and
    coupled q-brackets ([l1], [l2], a1 [m1], a2 [m2]) once the locus test has passed."""
    values = (0, 0, 0, 0, 0, 0, qlam1, 1 / qlam1, qlam2, 1 / qlam2,
              qmu1, 1 / qmu1, qmu2, 1 / qmu2, nu, 1 / nu)
    stack = kac_images(_Q_KAC_PATTERNS, values, *brackets)
    diagonal = [0, 1, 2, 3]
    stack[4, diagonal, diagonal] = 1, q**-1, q**-1, q**-2
    stack[5, diagonal, diagonal] = 1, q, q, q**2
    return GeneratorImage(KAC_SPACE, Q_NAMES, stack, _Q_PARITY, alpha, q, "q")


# -- relation checker ----------------------------------------------------------


def ef_relation(i: int, j: int, l_image=lambda i, sign: f"L{i}{sign}") -> tuple[str, str, str]:
    """The case [E_i, F_j}: (K_i^{+2} - K_i^{-2})/(q - q^{-1}) on one node, alpha_i
    (L_i^+ - L_i^-)/(q - q^{-1}) across nodes, ``l_image`` spelling L_i^{+-} as a letter."""
    rhs = (f"1/(q-1/q): K{i}+ K{i}+ - K{i}- K{i}-" if i == j
           else f"alpha{i}/(q-1/q): {l_image(i, '+')} - {l_image(i, '-')}")
    return f"[E{i},F{j}]", f"[E{i},F{j}]", rhs


#: The deformed defining relations: each group-like times its inverse, the K0
#: conjugations, [E_i, F_j}, the vanishing odd pairs, the L quotients and centrality.
Q_RELATIONS = RelationTable(Q_NAMES, _Q_ODD, [
    *((f"{base}+{base}- - 1", f"{base}+ {base}-", "1")
      for base in ("K0", "K1", "K2", "L1", "L2", "U")),
    *((f"K0{s} {a} K0{t} - q {a}", f"K0{s} {a} K0{t}", f"q: {a}")
      for a, s, t in (("E1", "+", "-"), ("E2", "+", "-"), ("F1", "-", "+"), ("F2", "-", "+"))),
    *(ef_relation(i, j) for i, j in ((1, 1), (2, 2), (1, 2), (2, 1))),
    *((f"[{a},{b}]", f"[{a},{b}]", "0") for a in Q_NAMES[:4] for b in Q_NAMES[:4]
      if a[0] == b[0] and a <= b),
    ("L1+ - K1+K2+U^2", "L1+", "K1+ K2+ U+ U+"), ("L2+ - K1+K2+U^-2", "L2+", "K1+ K2+ U- U-"),
    ("L1- - K1-K2-U^-2", "L1-", "K1- K2- U- U-"), ("L2- - K1-K2-U^2", "L2-", "K1- K2- U+ U+"),
    *((f"central:[{c},{g}]", f"[{c},{g}]", "0") for c in Q_NAMES[6:] for g in Q_NAMES[:6])])


def q_check_relations(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """Residuals of the deformed defining relations (:data:`Q_RELATIONS`) in a
    representation; without couplings the [E_i, F_j} across the nodes drop out.
    Given a sequence of modules of one dimension, one report each, from one pass."""
    if any(r.q is None for r in ([rep] if isinstance(rep, GeneratorImage) else rep)):
        raise ValueError("representation carries no deformation parameter q")
    return Q_RELATIONS.check("q-algebra-relations", tolerance, rep)


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


#: The [E_i, F_j} relations, read on the coproduct stack.
_DELTA_EF = RelationTable(Q_NAMES, _Q_ODD, [(f"[Delta(E{i}),Delta(F{j})]", *ef_relation(i, j)[1:])
                                            for i, j in ((1, 2), (2, 1), (1, 1), (2, 2))])


def q_hom_report(rep_a, rep_b, tolerance: float = 1e-11) -> Report:
    """Coproduct homomorphism residuals on the mixed brackets.

    [Delta(E_i), Delta(F_j)] must reproduce alpha_i (Delta(L_i^+)-Delta(L_i^-))/(q-q^{-1}),
    which holds precisely because of the L = K K U^2 quotient.
    """
    if rep_a.alpha is None or rep_a.q is None:
        raise ValueError("representations must carry couplings and q")
    return _DELTA_EF.report("q-coproduct-homomorphism", tolerance,
                            coproduct_stack(ALGEBRAS[rep_a.kind].coproduct, rep_a, rep_b),
                            rep_a.q, rep_a.alpha)


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
    want = np.array(_q_typical(k1t, k2t, nut, qmu1t, qmu2t, q, labels_a.alpha,
                               (bl1, bl2, a1 * bm1, a2 * bm2)).stack)
    # K0 on the fused module carries the cyclic vector's multiplicative shift
    want[4] = q**-2 * want[4]
    want[5] = q**2 * want[5]
    basis, r = fusion_report(
        "q-fusion", q_atypical_rep(labels_a), q_atypical_rep(labels_b),
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
    w0w1 = (1 / k2t) * labels_b.gamma * labels_a.nu * labels_b.nu  # of w0 (x) w1'
    return np.array([0, labels_a.gamma, w0w1, 0])


def q_singlet_report(labels_a: QRepLabels, labels_b: QRepLabels,
                     tolerance: float = 1e-11) -> Report:
    """Annihilation and invariance residuals for the deformed singlet vector."""
    v = q_singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    return singlet_lines("q-singlet", q_atypical_rep(labels_a), q_atypical_rep(labels_b), v,
                         ("E1", "E2", "F1", "F2"), ("U+", "U-"), (), tolerance)


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

#: The deformed algebra's record; the group-like elements are exactly cocommutative.
ALGEBRAS["q"] = Algebra("q-", Q_COPRODUCT, _GROUP_LIKE, Q_KLEIN_ROWS)
