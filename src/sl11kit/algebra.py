"""The centrally extended sl(1|1)^2 superalgebra with group-like central u.

Representations are stored as :class:`GeneratorImage`: a named map from the
generators (e1, e2, f1, f2, h0, h1, h2, k1, k2, u+, u-) to supermatrices on
a common graded space, together with the central-extension couplings
(alpha1, alpha2) that tie k_i to alpha_i (u^2 - u^{-2}).

The algebra carries a two-parameter family of u-deformed coproducts; at
representation level these are assembled with the Koszul-signed tensor
product from :mod:`.graded`, and the opposite coproduct is obtained by
conjugation with the graded permutation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coproduct import CoproductTable, coproduct_matrix, word_matrix
from .graded import (C11, EVEN, ODD, GradedSpace, SuperMatrix, graded_comm,
                     graded_kron, identity, max_abs, unit, zeros)
from .report import Report, c2j

CLASSICAL_NAMES = ("e1", "e2", "f1", "f2", "h0", "h1", "h2", "k1", "k2", "u+", "u-")
_ODD_NAMES = frozenset({"e1", "e2", "f1", "f2"})

#: 4-dimensional highest-weight module space, basis (v0, v1, v2, v21).
KAC_SPACE = GradedSpace(4, (EVEN, ODD, ODD, EVEN))


class AtypicalLocusWarning(UserWarning):
    """Weights sit on the shortening locus; the 4-dim module is reducible."""


class DegenerateFusionError(ValueError):
    """The fused weights land on the shortening locus."""


class SingletPreconditionError(ValueError):
    """The requested pair of label sets does not admit a singlet."""


@dataclass(frozen=True)
class RepLabels:
    """Atypical representation labels (gamma, nu, alpha1, alpha2).

    The weights are always derived: mu_i = alpha_i (nu^2 - nu^{-2}),
    lambda1 = gamma^2 mu2, lambda2 = gamma^{-2} mu1, so the shortening
    constraint lambda1 lambda2 = mu1 mu2 holds identically.  ``gamma`` is
    stored directly; which square root of gamma^2 to use is the caller's
    choice.
    """

    gamma: complex
    nu: complex
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        for name in ("gamma", "nu", "alpha1", "alpha2"):
            val = complex(getattr(self, name))
            if val == 0:
                raise ValueError(f"{name} must be nonzero")
            object.__setattr__(self, name, val)

    @property
    def mu1(self) -> complex:
        return self.alpha1 * (self.nu**2 - self.nu**-2)

    @property
    def mu2(self) -> complex:
        return self.alpha2 * (self.nu**2 - self.nu**-2)

    @property
    def lambda1(self) -> complex:
        return self.gamma**2 * self.mu2

    @property
    def lambda2(self) -> complex:
        return self.gamma**-2 * self.mu1

    @property
    def degenerate(self) -> bool:
        """True when nu^4 = 1, which kills both central charges mu_i."""
        return abs(self.nu**2 - self.nu**-2) < 1e-12

    @property
    def alpha(self) -> tuple[complex, complex]:
        return (self.alpha1, self.alpha2)


def default_alpha(h: complex) -> tuple[complex, complex]:
    """The usual coupling convention alpha1 = -alpha2 = -h/2."""
    return (-h / 2, h / 2)


@dataclass(frozen=True, eq=False)
class GeneratorImage:
    """A representation: generator name -> supermatrix on a common space."""

    space: GradedSpace
    images: Mapping[str, SuperMatrix]
    alpha: tuple[complex, complex] | None = None
    q: complex | None = None
    kind: str = "classical"

    def __post_init__(self):
        imgs = dict(self.images)
        for name, mat in imgs.items():
            if mat.space_out != self.space or mat.space_in != self.space:
                raise ValueError(f"image of {name} is not an operator on the carrier space")
        object.__setattr__(self, "images", MappingProxyType(imgs))

    def __getitem__(self, name: str) -> SuperMatrix:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.images)

    def to_dict(self) -> dict:
        d = {
            "space": {"dim": self.space.dim, "parity": list(self.space.parity)},
            "generators": {name: mat.to_dict() for name, mat in self.images.items()},
            "kind": self.kind,
        }
        if self.alpha is not None:
            d["alpha"] = [c2j(self.alpha[0]), c2j(self.alpha[1])]
        if self.q is not None:
            d["q"] = c2j(self.q)
        return d

    @staticmethod
    def from_dict(d: dict) -> "GeneratorImage":
        space = GradedSpace(int(d["space"]["dim"]), tuple(d["space"]["parity"]))
        imgs = {name: SuperMatrix.from_dict(md) for name, md in d["generators"].items()}
        alpha = None
        if "alpha" in d:
            a1, a2 = d["alpha"]
            alpha = (complex(*a1), complex(*a2))
        q = complex(*d["q"]) if "q" in d else None
        return GeneratorImage(space, imgs, alpha, q, d.get("kind", "classical"))


def _scalar_part(mat: SuperMatrix, tol: float = 1e-9) -> complex | None:
    """c such that mat = c * identity, or None."""
    c = complex(np.trace(mat.m)) / mat.space_out.dim
    if max_abs(mat.m - c * np.eye(mat.space_out.dim)) <= tol * max(1.0, abs(c)):
        return c
    return None


# -- representation constructors ---------------------------------------------


def atypical_rep(labels: RepLabels) -> GeneratorImage:
    """The 2-dimensional atypical representation on basis (w1, w0).

    w1 is even and w0 odd; e_i lower w1 -> w0, f_i raise w0 -> w1, and the
    central elements act by the scalars lambda_i, mu_i, nu^{+-1}.  When
    nu^4 = 1 the representation is degenerate (``labels.degenerate``): the
    f images and all weights vanish.
    """
    g, nu = labels.gamma, labels.nu
    E12 = unit(C11, C11, 0, 1)
    E21 = unit(C11, C11, 1, 0)
    one = identity(C11)
    h0 = SuperMatrix(C11, C11, np.diag([-2.0, -1.0]), EVEN)
    imgs = {
        "e1": g * E21,
        "e2": (1 / g) * E21,
        "f1": g * labels.mu2 * E12,
        "f2": (1 / g) * labels.mu1 * E12,
        "h0": h0,
        "h1": labels.lambda1 * one,
        "h2": labels.lambda2 * one,
        "k1": labels.mu1 * one,
        "k2": labels.mu2 * one,
        "u+": nu * one,
        "u-": (1 / nu) * one,
    }
    return GeneratorImage(C11, imgs, alpha=labels.alpha)


def typical_rep(lambda1: complex, lambda2: complex, nu: complex,
                alpha: tuple[complex, complex]) -> GeneratorImage:
    """The 4-dimensional highest-weight module on basis (v0, v1, v2, v21).

    f1.v0 = v1, f2.v0 = v2, f2.v1 = -f1.v2 = v21; central elements act by
    scalars.  Warns when the weights sit on the shortening locus.
    """
    a1, a2 = alpha
    mu1 = a1 * (nu**2 - nu**-2)
    mu2 = a2 * (nu**2 - nu**-2)
    scale = max(abs(lambda1 * lambda2), abs(mu1 * mu2), 1.0)
    if abs(lambda1 * lambda2 - mu1 * mu2) <= 1e-12 * scale:
        warnings.warn("weights sit on the shortening locus", AtypicalLocusWarning)
    V = KAC_SPACE
    f1 = np.zeros((4, 4), dtype=complex)
    f1[1, 0] = 1.0
    f1[3, 2] = -1.0
    f2 = np.zeros((4, 4), dtype=complex)
    f2[2, 0] = 1.0
    f2[3, 1] = 1.0
    e1 = np.zeros((4, 4), dtype=complex)
    e1[0, 1] = lambda1
    e1[0, 2] = mu1
    e1[1, 3] = mu1
    e1[2, 3] = -lambda1
    e2 = np.zeros((4, 4), dtype=complex)
    e2[0, 1] = mu2
    e2[0, 2] = lambda2
    e2[1, 3] = lambda2
    e2[2, 3] = -mu2
    eye = np.eye(4)
    imgs = {
        "e1": SuperMatrix(V, V, e1, ODD),
        "e2": SuperMatrix(V, V, e2, ODD),
        "f1": SuperMatrix(V, V, f1, ODD),
        "f2": SuperMatrix(V, V, f2, ODD),
        "h0": SuperMatrix(V, V, np.diag([0.0, -1.0, -1.0, -2.0]), EVEN),
        "h1": SuperMatrix(V, V, lambda1 * eye, EVEN),
        "h2": SuperMatrix(V, V, lambda2 * eye, EVEN),
        "k1": SuperMatrix(V, V, mu1 * eye, EVEN),
        "k2": SuperMatrix(V, V, mu2 * eye, EVEN),
        "u+": SuperMatrix(V, V, nu * eye, EVEN),
        "u-": SuperMatrix(V, V, (1 / nu) * eye, EVEN),
    }
    return GeneratorImage(V, imgs, alpha=alpha)


# -- relation checker ---------------------------------------------------------


def check_relations(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """Residuals of all defining relations in a representation.

    Covers the e-f brackets, the h0 grading brackets, triviality of the
    remaining brackets, centrality of h_i, k_i, u^{+-}, invertibility of u,
    and (when the representation carries couplings) the central-extension
    constraints k_i = alpha_i (u^2 - u^{-2}).
    """
    rep_names = set(rep.names)
    missing = [n for n in CLASSICAL_NAMES if n not in rep_names]
    if missing:
        raise KeyError(f"missing generator images: {missing}")
    r = Report("algebra-relations", tolerance)
    im = rep.images
    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for (a, b), t in targets.items():
        res = max_abs(graded_comm(im[a], im[b], ODD, ODD) - im[t])
        r.add(f"[{a},{b}]-{t}", res)
    for a in ("e1", "e2"):
        r.add(f"[h0,{a}]-{a}", max_abs(graded_comm(im["h0"], im[a], EVEN, ODD) - im[a]))
    for a in ("f1", "f2"):
        r.add(f"[h0,{a}]+{a}", max_abs(graded_comm(im["h0"], im[a], EVEN, ODD) + im[a]))
    for a, b in (("e1", "e1"), ("e1", "e2"), ("e2", "e2"),
                 ("f1", "f1"), ("f1", "f2"), ("f2", "f2")):
        r.add(f"[{a},{b}]", max_abs(graded_comm(im[a], im[b], ODD, ODD)))
    r.add("u+u- - 1", max_abs(im["u+"] @ im["u-"] - identity(rep.space)))
    for c in ("h1", "h2", "k1", "k2", "u+", "u-"):
        pc = EVEN
        for g in CLASSICAL_NAMES:
            pg = ODD if g in _ODD_NAMES else EVEN
            r.add(f"central:[{c},{g}]", max_abs(graded_comm(im[c], im[g], pc, pg)))
    if rep.alpha is not None:
        a1, a2 = rep.alpha
        usq = im["u+"] @ im["u+"] - im["u-"] @ im["u-"]
        r.add("k1 - alpha1(u^2-u^-2)", max_abs(im["k1"] - a1 * usq))
        r.add("k2 - alpha2(u^2-u^-2)", max_abs(im["k2"] - a2 * usq))
    return r


# -- coproduct ----------------------------------------------------------------

COPRODUCT = CoproductTable({
    "e1": ((1, ("e1",), ("u-",)), (1, ("u+",), ("e1",))),
    "e2": ((1, ("e2",), ("u+",)), (1, ("u-",), ("e2",))),
    "f1": ((1, ("f1",), ("u+",)), (1, ("u-",), ("f1",))),
    "f2": ((1, ("f2",), ("u-",)), (1, ("u+",), ("f2",))),
    "h0": ((1, ("h0",), ()), (1, (), ("h0",))),
    "h1": ((1, ("h1",), ()), (1, (), ("h1",))),
    "h2": ((1, ("h2",), ()), (1, (), ("h2",))),
    "k1": ((1, ("k1",), ("u-", "u-")), (1, ("u+", "u+"), ("k1",))),
    "k2": ((1, ("k2",), ("u+", "u+")), (1, ("u-", "u-"), ("k2",))),
    "u+": ((1, ("u+",), ("u+",)),),
    "u-": ((1, ("u-",), ("u-",)),),
})

#: Antipode on generators: name -> (image name, coefficient); u+ <-> u-.
_ANTIPODE = {name: (name, -1) for name in CLASSICAL_NAMES if not name.startswith("u")}
_ANTIPODE["u+"] = ("u-", 1)
_ANTIPODE["u-"] = ("u+", 1)

_COUNIT = {name: (1 if name.startswith("u") else 0) for name in CLASSICAL_NAMES}


def coproduct_image(name: str, rep_a: GeneratorImage, rep_b: GeneratorImage,
                    opposite: bool = False) -> SuperMatrix:
    """Matrix of Delta(g) (or the opposite coproduct) on the graded tensor space.

    A slice of the memoised :func:`.coproduct.coproduct_stack` of the pair.
    """
    return coproduct_matrix(COPRODUCT, name, rep_a, rep_b, opposite)


def coassociativity_report(rep_a: GeneratorImage, rep_b: GeneratorImage,
                           rep_c: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """(Delta x id)Delta = (id x Delta)Delta on the triple tensor space.

    Slot products are expanded with Delta as an algebra map, so dressed
    terms like u+ k1 coproduce as products of the individual coproducts.
    """
    r = Report("coassociativity", tolerance)
    for name in CLASSICAL_NAMES:
        left = zeros(rep_a.space.tensor(rep_b.space).tensor(rep_c.space),
                     rep_a.space.tensor(rep_b.space).tensor(rep_c.space), None)
        right = left
        for coeff, lf, rf in COPRODUCT.terms[name]:
            dl = identity(rep_a.space.tensor(rep_b.space))
            for n in lf:
                dl = dl @ coproduct_image(n, rep_a, rep_b)
            left = left + coeff * graded_kron(dl, word_matrix(rep_c, rf))
            dr = identity(rep_b.space.tensor(rep_c.space))
            for n in rf:
                dr = dr @ coproduct_image(n, rep_b, rep_c)
            right = right + coeff * graded_kron(word_matrix(rep_a, lf), dr)
        r.add(f"coassoc:{name}", max_abs(left - right))
    return r


def counit_antipode_report(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """m(S x id)Delta(g) = eps(g) 1 evaluated in a single representation."""
    r = Report("counit-antipode", tolerance)
    for name in CLASSICAL_NAMES:
        acc = zeros(rep.space, rep.space)
        for coeff, left, right in COPRODUCT.terms[name]:
            s_mat = identity(rep.space)
            for n in reversed(left):  # antipode is an anti-homomorphism
                src, sc = _ANTIPODE[n]
                s_mat = s_mat @ (sc * rep[src])
            acc = acc + coeff * (s_mat @ word_matrix(rep, right))
        r.add(f"antipode:{name}", max_abs(acc - _COUNIT[name] * identity(rep.space)))
    return r


def cocommutativity_report(rep_a: GeneratorImage, rep_b: GeneratorImage,
                           tolerance: float = 1e-10) -> Report:
    """Delta = Delta^op on the central elements (this is what the k_i constraint buys)."""
    r = Report("central-cocommutativity", tolerance)
    for name in ("h1", "h2", "k1", "k2", "u+", "u-"):
        diff = coproduct_image(name, rep_a, rep_b) - coproduct_image(
            name, rep_a, rep_b, opposite=True)
        r.add(f"cocomm:{name}", max_abs(diff))
    return r


# -- fusion and the singlet ---------------------------------------------------


@dataclass
class FusionResult:
    lambda1: complex
    lambda2: complex
    nu: complex
    basis: np.ndarray
    report: Report


def fuse_check(labels_a: RepLabels, labels_b: RepLabels,
               tolerance: float = 1e-10) -> FusionResult:
    """Identify the product of two atypical modules with a 4-dim module.

    Builds the cyclic basis from the highest vector w0 (x) w0', verifies the
    fused weights, and conjugates every coproduct image into the standard
    4-dim matrices (h0 is compared up to the additive shift -2, the weight
    of the chosen cyclic vector).
    """
    if max(abs(labels_a.alpha1 - labels_b.alpha1),
           abs(labels_a.alpha2 - labels_b.alpha2)) > 1e-12:
        raise ValueError("fusion requires identical couplings alpha_i")
    rep_a, rep_b = atypical_rep(labels_a), atypical_rep(labels_b)
    lam1 = labels_a.lambda1 + labels_b.lambda1
    lam2 = labels_a.lambda2 + labels_b.lambda2
    nu_t = labels_a.nu * labels_b.nu
    a1, a2 = labels_a.alpha
    mu1 = a1 * (nu_t**2 - nu_t**-2)
    mu2 = a2 * (nu_t**2 - nu_t**-2)
    scale = max(abs(lam1 * lam2), abs(mu1 * mu2), 1.0)
    if abs(lam1 * lam2 - mu1 * mu2) <= 1e-10 * scale:
        raise DegenerateFusionError(
            "fused weights satisfy the shortening constraint; the product is reducible")

    def cop(name):
        return coproduct_image(name, rep_a, rep_b)

    v0 = np.zeros(4, dtype=complex)
    v0[3] = 1.0  # w0 (x) w0'
    v1 = cop("f1").m @ v0
    v2 = cop("f2").m @ v0
    v21 = cop("f2").m @ (cop("f1").m @ v0)
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report("fusion", tolerance)
    for name, val in (("h1", lam1), ("h2", lam2), ("k1", mu1), ("k2", mu2),
                      ("u+", nu_t), ("u-", 1 / nu_t)):
        r.add(f"weight:{name}", max_abs(cop(name).m @ v0 - val * v0),
              expected=val)
    r.add("e1.v21", max_abs(cop("e1").m @ v21 - (mu1 * v1 - lam1 * v2)))
    r.add("e2.v21", max_abs(cop("e2").m @ v21 - (lam2 * v1 - mu2 * v2)))

    target = typical_rep(lam1, lam2, nu_t, labels_a.alpha)
    binv = np.linalg.inv(basis)
    shift = {"h0": -2.0}
    for name in CLASSICAL_NAMES:
        want = target[name].m + shift.get(name, 0.0) * np.eye(4)
        got = binv @ cop(name).m @ basis
        r.add(f"basis-conjugation:{name}", max_abs(got - want))
    return FusionResult(lam1, lam2, nu_t, basis, r)


def singlet_vector(labels_a: RepLabels, labels_b: RepLabels,
                   tolerance: float = 1e-10) -> np.ndarray:
    """The invariant vector gamma w1 (x) w0' + gamma' nu nu' w0 (x) w1'.

    Requires all fused weights to vanish and nu nu' = 1; the failing
    quantities are itemized otherwise.
    """
    lam1 = labels_a.lambda1 + labels_b.lambda1
    lam2 = labels_a.lambda2 + labels_b.lambda2
    nunu = labels_a.nu * labels_b.nu
    a1, a2 = labels_a.alpha
    mu1 = a1 * (nunu**2 - nunu**-2)
    mu2 = a2 * (nunu**2 - nunu**-2)
    bad = [f"{nm} = {val:.3e}" for nm, val in
           (("lambda~1", lam1), ("lambda~2", lam2), ("mu~1", mu1), ("mu~2", mu2),
            ("nu nu' - 1", nunu - 1))
           if abs(val) > tolerance]
    if bad:
        raise SingletPreconditionError(
            "labels do not admit a singlet; nonzero: " + "; ".join(bad))
    v = np.zeros(4, dtype=complex)
    v[1] = labels_a.gamma            # w1 (x) w0'
    v[2] = labels_b.gamma * labels_a.nu * labels_b.nu   # w0 (x) w1'
    return v


def singlet_report(labels_a: RepLabels, labels_b: RepLabels,
                   tolerance: float = 1e-11) -> Report:
    """Annihilation and invariance residuals for the singlet vector."""
    v = singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    rep_a, rep_b = atypical_rep(labels_a), atypical_rep(labels_b)
    r = Report("singlet", tolerance)
    for name in ("e1", "e2", "f1", "f2"):
        r.add(f"annihilation:{name}",
              max_abs(coproduct_image(name, rep_a, rep_b).m @ v))
    for name in ("u+", "u-"):
        r.add(f"invariance:{name}",
              max_abs(coproduct_image(name, rep_a, rep_b).m @ v - v))
    h0v = coproduct_image("h0", rep_a, rep_b).m @ v
    coeff = np.vdot(v, h0v) / np.vdot(v, v)
    r.add("h0-eigenvector", max_abs(h0v - coeff * v), eigenvalue=complex(coeff))
    return r


# -- twists -------------------------------------------------------------------

#: The three non-trivial involutive outer twists; each entry maps a target
#: generator to (source generator, coefficient), plus the coupling map.
KLEIN_ROWS = {
    # e_i <-> f_i, k1 <-> k2, h0 -> -h0, u -> u^{-1}
    "ef": ({"e1": ("f1", 1), "e2": ("f2", 1), "f1": ("e1", 1), "f2": ("e2", 1),
            "h0": ("h0", -1), "h1": ("h1", 1), "h2": ("h2", 1),
            "k1": ("k2", 1), "k2": ("k1", 1), "u+": ("u-", 1), "u-": ("u+", 1)},
           lambda a: (-a[1], -a[0])),
    # e_i <-> f_j across nodes, h1 <-> h2, h0 -> -h0
    "ef_cross": ({"e1": ("f2", 1), "e2": ("f1", 1), "f1": ("e2", 1), "f2": ("e1", 1),
                  "h0": ("h0", -1), "h1": ("h2", 1), "h2": ("h1", 1),
                  "k1": ("k1", 1), "k2": ("k2", 1), "u+": ("u+", 1), "u-": ("u-", 1)},
                 lambda a: a),
    # node swap 1 <-> 2, u -> u^{-1}
    "nodes": ({"e1": ("e2", 1), "e2": ("e1", 1), "f1": ("f2", 1), "f2": ("f1", 1),
               "h0": ("h0", 1), "h1": ("h2", 1), "h2": ("h1", 1),
               "k1": ("k2", 1), "k2": ("k1", 1), "u+": ("u-", 1), "u-": ("u+", 1)},
              lambda a: (-a[1], -a[0])),
}


def klein_twist(name: str, rep: GeneratorImage) -> GeneratorImage:
    """Apply one of the three involutive outer automorphisms to a representation.

    The u-inverting rows also flip the couplings, (a1, a2) -> (-a2, -a1),
    as required for the central-extension constraint to survive.
    """
    try:
        table, alpha_map = KLEIN_ROWS[name]
    except KeyError:
        raise KeyError(f"unknown twist {name!r}; choose from {sorted(KLEIN_ROWS)}") from None
    imgs = {g: coeff * rep[src] for g, (src, coeff) in table.items()}
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return GeneratorImage(rep.space, imgs, alpha=alpha, kind=rep.kind)


def gl2_twist(a: np.ndarray, b: np.ndarray, rep: GeneratorImage) -> GeneratorImage:
    """Outer GL(2) x GL(2) twist: e by A, f by B, the h/k block by A (.) B^t.

    The effective couplings of the twisted representation are recovered from
    its (scalar) k images when possible, so the constraint checks remain
    meaningful.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if abs(np.linalg.det(a)) < 1e-14 or abs(np.linalg.det(b)) < 1e-14:
        raise ValueError("twist matrices must be invertible")
    e = [rep["e1"], rep["e2"]]
    f = [rep["f1"], rep["f2"]]
    hk = [[rep["h1"], rep["k1"]], [rep["k2"], rep["h2"]]]
    new_e = [a[r, 0] * e[0] + a[r, 1] * e[1] for r in range(2)]
    new_f = [b[r, 0] * f[0] + b[r, 1] * f[1] for r in range(2)]

    def hk_entry(r, c):
        acc = zeros(rep.space, rep.space)
        for s in range(2):
            for t in range(2):
                acc = acc + (a[r, s] * b[c, t]) * hk[s][t]
        return acc

    imgs = {
        "e1": new_e[0], "e2": new_e[1], "f1": new_f[0], "f2": new_f[1],
        "h0": rep["h0"], "u+": rep["u+"], "u-": rep["u-"],
        "h1": hk_entry(0, 0), "k1": hk_entry(0, 1),
        "k2": hk_entry(1, 0), "h2": hk_entry(1, 1),
    }
    alpha = None
    nu = _scalar_part(rep["u+"])
    if nu is not None and abs(nu**2 - nu**-2) > 1e-12:
        k1c = _scalar_part(imgs["k1"])
        k2c = _scalar_part(imgs["k2"])
        if k1c is not None and k2c is not None:
            alpha = (k1c / (nu**2 - nu**-2), k2c / (nu**2 - nu**-2))
    return GeneratorImage(rep.space, imgs, alpha=alpha, kind=rep.kind)
