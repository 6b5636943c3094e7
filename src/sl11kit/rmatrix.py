"""R-matrices intertwining atypical representations.

Closed forms (rational in the labels, trigonometric, and q-deformed), an
independent solver that extracts the intertwiner from the SVD nullspace of
the stacked intertwining system, Yang-Baxter and unitarity checkers, and
the grading-conjugated variants for flipped modules.

The solver and :func:`intertwining_report` read the memoised coproduct
stacks of the pair (:func:`.coproduct.coproduct_stack`).  The system has one
row block kron(Delta_op(g), 1) - kron(1, Delta(g)^T) per generator g of the
first module, built for all g in one ``einsum``; its thin SVD yields the
n^2 singular values and right singular vectors, and the left factor is
never formed.

Conventions, fixed once:

* an R-matrix R satisfies  Delta_op(a) R = R Delta(a)  for every generator;
* the six admissible entry positions are E11xE11, E11xE22, E12xE21,
  E21xE12, E22xE11, E22xE22 (flattened with the graded Kronecker product
  of :mod:`.graded`, which puts a Koszul sign on the E12xE21 slot);
* the closed rational form is normalized by r11 = g'nn'/g - g/(g'nn').
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import COPRODUCT, GeneratorImage, RepLabels
from .coproduct import coproduct_stack
from .graded import (C11, EVEN, SuperMatrix, graded_kron, graded_perm,
                     identity, max_abs, unit)
from .qalgebra import Q_COPRODUCT, QRepLabels
from .report import Report

_T2 = C11.tensor(C11)

_E11 = unit(C11, C11, 0, 0)
_E12 = unit(C11, C11, 0, 1)
_E21 = unit(C11, C11, 1, 0)
_E22 = unit(C11, C11, 1, 1)

#: Graded-Kronecker flattenings of the six admissible slots.
_SLOTS = {
    "11,11": graded_kron(_E11, _E11).m,
    "11,22": graded_kron(_E11, _E22).m,
    "12,21": graded_kron(_E12, _E21).m,
    "21,12": graded_kron(_E21, _E12).m,
    "22,11": graded_kron(_E22, _E11).m,
    "22,22": graded_kron(_E22, _E22).m,
}
_SPARSITY_MASK = sum(np.abs(m) for m in _SLOTS.values()) > 0.5


class ReducibleTensorError(ValueError):
    """The intertwiner space is not one-dimensional."""

    def __init__(self, dim: int):
        super().__init__(f"intertwiner nullspace has dimension {dim}, expected 1")
        self.dim = dim


@dataclass(frozen=True, eq=False)
class RMatrix:
    """4x4 intertwiner with its provenance and normalization scalar."""

    matrix: SuperMatrix
    form: str
    labels_a: object | None = None
    labels_b: object | None = None
    normalization: complex = 1.0

    @property
    def m(self) -> np.ndarray:
        return self.matrix.m

    def sparsity_residual(self) -> float:
        """Largest entry outside the six admissible slots."""
        off = np.where(_SPARSITY_MASK, 0.0, self.m)
        return max_abs(off)

    def to_dict(self) -> dict:
        from .report import c2j
        d = {"form": self.form, "normalization": c2j(self.normalization),
             "matrix": self.matrix.to_dict()}
        for tag, lab in (("labels_a", self.labels_a), ("labels_b", self.labels_b)):
            if lab is None:
                continue
            if hasattr(lab, "to_dict"):
                d[tag] = lab.to_dict()
            elif isinstance(lab, RepLabels):
                d[tag] = {"gamma": c2j(lab.gamma), "nu": c2j(lab.nu),
                          "alpha": [c2j(lab.alpha1), c2j(lab.alpha2)]}
            else:
                d[tag] = lab
        return d


def _assemble(coeffs: dict[str, complex]) -> SuperMatrix:
    m = sum(complex(c) * _SLOTS[slot] for slot, c in coeffs.items())
    return SuperMatrix(_T2, _T2, m, EVEN)


def slot_coefficients(r) -> dict[str, complex]:
    """Coefficients of the six admissible E x E slots of a 4x4 intertwiner."""
    mat = r.m if isinstance(r, RMatrix) else np.asarray(r)
    out = {}
    for slot, s in _SLOTS.items():
        i, j = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        out[slot] = complex(mat[i, j] / s[i, j])
    return out


# -- closed forms ---------------------------------------------------------------


def r_closed(labels_a: RepLabels, labels_b: RepLabels) -> RMatrix:
    """Rational closed form of the intertwiner for two atypical modules."""
    g, n = labels_a.gamma, labels_a.nu
    gp, np_ = labels_b.gamma, labels_b.nu
    coeffs = {
        "11,11": gp * n * np_ / g - g / (gp * n * np_),
        "11,22": gp * np_ / (g * n) - g * n / (gp * np_),
        "12,21": -(n**2 - n**-2),
        "21,12": (np_**2 - np_**-2),
        "22,11": gp * n / (g * np_) - g * np_ / (gp * n),
        "22,22": gp / (g * n * np_) - g * n * np_ / gp,
    }
    if max(abs(c) for c in coeffs.values()) < 1e-14:
        raise ValueError("all six coefficients vanish: degenerate label pair")
    return RMatrix(_assemble(coeffs), "closed", labels_a, labels_b,
                   normalization=coeffs["11,11"])


def r_trig(theta1: float, theta2: float, lam: float) -> RMatrix:
    """Trigonometric form; equals ``r_closed/(2i)`` at nu = e^{i theta1},
    nu' = e^{i theta2}, gamma = e^{i lam} gamma'.  All entries are real."""
    coeffs = {
        "11,11": np.sin(theta1 + theta2 - lam),
        "11,22": -np.sin(theta1 - theta2 + lam),
        "12,21": -np.sin(2 * theta1),
        "21,12": np.sin(2 * theta2),
        "22,11": np.sin(theta1 - theta2 - lam),
        "22,22": -np.sin(theta1 + theta2 + lam),
    }
    return RMatrix(_assemble(coeffs), "trig", (theta1, theta2, lam), None,
                   normalization=coeffs["11,11"])


def rq_from_powers(gamma: complex, nu: complex, qlam1: complex, qlam2: complex,
                   gamma_p: complex, nu_p: complex, qlam1_p: complex,
                   qlam2_p: complex) -> dict[str, complex]:
    """Deformed coefficients from the weight powers q^{lambda_i/2} directly.

    Exposed separately so the q -> 1 formula limit can be probed along
    arbitrary weight paths without constructing on-shell labels.
    """
    g, n, k1, k2 = gamma, nu, qlam1, qlam2
    gp, npp, k1p, k2p = gamma_p, nu_p, qlam1_p, qlam2_p
    return {
        "11,11": (k1 / k2p) * gp * n * npp / g - (k2 / k1p) * g / (gp * n * npp),
        "11,22": (1 / (k1 * k2p)) * gp * npp / (g * n) - (1 / (k1p * k2)) * g * n / (gp * npp),
        "12,21": -((k1 / k2) * n**2 - (k2 / k1) * n**-2),
        "21,12": (k1p / k2p) * npp**2 - (k2p / k1p) * npp**-2,
        "22,11": (k1 * k2p) * gp * n / (g * npp) - (k1p * k2) * g * npp / (gp * n),
        "22,22": (k2p / k1) * gp / (g * n * npp) - (k1p / k2) * g * n * npp / gp,
    }


def rq_closed(labels_a: QRepLabels, labels_b: QRepLabels) -> RMatrix:
    """Deformed closed form of the intertwiner for two deformed atypical modules."""
    if abs(labels_a.q - labels_b.q) > 1e-12:
        raise ValueError("both label sets must share the deformation parameter q")
    coeffs = rq_from_powers(labels_a.gamma, labels_a.nu, labels_a.qlam1,
                            labels_a.qlam2, labels_b.gamma, labels_b.nu,
                            labels_b.qlam1, labels_b.qlam2)
    return RMatrix(_assemble(coeffs), "q-closed", labels_a, labels_b,
                   normalization=coeffs["11,11"])


# -- intertwining and the solver oracle -----------------------------------------


def _coproduct_stacks(rep_a: GeneratorImage, rep_b: GeneratorImage):
    """(Delta_op, Delta) stacks of the pair, one slice per name of ``rep_a``."""
    table = Q_COPRODUCT if rep_a.kind == "q" else COPRODUCT
    rows = [table.position(name) for name in rep_a.names]
    return (coproduct_stack(table, rep_a, rep_b, opposite=True)[rows],
            coproduct_stack(table, rep_a, rep_b)[rows])


def intertwining_report(r: np.ndarray | RMatrix, rep_a: GeneratorImage,
                        rep_b: GeneratorImage, tolerance: float = 1e-11) -> Report:
    """Residuals of Delta_op(a) R - R Delta(a) for every generator."""
    mat = r.m if isinstance(r, RMatrix) else np.asarray(r)
    dop, d = _coproduct_stacks(rep_a, rep_b)
    residuals = np.abs(dop @ mat - mat @ d).max(axis=(1, 2))
    rpt = Report("intertwining", tolerance)
    for name, res in zip(rep_a.names, residuals):
        rpt.add(f"intertwine:{name}", res)
    return rpt


def solve_intertwiner(rep_a: GeneratorImage, rep_b: GeneratorImage,
                      null_threshold: float = 1e-8):
    """SVD nullspace of the stacked intertwining system.

    The rows for generator g are kron(Delta_op(g), 1) - kron(1, Delta(g)^T),
    acting on the row-major flattening of R; they are built for every
    generator of ``rep_a`` at once.  The thin SVD gives the n^2 singular
    values and right singular vectors without the unused left factor.

    Returns (null vectors as n x n blocks, singular values).  A direction is
    declared null when its singular value is below ``null_threshold`` times
    the largest one.
    """
    dim = rep_a.space.dim * rep_b.space.dim
    dop, d = _coproduct_stacks(rep_a, rep_b)
    eye = np.broadcast_to(np.eye(dim), dop.shape)
    # sum over s of kron(A_s, B_s) with (A, B) = (Delta_op, 1), (1, -Delta^T)
    system = np.einsum("sgij,sgkl->gikjl", np.stack([dop, eye]),
                       np.stack([eye, -d.transpose(0, 2, 1)]))
    _, svals, vh = np.linalg.svd(system.reshape(-1, dim * dim), full_matrices=False)
    # kernel vectors are conjugated rows of vh (A = U S V^H)
    null = [vh[i].conj().reshape(dim, dim) for i in range(dim * dim)
            if svals[i] < null_threshold * svals[0]]
    return null, svals


def r_solve(rep_a: GeneratorImage, rep_b: GeneratorImage,
            match_r11: complex | None = None) -> RMatrix:
    """Independent intertwiner: nullspace vector of the stacked linear system.

    Normalized either to a prescribed E11xE11 coefficient (``match_r11``) or,
    by default, so the largest-magnitude entry is 1 with zero phase.
    Raises :class:`ReducibleTensorError` when the nullspace is not a line.
    """
    null, _ = solve_intertwiner(rep_a, rep_b)
    if len(null) != 1:
        raise ReducibleTensorError(len(null))
    mat = null[0]
    if match_r11 is not None:
        if abs(mat[0, 0]) < 1e-12:
            raise ValueError("cannot normalize: E11xE11 coefficient vanishes")
        mat = mat * (complex(match_r11) / mat[0, 0])
        norm = complex(match_r11)
    else:
        idx = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
        mat = mat / mat[idx]
        norm = 1.0
    space = rep_a.space.tensor(rep_b.space)
    return RMatrix(SuperMatrix(space, space, mat), "solved",
                   normalization=norm)


# -- Yang-Baxter -----------------------------------------------------------------


def ybe_embed(r12: np.ndarray, r13: np.ndarray, r23: np.ndarray) -> float:
    """max-abs of R12 R13 R23 - R23 R13 R12 with the standard graded embeddings."""
    one = identity(C11)
    sm = lambda m: SuperMatrix(_T2, _T2, m, EVEN)
    big12 = graded_kron(sm(r12), one).m
    big23 = graded_kron(one, sm(r23)).m
    perm23 = graded_kron(one, graded_perm(C11, C11)).m
    big13 = perm23 @ graded_kron(sm(r13), one).m @ perm23
    lhs = big12 @ big13 @ big23
    rhs = big23 @ big13 @ big12
    return max_abs(lhs - rhs)


def ybe_residual(labels1, labels2, labels3, which: str = "undeformed") -> float:
    """Yang-Baxter residual for a triple of label sets."""
    if which == "undeformed":
        build = r_closed
    elif which == "deformed":
        build = rq_closed
    else:
        raise ValueError("which must be 'undeformed' or 'deformed'")
    r12 = build(labels1, labels2).m
    r13 = build(labels1, labels3).m
    r23 = build(labels2, labels3).m
    return ybe_embed(r12, r13, r23)


def unitarity_check(theta1: float, theta2: float, lam: float) -> tuple[float, float]:
    """Residual of R(t1,t2,L) P R(t2,t1,-L) P = (cos 2L - cos(2t1+2t2))/2 * 1."""
    p = graded_perm(C11, C11).m
    prod = r_trig(theta1, theta2, lam).m @ p @ r_trig(theta2, theta1, -lam).m @ p
    scalar = 0.5 * (np.cos(2 * lam) - np.cos(2 * theta1 + 2 * theta2))
    return max_abs(prod - scalar * np.eye(4)), float(scalar)


# -- grading conjugation ----------------------------------------------------------

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_IX = np.kron(np.eye(2), _X)
_XI = np.kron(_X, np.eye(2))
_D1 = np.diag([1.0, 1.0, -1.0, -1.0])  # (-1)^{parity} on the first factor

#: Conjugators G with R_target = G R G^{-1}; derived so that the output
#: intertwines the corresponding basis-reordered (grading-flipped) modules.
_CONJUGATORS = {
    "V-Vbar": (_D1 @ _IX, _D1 @ _IX),          # involution
    "Vbar-V": (_XI, _XI),                      # involution
    "Vbar-Vbar": (_XI @ _D1 @ _IX, -_XI @ _D1 @ _IX),  # G^2 = -1
}


def conjugate_rep(rep: GeneratorImage) -> GeneratorImage:
    """The same module with the opposite grading convention.

    Realized by reversing the basis order, so the first basis vector stays
    even; every generator matrix is conjugated by the basis swap, which
    exchanges the raising/lowering entry patterns.
    """
    if rep.space.dim != 2:
        raise ValueError("grading conjugation is defined for the 2-dim modules")
    x = SuperMatrix(rep.space, rep.space, _X, EVEN)
    imgs = {name: x @ rep[name] @ x for name in rep.names}
    return GeneratorImage(rep.space, imgs, alpha=rep.alpha, q=rep.q, kind=rep.kind)


def conjugate_r(r: RMatrix, target: str) -> RMatrix:
    """Conjugated R-matrix for one of the grading-flipped module pairs.

    ``target`` is one of ``V-Vbar``, ``Vbar-V``, ``Vbar-Vbar``; the output
    intertwines the pair with the indicated factors replaced by their
    :func:`conjugate_rep`.
    """
    try:
        g, ginv = _CONJUGATORS[target]
    except KeyError:
        raise KeyError(f"unknown target {target!r}; choose from {sorted(_CONJUGATORS)}") from None
    mat = g @ r.m @ ginv
    return RMatrix(SuperMatrix(r.matrix.space_out, r.matrix.space_in, mat),
                   f"conjugated:{target}", r.labels_a, r.labels_b, r.normalization)


def conjugated_pair(rep_a: GeneratorImage, rep_b: GeneratorImage,
                    target: str) -> tuple[GeneratorImage, GeneratorImage]:
    """The representation pair a conjugated R-matrix intertwines."""
    if target == "V-Vbar":
        return rep_a, conjugate_rep(rep_b)
    if target == "Vbar-V":
        return conjugate_rep(rep_a), rep_b
    if target == "Vbar-Vbar":
        return conjugate_rep(rep_a), conjugate_rep(rep_b)
    raise KeyError(f"unknown target {target!r}")
