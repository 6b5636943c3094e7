"""R-matrices intertwining atypical representations.

Closed forms (rational in the labels, trigonometric, and q-deformed), an
independent solver that extracts the intertwiner from the SVD nullspace of
the stacked intertwining system, Yang-Baxter and unitarity checkers, and
the grading-conjugated variants for flipped modules.

The solver (its system is described at :func:`solve_intertwiner`) and
:func:`intertwining_report` read the memoised coproduct stacks of the pair on
the table of the modules' kind, so they serve the undeformed, deformed and
affine modules alike.  The closed forms and the intertwining residuals follow
the labels' scalar type (``mpmath``, ``sympy``); the solver is double only.

Conventions, fixed once:

* an R-matrix R satisfies  Delta_op(a) R = R Delta(a)  for every generator;
* the six admissible entry positions are E11xE11, E11xE22, E12xE21,
  E21xE12, E22xE11, E22xE22 (flattened with the graded Kronecker product
  of :mod:`.graded`, which puts a Koszul sign on the E12xE21 slot);
* the closed rational form is normalized by r11 = g'nn'/g - g/(g'nn').
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import GeneratorImage, RepLabels
from .coproduct import TABLES, coproduct_stack
from .graded import (C11, EVEN, SuperMatrix, graded_kron, graded_perm, identity,
                     kron_arrays, max_abs, product_table, unit)
from .qalgebra import QRepLabels
from .report import Report, c2j, residual_report

_T2 = C11.tensor(C11)


def _slot(a: int, b: int, c: int, d: int) -> tuple[tuple[int, int], int]:
    """Position and value (+-1) of the single entry of graded_kron(E_ab, E_cd)."""
    m = graded_kron(unit(C11, C11, a, b), unit(C11, C11, c, d)).m
    pos = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(m)), m.shape))
    return pos, int(m[pos].real)


#: The six admissible slots: the one entry (+-1) of each graded-Kronecker flattening.
_SLOTS = {
    "11,11": _slot(0, 0, 0, 0),
    "11,22": _slot(0, 0, 1, 1),
    "12,21": _slot(0, 1, 1, 0),
    "21,12": _slot(1, 0, 0, 1),
    "22,11": _slot(1, 1, 0, 0),
    "22,22": _slot(1, 1, 1, 1),
}
_SPARSITY_MASK = np.zeros((4, 4), dtype=bool)
_SPARSITY_MASK[tuple(zip(*(pos for pos, value in _SLOTS.values())))] = True


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
    # += onto zeros leaves every zero entry +0.0; assigning c * -1 could store -0.0
    m = np.zeros((4, 4), dtype=np.array(list(coeffs.values())).dtype)
    for slot, c in coeffs.items():
        pos, value = _SLOTS[slot]
        m[pos] += c * value
    return SuperMatrix(_T2, _T2, m, EVEN)


def slot_coefficients(r) -> dict[str, complex]:
    """Coefficients of the six admissible E x E slots of a 4x4 intertwiner."""
    mat = r.m if isinstance(r, RMatrix) else np.asarray(r)
    return {slot: complex(mat[pos] / value) for slot, (pos, value) in _SLOTS.items()}


# -- closed forms ---------------------------------------------------------------


def _require_coefficients(coeffs: dict, what: str):
    """Raise ``ValueError`` when all six coefficients are below 1e-14: the
    closed form is then the zero matrix, which intertwines nothing."""
    try:
        vanish = max(abs(c) for c in coeffs.values()) < 1e-14
    except TypeError:  # symbolic coefficients, which no comparison sizes
        vanish = all(c == 0 for c in coeffs.values())
    if vanish:
        raise ValueError(f"all six coefficients vanish: degenerate {what}")


def r_closed(labels_a: RepLabels, labels_b: RepLabels) -> RMatrix:
    """Rational closed form of the intertwiner for two atypical modules: the
    deformed coefficients :func:`rq_from_powers` at unit weight powers."""
    one = labels_a.gamma ** 0  # a unit of the labels' scalar type: exact for sympy
    coeffs = rq_from_powers(labels_a.gamma, labels_a.nu, one, one,
                            labels_b.gamma, labels_b.nu, one, one)
    _require_coefficients(coeffs, "label pair")
    return RMatrix(_assemble(coeffs), "closed", labels_a, labels_b,
                   normalization=coeffs["11,11"])


def _trig_coefficients(theta1: float, theta2: float, lam: float) -> dict[str, float]:
    """The six coefficients of the trigonometric form, by slot."""
    return {
        "11,11": np.sin(theta1 + theta2 - lam),
        "11,22": -np.sin(theta1 - theta2 + lam),
        "12,21": -np.sin(2 * theta1),
        "21,12": np.sin(2 * theta2),
        "22,11": np.sin(theta1 - theta2 - lam),
        "22,22": -np.sin(theta1 + theta2 + lam),
    }


def r_trig(theta1: float, theta2: float, lam: float) -> RMatrix:
    """Trigonometric form; equals ``r_closed/(2i)`` at nu = e^{i theta1},
    nu' = e^{i theta2}, gamma = e^{i lam} gamma'.  All entries are real.
    Raises ``ValueError`` where all six coefficients vanish, as
    :func:`r_closed` does (at theta1 = theta2 = lam = 0, for one)."""
    coeffs = _trig_coefficients(theta1, theta2, lam)
    _require_coefficients(coeffs, "angle triple")
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
    """(Delta_op, Delta) stacks of the pair on its kind's table, one row per name of ``rep_a``."""
    table = TABLES[rep_a.kind]
    rows = [table.position(name) for name in rep_a.names]
    return (coproduct_stack(table, rep_a, rep_b, opposite=True)[rows],
            coproduct_stack(table, rep_a, rep_b)[rows])


def intertwining_report(r: np.ndarray | RMatrix, rep_a: GeneratorImage,
                        rep_b: GeneratorImage, tolerance: float = 1e-11) -> Report:
    """Residuals of Delta_op(a) R - R Delta(a) for every generator."""
    mat = r.m if isinstance(r, RMatrix) else np.asarray(r)
    dop, d = _coproduct_stacks(rep_a, rep_b)
    # Delta_op @ mat: one tall product with the shared right factor
    return residual_report("intertwining", tolerance,
                           [f"intertwine:{name}" for name in rep_a.names],
                           product_table(dop, mat[None])[0], mat @ d)


def solve_intertwiner(rep_a: GeneratorImage, rep_b: GeneratorImage):
    """SVD nullspace of the stacked intertwining system.

    The rows for generator g are kron(Delta_op(g), 1) - kron(1, Delta(g)^T),
    acting on the row-major flattening of R.  They are built for every
    generator of ``rep_a`` at once by adding the two terms onto zeros, so a
    zero entry reads +0.0.  The (G n^2, n^2) system is reduced to its R
    factor first and only that n^2 x n^2 triangle is decomposed: LAPACK's
    divide-and-conquer SVD takes the same QR step itself on a system at
    least twice as tall as wide, so the singular values and right singular
    vectors are bitwise those of the full system's SVD, and no factor with
    G n^2 rows is formed.

    Returns (null vectors as n x n blocks, singular values).  A direction is
    declared null when its singular value is below 1e-8 times the largest one.
    A stack other than complex128 (``mpmath``, ``sympy``) raises ``TypeError``.
    """
    for rep in (rep_a, rep_b):
        if rep.stack.dtype != np.complex128:
            raise TypeError(f"the SVD solver runs LAPACK in complex128, not on dtype "
                            f"{rep.stack.dtype}; use the closed forms r_closed, rq_closed")
    dim = rep_a.space.dim * rep_b.space.dim
    dop, d = _coproduct_stacks(rep_a, rep_b)
    diag = np.arange(dim)
    # system[g, i, k, j, l]: row (i, k) and column (j, l) of block g
    system = np.zeros((len(dop), dim, dim, dim, dim), dtype=complex)
    system[:, :, diag, :, diag] += dop
    system[:, diag, :, diag, :] -= d.transpose(0, 2, 1)
    r = np.linalg.qr(system.reshape(-1, dim * dim), mode="r")
    _, svals, vh = np.linalg.svd(r, full_matrices=False)
    # kernel vectors are conjugated rows of vh (A = U S V^H)
    null = [vh[i].conj().reshape(dim, dim) for i in range(dim * dim)
            if svals[i] < 1e-8 * svals[0]]
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


_ONE = identity(C11).m
_P23 = graded_kron(identity(C11), graded_perm(C11, C11)).m


def ybe_embed(r12: np.ndarray, r13: np.ndarray, r23: np.ndarray) -> float:
    """max-abs of R12 R13 R23 - R23 R13 R12 with the standard graded embeddings."""
    r12, r13, r23 = (np.asarray(r, dtype=complex) for r in (r12, r13, r23))
    big12 = kron_arrays(r12, _ONE, _T2, _T2, C11, C11)
    big23 = kron_arrays(_ONE, r23, C11, C11, _T2, _T2)
    big13 = _P23 @ kron_arrays(r13, _ONE, _T2, _T2, C11, C11) @ _P23
    lhs = big12 @ big13 @ big23
    rhs = big23 @ big13 @ big12
    return max_abs(lhs - rhs)


def ybe_residual(labels1, labels2, labels3, which: str = "undeformed") -> float:
    """Yang-Baxter residual for a triple of label sets."""
    build = {"undeformed": r_closed, "deformed": rq_closed}.get(which)
    if build is None:
        raise ValueError("which must be 'undeformed' or 'deformed'")
    r12 = build(labels1, labels2).m
    r13 = build(labels1, labels3).m
    r23 = build(labels2, labels3).m
    return ybe_embed(r12, r13, r23)


def unitarity_check(theta1: float, theta2: float, lam: float) -> tuple[float, float]:
    """Residual of R(t1,t2,L) P R(t2,t1,-L) P = (cos 2L - cos(2t1+2t2))/2 * 1.

    The matrices are assembled from :func:`_trig_coefficients` without the
    degeneracy check of :func:`r_trig`: where all six coefficients vanish
    both sides are zero and the identity still holds."""
    p = graded_perm(C11, C11).m
    prod = (_assemble(_trig_coefficients(theta1, theta2, lam)).m @ p
            @ _assemble(_trig_coefficients(theta2, theta1, -lam)).m @ p)
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
    exchanges the raising/lowering entry patterns.  Everything else the
    module carries (couplings, q, kind, an evaluation module's rho) is kept.
    """
    if rep.space.dim != 2:
        raise ValueError("grading conjugation is defined for the 2-dim modules")
    return replace(rep, stack=_X @ rep.stack @ _X)


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
    """The representation pair a conjugated R-matrix intertwines: each factor
    named ``Vbar`` in ``target`` replaced by its :func:`conjugate_rep`."""
    if target not in _CONJUGATORS:
        raise KeyError(f"unknown target {target!r}")
    return tuple(conjugate_rep(rep) if name == "Vbar" else rep
                 for rep, name in zip((rep_a, rep_b), target.split("-")))
