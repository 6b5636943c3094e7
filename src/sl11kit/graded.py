"""Z2-graded linear algebra over dense matrices.

A :class:`GradedSpace` assigns a parity bit to every basis vector; a
:class:`SuperMatrix` is a dense matrix between two graded spaces.
The graded tensor product :func:`graded_kron` inserts Koszul signs so that
ordinary multiplication of the flattened matrices reproduces the product
rule of graded operators,

    (X (x) Y)(X' (x) Y') = (-1)^{p(X') p(Y)} (XX') (x) (YY'),

for homogeneous factors.  The sign convention is fixed once, entrywise:

    (A (x) B)[(i,k),(j,l)] = A[i,j] * B[k,l] * (-1)^{p(k)(p(i)+p(j))}

where p(i), p(j) are the row/column parities of the A factor and p(k) is
the row parity of the B factor.  Every other module builds on this choice;
do not mix flattenings.  Signs and permutations are exact integers.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

EVEN = 0
ODD = 1

_PARITY_NAMES = {0: 0, 1: 1, "even": 0, "odd": 1}


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional Z2-graded vector space: one parity bit per basis vector."""

    dim: int
    parity: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("graded space must have positive dimension")
        parity = tuple(_PARITY_NAMES[p] for p in self.parity)
        object.__setattr__(self, "parity", parity)
        if len(parity) != self.dim:
            raise ValueError("parity list length must equal dim")

    def tensor(self, other: "GradedSpace") -> "GradedSpace":
        """Tensor product space, basis ordered row-major, parities added mod 2."""
        par = tuple((p + q) % 2 for p in self.parity for q in other.parity)
        return GradedSpace(self.dim * other.dim, par)

    @property
    def parity_array(self) -> np.ndarray:
        return np.asarray(self.parity, dtype=int)


#: The standard (1|1)-dimensional space, basis (even, odd).
C11 = GradedSpace(2, (EVEN, ODD))


def as_entries(m) -> np.ndarray:
    """``m`` as a new array, complex128 if numeric and as given if of objects (``mpmath``)."""
    arr = np.array(m)
    return arr if arr.dtype == object else arr.astype(np.complex128, copy=False)


@dataclass(frozen=True, eq=False)
class SuperMatrix:
    """Dense matrix between graded spaces, optionally of declared parity.

    Entries are stored as :func:`as_entries` gives them.  ``parity``
    is the Z2-degree of the operator when homogeneous; ``None`` means undeclared
    (it can still be inferred from the entry pattern).
    """

    space_out: GradedSpace
    space_in: GradedSpace
    m: np.ndarray
    parity: int | None = None

    def __post_init__(self):
        arr = as_entries(self.m)
        if arr.shape != (self.space_out.dim, self.space_in.dim):
            raise ValueError(f"entry block {arr.shape} does not match spaces "
                             f"({self.space_out.dim}, {self.space_in.dim})")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.space_in != other.space_out:
            raise ValueError("matmul: input space of left factor must match output of right")
        par = None
        if self.parity is not None and other.parity is not None:
            par = (self.parity + other.parity) % 2
        return SuperMatrix(self.space_out, other.space_in, self.m @ other.m, par)

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_same_spaces(other)
        par = self.parity if self.parity == other.parity else None
        return SuperMatrix(self.space_out, self.space_in, self.m + other.m, par)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_same_spaces(other)
        par = self.parity if self.parity == other.parity else None
        return SuperMatrix(self.space_out, self.space_in, self.m - other.m, par)

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix(self.space_out, self.space_in, -self.m, self.parity)

    def __mul__(self, scalar) -> "SuperMatrix":
        return SuperMatrix(self.space_out, self.space_in, self.m * scalar, self.parity)

    __rmul__ = __mul__

    def _check_same_spaces(self, other: "SuperMatrix"):
        if self.space_out != other.space_out or self.space_in != other.space_in:
            raise ValueError("operands live on different graded spaces")

    # -- parity -------------------------------------------------------------

    def inferred_parity(self, tol: float = 0.0) -> int:
        """Parity read off from the nonzero entry pattern.

        Raises if entries of both parities exceed ``tol``; a zero matrix
        counts as even.
        """
        if self.parity is not None:
            return self.parity
        po = self.space_out.parity_array
        pi = self.space_in.parity_array
        pat = (po[:, None] + pi[None, :]) % 2
        amp = np.abs(self.m)
        even_amp = amp[pat == 0].max(initial=0.0)
        odd_amp = amp[pat == 1].max(initial=0.0)
        if even_amp > tol and odd_amp > tol:
            raise ValueError("matrix is not parity-homogeneous")
        return ODD if odd_amp > tol else EVEN

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        entries = [[float(z.real), float(z.imag)] for z in self.m.reshape(-1)]
        return {
            "rows": self.space_out.dim,
            "cols": self.space_in.dim,
            "parity_out": list(self.space_out.parity),
            "parity_in": list(self.space_in.parity),
            "entries": entries,
        }

    @staticmethod
    def from_dict(d: dict) -> "SuperMatrix":
        rows, cols = int(d["rows"]), int(d["cols"])
        out = GradedSpace(rows, tuple(d["parity_out"]))
        inn = GradedSpace(cols, tuple(d["parity_in"]))
        flat = np.array([complex(re, im) for re, im in d["entries"]], dtype=np.complex128)
        return SuperMatrix(out, inn, flat.reshape(rows, cols))


# -- constructors -----------------------------------------------------------


def unit(space_out: GradedSpace, space_in: GradedSpace, i: int, j: int) -> SuperMatrix:
    """Matrix unit with a single 1 at row ``i``, column ``j`` (0-based)."""
    m = np.zeros((space_out.dim, space_in.dim), dtype=np.complex128)
    m[i, j] = 1.0
    par = (space_out.parity[i] + space_in.parity[j]) % 2
    return SuperMatrix(space_out, space_in, m, par)


def identity(space: GradedSpace) -> SuperMatrix:
    return SuperMatrix(space, space, np.eye(space.dim, dtype=np.complex128), EVEN)


def zeros(space_out: GradedSpace, space_in: GradedSpace, parity: int | None = EVEN) -> SuperMatrix:
    m = np.zeros((space_out.dim, space_in.dim), dtype=np.complex128)
    return SuperMatrix(space_out, space_in, m, parity)


# -- graded operations ------------------------------------------------------


@cache
def _kron_layout(space_out_a: GradedSpace, space_in_a: GradedSpace,
                 space_out_b: GradedSpace, space_in_b: GradedSpace):
    """Tensor spaces and read-only Koszul sign table, indexed (i, k, j, l)."""
    po_a = space_out_a.parity_array
    pi_a = space_in_a.parity_array
    po_b = space_out_b.parity_array
    expo = po_b[None, :, None, None] * (po_a[:, None, None, None]
                                        + pi_a[None, None, :, None])
    sign = np.where(expo % 2 == 0, 1, -1)
    sign.setflags(write=False)
    return space_out_a.tensor(space_out_b), space_in_a.tensor(space_in_b), sign


def graded_kron(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """Graded Kronecker product with the entrywise Koszul sign.

    The sign ``(-1)^{p(k)(p(i)+p(j))}`` depends only on entry positions, so
    the formula applies verbatim to non-homogeneous matrices (each entry
    belongs to a unique homogeneous component).  The sign table and the two
    tensor spaces are cached per (space_out, space_in) quadruple of the
    factors; the cached table is read-only.
    """
    out, inn, _ = _kron_layout(a.space_out, a.space_in, b.space_out, b.space_in)
    par = None
    if a.parity is not None and b.parity is not None:
        par = (a.parity + b.parity) % 2
    return SuperMatrix(out, inn, kron_arrays(a.m, b.m, a.space_out, a.space_in,
                                             b.space_out, b.space_in), par)


def kron_arrays(a: np.ndarray, b: np.ndarray,
                space_out_a: GradedSpace, space_in_a: GradedSpace,
                space_out_b: GradedSpace, space_in_b: GradedSpace) -> np.ndarray:
    """Entry array of the graded Kronecker product of two entry arrays.

    ``a`` maps ``space_in_a`` to ``space_out_a`` and ``b`` likewise; leading
    axes, if any, are stacks and broadcast against each other, so one call
    gives the products of two aligned stacks.  This is the one place the
    Koszul sign of the tensor product is applied.
    """
    out, inn, sign = _kron_layout(space_out_a, space_in_a, space_out_b, space_in_b)
    block = a[..., :, None, :, None] * b[..., None, :, None, :] * sign
    return block.reshape(*block.shape[:-4], out.dim, inn.dim)


def product_table(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(..., R, L, n, m)`` table of every product ``left[l] @ right[r]``.

    ``left`` is ``(..., L, n, k)`` and ``right`` ``(..., R, k, m)``; leading
    axes broadcast.  The L left factors are stacked into one tall ``(L n, k)``
    matrix, so the table takes one BLAS call per right factor (per leading
    index, or for all of them if ``right`` has none) where a gathered batched
    product takes one per pair.  BLAS forms each row of the tall product as it
    forms that row of the block's own product, so every entry equals the
    per-pair ``@`` bit for bit; ``tests/test_graded.py`` checks that property
    of the BLAS build, which the callers' bitwise reproducibility relies on.
    The wide layout, one left factor times the right factors side by side,
    does not have it.
    """
    (*batch, count, n, k), m = left.shape, right.shape[-1]
    if right.ndim == 3:  # [r, ..., l] of one tall product, moved to [..., r, l]
        table = (left.reshape(-1, k) @ right).reshape(len(right), *batch, count, n, m)
        return np.moveaxis(table, 0, -4)
    tall = left.reshape(*batch, count * n, k)
    table = tall[..., None, :, :] @ right
    return table.reshape(*table.shape[:-2], count, n, m)


@cache
def graded_perm(v: GradedSpace, w: GradedSpace) -> SuperMatrix:
    """Graded permutation P: v (x) w -> w (x) v, P(x (x) y) = (-1)^{p(x)p(y)} y (x) x.

    The two spaces may differ in dimension.  Cached per space pair; the
    returned matrix is shared and read-only.
    """
    return SuperMatrix(w.tensor(v), v.tensor(w), _perm_entries(v, w), EVEN)


@cache
def _perm_entries(v: GradedSpace, w: GradedSpace) -> np.ndarray:
    """Read-only integer entries of :func:`graded_perm`."""
    m = np.zeros((w.dim * v.dim, v.dim * w.dim), dtype=int)
    for c in range(v.dim):
        for d in range(w.dim):
            m[d * v.dim + c, c * w.dim + d] = -1 if v.parity[c] * w.parity[d] else 1
    m.setflags(write=False)
    return m


@cache
def _flip_gather(v: GradedSpace, w: GradedSpace):
    """Read-only rows, columns and signs of :func:`graded_flip`: P = ``_perm_entries(w, v)``
    has one entry per row, and ``_perm_entries(v, w)`` is P^T."""
    perm = _perm_entries(w, v)
    (_, source), sign = perm.nonzero(), perm.sum(axis=1)
    index = (*np.ix_(source, source), np.outer(sign, sign))
    for table in index:
        table.setflags(write=False)
    return index


def graded_flip(x: np.ndarray, v: GradedSpace, w: GradedSpace) -> np.ndarray:
    """An operator on w (x) v, or a stack of them, carried to v (x) w by graded
    permutations, as one signed gather: every value is that of the products
    ``_perm_entries(w, v) @ x @ _perm_entries(v, w)``, but a zero's sign."""
    rows, cols, signs = _flip_gather(v, w)
    return x[..., rows, cols] * signs


def graded_comm(a: SuperMatrix, b: SuperMatrix,
                parity_a: int | None = None, parity_b: int | None = None) -> SuperMatrix:
    """Graded commutator ab - (-1)^{p(a)p(b)} ba (an anticommutator for two odds)."""
    pa = parity_a if parity_a is not None else a.inferred_parity(tol=0.0)
    pb = parity_b if parity_b is not None else b.inferred_parity(tol=0.0)
    sign = -1.0 if pa * pb else 1.0
    return a @ b - sign * (b @ a)


def max_abs(x) -> float:
    """Largest entry magnitude of a SuperMatrix or array."""
    arr = x.m if isinstance(x, SuperMatrix) else np.asarray(x)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())
