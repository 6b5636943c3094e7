"""The u-deformed Yangian extension, realized in evaluation representations.

Level-r generators act as rho^r times the level-0 matrices, where rho is
the scalar by which (u^2 h1 - u^{-2} h2)/(u^2 - u^{-2}) acts on an atypical
module.  One stack holds these level images rho^r x, scalar first: the
k-tower, the level brackets and the Drinfeld currents (matrix-valued
polynomials in 1/z, one ``(order+1, n, n)`` array each) all read it.  The
level-mixing coproduct family Delta_eps (eps_1 = eps_2 = 1 is the canonical
one) is data: the level-0 coproduct table :data:`.algebra.COPRODUCT` lifted
to level r, plus two tails per family (:data:`TAILS`).  It is evaluated on a
pair of modules as one tower, every family at every level up to r_max, from
four graded tensor products over all (family, level) rows, scaled by rho
powers and tail sums.  Each module's table of word products and each tower
per (pair, eps, depth, opposite) are memoised; a shallower request reads the
first levels of a deeper tower of the same pair.  The homomorphism,
cocommutativity, omega-twist and intertwining reports read slices of the
towers.  Every defining bracket, of level images, tower slices or current
coefficients, is read through :func:`.algebra.bracket_layout` over
flattened (family, level) rows, and every batch of small products from
:func:`.graded.product_table`, one BLAS call per right factor.

Nothing here casts a scalar: every report runs in the labels' scalar type,
which :func:`.algebra.label_scalar` decides, but the antipode report, whose
series inverse is double only.  Everything is verified in evaluation
representations; no abstract normal-ordered arithmetic is attempted.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from weakref import WeakValueDictionary

import numpy as np

from .algebra import (_BRACKETS, _ODD_NAMES, COPRODUCT, GeneratorImage, RepLabels, atypical_rep,
                      bracket_layout, graded_brackets, label_scalar)
from .coproduct import STACK_CACHE_SIZE, kron_sum, memoised_by_labels, spell, word_stack
from .graded import SuperMatrix, graded_flip, max_abs, product_table
from .report import Report, residual_report
from .rmatrix import r_closed

FAMILIES = ("e1", "e2", "f1", "f2", "h1", "h2", "k1", "k2", "h0")


class SingularEvaluationError(ValueError):
    """nu^4 = 1: the evaluation parameter rho has a vanishing denominator."""


@dataclass(frozen=True, eq=False)
class EvalRep(GeneratorImage):
    """Evaluation representation: the level-0 images of an atypical module,
    with the scalar ``rho`` by which level r scales them to rho^r."""

    _: KW_ONLY
    rho: complex

    def image(self, name: str, level: int = 0) -> SuperMatrix:
        if level < 0:
            raise ValueError("negative level")
        return (self.rho ** level) * self[name]


def _rho(labels: RepLabels):
    """rho = (nu^2 lambda1 - nu^{-2} lambda2)/(nu^2 - nu^{-2}); requires nu^4 != 1
    so the denominator is invertible; raises :class:`SingularEvaluationError` otherwise."""
    if labels.degenerate:
        raise SingularEvaluationError("nu^4 = 1 makes the evaluation parameter rho singular")
    return ((labels.nu**2 * labels.lambda1 - labels.nu**-2 * labels.lambda2)
            / (labels.nu**2 - labels.nu**-2))


@memoised_by_labels
def eval_rep(labels: RepLabels) -> EvalRep:
    """Evaluation representation on an atypical module, with rho of :func:`_rho`.

    Memoised: equal labels give one module object, which shares the atypical
    module's read-only stack.
    """
    rho = _rho(labels)
    base = atypical_rep(labels)
    return EvalRep(base.space, base.names, base.stack, base.parity, base.alpha, base.q,
                   base.kind, rho=rho)


def scaled_eval_pair(labels_a: RepLabels, labels_b: RepLabels) -> tuple[EvalRep, EvalRep]:
    """Evaluation pair with couplings rescaled jointly so both |rho| <= 1.

    rho is linear in the couplings, so one common real factor tames the
    level growth rho^r in truncated checks while keeping the two modules
    over the same algebra (identical alpha_i).  rho is read from the labels,
    so only the two returned modules are built.
    """
    worst = max(abs(_rho(labels_a)), abs(_rho(labels_b)))
    if worst <= 1.0:
        return eval_rep(labels_a), eval_rep(labels_b)
    s = 1.0 / worst
    return tuple(eval_rep(RepLabels(lab.gamma, lab.nu, lab.alpha1 * s, lab.alpha2 * s))
                 for lab in (labels_a, labels_b))


def _levels(r_max: int) -> range:
    """The levels 0..r_max of a report; a negative depth is an error."""
    if r_max < 0:
        raise ValueError("negative level")
    return range(r_max + 1)


def _level_images(ev: EvalRep, depth: int) -> np.ndarray:
    """``(F, depth+1, n, n)`` stack of the level images rho^r x, r = 0..depth, of
    the :data:`FAMILIES`: the scalar operand first, in the labels' scalar type."""
    powers = np.array([ev.rho ** r for r in _levels(depth)])
    return powers[None, :, None, None] * ev.gather(FAMILIES)[:, None]


def kir_report(ev: EvalRep, r_max: int = 4, tolerance: float = 1e-12) -> Report:
    """k_{i,r+1} = alpha_i (u^2 h_{1,r} - u^{-2} h_{2,r}) under evaluation, on
    the level images of :func:`_level_images`, every level in one product."""
    if ev.alpha is None:
        raise ValueError("evaluation representation carries no couplings")
    names = [f"k{i},{r+1}" for r in _levels(r_max) for i in (1, 2)]
    images = _level_images(ev, r_max + 1)
    h1, h2, k1, k2 = (images[FAMILIES.index(name)] for name in ("h1", "h2", "k1", "k2"))
    up, um = ev.gather(("u+", "u-"))
    hcomb = (up @ up) @ h1[:-1] - (um @ um) @ h2[:-1]  # [r] = u^2 h_{1,r} - u^{-2} h_{2,r}
    lhs = np.stack([k1[1:], k2[1:]], axis=1)  # [r, i - 1] = k_{i,r+1}
    rhs = hcomb[:, None] * np.array(ev.alpha)[:, None, None]
    n = lhs.shape[-1]
    return residual_report("k-tower", tolerance, names, lhs.reshape(-1, n, n),
                           rhs.reshape(-1, n, n))


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _bracket_layout(rs_max: int, names_format: str):
    """The brackets [a_r, b_s} = sign t_{r+s} of ``_BRACKETS`` with r + s <= rs_max,
    by r, then s, then bracket, over the rows (family, level) of a flattened
    ``(F, rs_max + 1, n, n)`` tower: case names (``names_format`` filled with a,
    r, b, s), their :func:`.algebra.bracket_layout`, the rows of t_{r+s} and the
    signs, every index array read-only."""
    rows = tuple((name, r) for name in FAMILIES for r in _levels(rs_max))
    cases = [(a, r, b, s, t, sign) for r in _levels(rs_max) for s in range(rs_max + 1 - r)
             for a, b, t, sign in _BRACKETS]
    layout = bracket_layout(rows, frozenset(row for row in rows if row[0] in _ODD_NAMES),
                            [((a, r), (b, s)) for a, r, b, s, _, _ in cases])
    targets = np.array([rows.index((t, r + s)) for _, r, _, s, t, _ in cases])
    signs = np.array([sign for *_, sign in cases])[:, None, None]
    for index in (*layout, targets, signs):
        index.setflags(write=False)
    names = tuple(names_format.format(a=a, r=r, b=b, s=s) for a, r, b, s, _, _ in cases)
    return names, layout, targets, signs


def _bracket_report(suite: str, tolerance: float, tower: np.ndarray, rs_max: int,
                    names_format: str) -> Report:
    """The defining brackets on a ``(F, R, n, n)`` tower of family images by
    level: [x, y} against sign t_{r+s}, x = tower[a, r], y = tower[b, s], every
    bracket read by :func:`.algebra.graded_brackets` from one product table."""
    names, layout, targets, signs = _bracket_layout(rs_max, names_format)
    rows = tower.reshape(-1, *tower.shape[2:])
    return residual_report(suite, tolerance, names, graded_brackets(rows, layout),
                           rows[targets] * signs)


def level_bracket_report(ev: EvalRep, rs_max: int = 8,
                         tolerance: float = 1e-11) -> Report:
    """Defining level brackets [e_{i,r}, f_{j,s}] etc. evaluated as matrices.

    Every (r, s) bracket is read from one product table of the level images
    rho^r X, r = 0..rs_max, of :func:`_level_images`: the matrices that the
    k-tower and the Drinfeld currents read, bit for bit.
    """
    return _bracket_report("level-brackets", tolerance, _level_images(ev, rs_max), rs_max,
                           "[{a},{r};{b},{s}]")


# -- level coproduct -------------------------------------------------------------


#: The level-mixing tails of the level coproduct.  Delta_eps(x_r) is rho_a^r C0 +
#: rho_b^r C1, where C0 and C1 are the two terms of x's row of
#: :data:`.algebra.COPRODUCT` (x on the left in C0, on the right in C1), plus,
#: for each of x's two tails (sign, i, left word, right word) and l = 1..r,
#: sign eps_i rho_a^{r-l} rho_b^{l-1} (left word) (x) (right word): the last
#: letter of the left word stands at level r - l, that of the right word at
#: level l - 1, and every u+- at level 0.
TAILS = {
    "e1": ((1, 1, ("u+", "h1"), ("e1",)), (1, 2, ("u-", "k1"), ("u-", "u-", "e2"))),
    "e2": ((1, 2, ("u-", "h2"), ("e2",)), (1, 1, ("u+", "k2"), ("u+", "u+", "e1"))),
    "f1": ((1, 1, ("f1",), ("u+", "h1")), (1, 2, ("u-", "u-", "f2"), ("u-", "k2"))),
    "f2": ((1, 2, ("f2",), ("u-", "h2")), (1, 1, ("u+", "u+", "f1"), ("u+", "k1"))),
    "h1": ((1, 1, ("h1",), ("h1",)), (1, 2, ("u-", "u-", "k1"), ("u-", "u-", "k2"))),
    "h2": ((1, 2, ("h2",), ("h2",)), (1, 1, ("u+", "u+", "k2"), ("u+", "u+", "k1"))),
    "k1": ((1, 2, ("k1",), ("u-", "u-", "h2")), (1, 1, ("u+", "u+", "h1"), ("k1",))),
    "k2": ((1, 1, ("k2",), ("u+", "u+", "h1")), (1, 2, ("u-", "u-", "h2"), ("k2",))),
    "h0": ((-1, 1, ("u+", "f1"), ("u+", "e1")), (-1, 2, ("u-", "f2"), ("u-", "e2"))),
}

#: The words of the tower: the level-0 coproduct's, then the tails' other words.
_WORDS = tuple(dict.fromkeys([*COPRODUCT.words, *(
    word for tails in TAILS.values() for *_, left, right in tails for word in (left, right))]))
_SPELLED = spell(COPRODUCT.names, _WORDS)


def _column_layout():
    """Per tower column (C0, C1, tail 0, tail 1) and family: the row of the
    scalar table of :func:`_direct_tower` (rho_a^r, rho_b^r, then the tail sums
    of eps1, eps2, -eps1, -eps2) and the left and right words, rows of ``_WORDS``;
    three read-only ``(4, F)`` arrays."""
    rows = [COPRODUCT.position(name) for name in FAMILIES]
    word = {w: k for k, w in enumerate(_WORDS)}
    _, left, right = COPRODUCT.columns
    level_zero = [(np.full(len(rows), k), left[k, rows], right[k, rows]) for k in range(len(left))]
    tails = [np.array([(1 + i + 2 * (sign < 0), word[left], word[right])
                       for sign, i, left, right in (TAILS[name][t] for name in FAMILIES)]).T
             for t in (0, 1)]
    layout = np.array([*level_zero, *tails]).swapaxes(0, 1)
    layout.setflags(write=False)
    return layout


_SCALAR_ROWS, _LEFT, _RIGHT = _column_layout()


def _word_table(rep: EvalRep) -> np.ndarray:
    """Read-only ``(W, n, n)`` products of the tower's level-0 words in ``rep``."""
    words = word_stack(rep.gather(COPRODUCT.names), _SPELLED)
    words.setflags(write=False)
    return words


#: The word table of each module, read by both tower sides and every depth.
_module_words = lru_cache(maxsize=STACK_CACHE_SIZE)(_word_table)


def _direct_tower(rep_a: EvalRep, rep_b: EvalRep, eps, r_max: int,
                  words=_module_words) -> np.ndarray:
    """``(F, R+1, n, n)`` array of Delta_eps(g_{f,r}), built without the tower
    memo from the word tables ``words(rep_a)`` and ``words(rep_b)``: one
    graded Kronecker product per column of C0, C1 and the :data:`TAILS`.

    The scalars are Python arithmetic in the labels' type: rho^r, and the
    tail sums over ascending l of (c rho_a^{r-l}) rho_b^{l-1}.
    """
    eps1, eps2 = eps
    levels = range(r_max + 1)
    powers_a = [rep_a.rho ** r for r in levels]
    powers_b = [rep_b.rho ** r for r in levels]
    scalars = np.array([powers_a, powers_b, *(
        [sum(c * powers_a[r - l] * powers_b[l - 1] for l in range(1, r + 1)) for r in levels]
        for c in (eps1, eps2, -eps1, -eps2))])
    # rows (family, level) of each column: its scalars, left words and right words
    columns = (scalars[_SCALAR_ROWS].reshape(len(_SCALAR_ROWS), -1, 1, 1),
               np.repeat(_LEFT, len(levels), axis=1), np.repeat(_RIGHT, len(levels), axis=1))
    tower = kron_sum(columns, rep_a.space, rep_b.space, words(rep_a), words(rep_b))
    return tower.reshape(len(FAMILIES), len(levels), *tower.shape[1:])


def coproduct_tower(rep_a: EvalRep, rep_b: EvalRep,
                    eps: tuple[complex, complex] = (1.0, 1.0), r_max: int = 4,
                    opposite: bool = False) -> np.ndarray:
    """Read-only ``(F, R+1, n, n)`` array of Delta_eps(g_{f,r}), or Delta_eps^op.

    The first axis follows :data:`FAMILIES`, the second the levels 0..r_max.
    A level-r factor acts as rho^r times its level-0 image, so the tower is
    one graded Kronecker product per term of a family's row (C0, C1 and
    the two :data:`TAILS`), each weighted by its rho power or tail sum, and
    Delta^op is the graded flip of the swapped pair's tower.  Memoised per
    (rep_a, rep_b, eps, r_max, opposite); a request reads the first r_max + 1
    levels of a deeper tower of the same (rep_a, rep_b, eps, opposite) if
    one is alive, and the word tables are memoised per module.
    """
    # positional, normalised arguments: one cache entry whatever the call form
    return _tower(rep_a, rep_b, (label_scalar(eps[0]), label_scalar(eps[1])), int(r_max),
                  bool(opposite))


#: (rep_a, rep_b, eps, opposite) -> the deepest tower :func:`_tower` built, while alive
_DEEPEST = WeakValueDictionary()


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _tower(rep_a: EvalRep, rep_b: EvalRep, eps, r_max: int, opposite: bool) -> np.ndarray:
    levels = len(_levels(r_max))  # a negative depth raises here
    key = (rep_a, rep_b, eps, opposite)
    deeper = _DEEPEST.get(key)
    if deeper is not None and deeper.shape[1] >= levels:
        return deeper[:, :levels]  # a view of a read-only array is read-only
    if opposite:
        tower = graded_flip(_tower(rep_b, rep_a, eps, r_max, False), rep_a.space, rep_b.space)
    else:
        tower = _direct_tower(rep_a, rep_b, eps, r_max)
    tower.setflags(write=False)
    _DEEPEST[key] = tower
    return tower


def yangian_coproduct(name: str, r: int, rep_a: EvalRep, rep_b: EvalRep,
                      eps: tuple[complex, complex] = (1.0, 1.0),
                      opposite: bool = False) -> SuperMatrix:
    """Matrix of Delta_eps(g_{., r}) on the tensor of two evaluation modules:
    one slice of :func:`coproduct_tower`."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}")
    space = rep_a.space.tensor(rep_b.space)
    tower = coproduct_tower(rep_a, rep_b, eps, r, opposite)
    return SuperMatrix(space, space, tower[FAMILIES.index(name), r])


def _level_report(suite: str, tolerance: float, prefix: str, families, lhs, rhs) -> Report:
    """Residuals of two ``(len(families), R+1, n, n)`` towers, one case
    ``prefix:family,r`` per family and level, family by family."""
    names = [f"{prefix}:{name},{r}" for name in families for r in range(lhs.shape[1])]
    n = lhs.shape[-1]
    return residual_report(suite, tolerance, names, lhs.reshape(-1, n, n), rhs.reshape(-1, n, n))


def coproduct_hom_report(rep_a: EvalRep, rep_b: EvalRep, rs_max: int = 4,
                         eps: tuple[complex, complex] = (1.0, 1.0),
                         tolerance: float = 1e-10) -> Report:
    """Homomorphism property of the level coproduct on the defining brackets.

    Every bracket X Y -+ Y X is taken from two batched products of tower slices.
    """
    return _bracket_report("yangian-coproduct-homomorphism", tolerance,
                           coproduct_tower(rep_a, rep_b, eps, rs_max), rs_max,
                           "[D({a},{r}),D({b},{s})]")


#: The families on which the level coproduct is cocommutative.
_COCOMMUTATIVE = ("k1", "k2", "h1", "h2")


def k_cocommutativity_report(rep_a: EvalRep, rep_b: EvalRep, r_max: int = 4,
                             tolerance: float = 1e-10) -> Report:
    """Delta = Delta_op on the k and h towers (a consequence of the k-h tie)."""
    rows = [FAMILIES.index(name) for name in _COCOMMUTATIVE]
    return _level_report("yangian-cocommutativity", tolerance, "cocomm", _COCOMMUTATIVE,
                         coproduct_tower(rep_a, rep_b, r_max=r_max)[rows],
                         coproduct_tower(rep_a, rep_b, r_max=r_max, opposite=True)[rows])


def _omega_scale(eps1: complex, eps2: complex) -> dict:
    """Scale of each generator under omega: f_i, h_i by eps_i, k_i by eps_j,
    the rest by 1."""
    return {"e1": 1, "e2": 1, "h0": 1, "u+": 1, "u-": 1, "f1": eps1, "f2": eps2,
            "h1": eps1, "h2": eps2, "k1": eps2, "k2": eps1}


def _omega_twisted(ev: EvalRep, eps1: complex, eps2: complex, power: int) -> EvalRep:
    """The module twisted by the rescaling automorphism omega^power (power =
    +-1): its level-0 images rescaled, its couplings dropped, rho kept."""
    factors = _omega_scale(eps1**power, eps2**power)
    scale = np.array([factors[g] for g in ev.names])[:, None, None]
    return EvalRep(ev.space, ev.names, ev.stack * scale, ev.parity, kind=ev.kind, rho=ev.rho)


def omega_twist_equivalence(rep_a: EvalRep, rep_b: EvalRep,
                            eps1: complex, eps2: complex, r_max: int = 3,
                            tolerance: float = 1e-10) -> Report:
    """Delta(g) = (omega^{-1} x omega^{-1}) Delta_eps(omega(g)) at all levels.

    omega rescales f_i, h_i by eps_i and k_i by eps_j; at representation
    level the right-hand side is Delta_eps evaluated on omega^{-1}-twisted
    modules times the omega-scale of g itself.  The twisted modules live for
    this call only, so their tower and word tables are built without
    entering a memo; the left-hand side reads the first r_max + 1 levels of
    the pair's deepest memoised tower.
    """
    if eps1 == 0 or eps2 == 0:
        raise ValueError("twist parameters must be nonzero")
    scale = _omega_scale(eps1, eps2)
    ta, tb = (_omega_twisted(rep, eps1, eps2, -1) for rep in (rep_a, rep_b))
    factors = np.array([scale[name] for name in FAMILIES])
    rhs = _direct_tower(ta, tb, (eps1, eps2), r_max, _word_table) * factors[:, None, None, None]
    return _level_report("omega-twist", tolerance, "omega", FAMILIES,
                         coproduct_tower(rep_a, rep_b, r_max=r_max), rhs)


def omega_preserves_brackets_report(ev: EvalRep, eps1: complex, eps2: complex,
                                    rs_max: int = 3,
                                    tolerance: float = 1e-11) -> Report:
    """The rescaling twist is an automorphism: twisted images still satisfy
    the level brackets."""
    rpt = level_bracket_report(_omega_twisted(ev, eps1, eps2, +1), rs_max, tolerance)
    rpt.suite = "omega-brackets"
    return rpt


# -- truncated currents -----------------------------------------------------------


def _cauchy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated Cauchy products of ``(..., N, n, n)`` coefficient stacks.

    Coefficient k of a product is the sum of x_r y_s over r + s = k, for
    every leading index at once: all coefficient products come from one
    :func:`.graded.product_table` (one BLAS call per coefficient of ``y``,
    per leading index unless ``y`` is one series) and are summed into
    z^{-(r+s)} with r ascending, the order of the double loop over r, then s,
    in the coefficients' scalar type.
    """
    count = x.shape[-3]
    table = product_table(x, y)  # [..., s, r] = x_r y_s
    out = np.zeros_like(table[..., 0, :, :])
    for r in range(count):
        out[..., r:, :, :] += table[..., : count - r, r, :, :]
    return out


def _series_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of the ``(N, n, n)`` series ``c``; requires an invertible constant term,
    which LAPACK inverts unless it is exactly 1, as for H(z) = h1 h2 - k1 k2."""
    inv0 = c[0] if np.array_equal(c[0], np.eye(len(c[0]))) else np.linalg.inv(c[0])
    out = np.empty_like(c)
    out[0] = inv0
    for r in range(1, len(c)):
        terms = c[1:r + 1] @ out[r - 1::-1]  # c_s out_{r-s}, s = 1..r
        out[r] = -inv0 @ sum(terms, np.zeros_like(inv0))
    return out


def _current_rows(ev: EvalRep, order: int) -> np.ndarray:
    """``(F + 2, order+1, n, n)`` coefficients of the currents of :data:`FAMILIES`,
    then of the series 1 and 0.  e/f/k currents are pure tails sum_r rho^r pi(a)
    z^{-r-1}, their rows past the first the level images of :func:`_level_images`;
    the h currents (including h0) carry the constant term 1."""
    if order < 1:
        raise ValueError("order must be at least 1")
    levels = _level_images(ev, order - 1)
    rows = np.zeros_like(levels, shape=(len(FAMILIES) + 2, order + 1, *levels.shape[2:]))
    rows[:len(FAMILIES), 1:] = levels
    constant = [name[0] == "h" for name in FAMILIES] + [True, False]
    rows[constant, 0] = np.eye(ev.space.dim, dtype=int)
    return rows


def currents(ev: EvalRep, order: int) -> dict[str, np.ndarray]:
    """Drinfeld currents of the evaluation module, truncated at z^{-order}: each one
    read-only ``(order+1, n, n)`` array of :func:`_current_rows` whose row r multiplies
    z^{-r}, in the labels' scalar type."""
    coeffs = _current_rows(ev, order)[:len(FAMILIES)]
    coeffs.setflags(write=False)
    return dict(zip(FAMILIES, coeffs))


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _current_layout(order: int):
    """The coefficients r + s < order of (w - z)[a(z), b(w)} = sign (t(z) - t(w)),
    bracket by bracket, over the rows (family, coefficient) of the flattened
    ``(F, order+1, n, n)`` currents: case names, the :func:`.algebra.bracket_layout`
    of every [a_r, b_{s+1}}, then of every [a_{r+1}, b_s}, and the right side as
    the row of t_{r+s} and its weight sign ([s = 0] - [r = 0]), read-only."""
    rows = tuple((name, k) for name in FAMILIES for k in range(order + 1))
    cases = [(a, r, b, s, t, sign) for a, b, t, sign in _BRACKETS
             for r in range(order) for s in range(order - r)]
    layout = bracket_layout(rows, frozenset(row for row in rows if row[0] in _ODD_NAMES),
                            [((a, r), (b, s + 1)) for a, r, b, s, _, _ in cases]
                            + [((a, r + 1), (b, s)) for a, r, b, s, _, _ in cases])
    targets = np.array([rows.index((t, r + s)) for _, r, _, s, t, _ in cases])
    weights = np.array([sign * ((s == 0) - (r == 0)) for _, r, _, s, _, sign in cases])
    for index in (*layout, targets, weights):
        index.setflags(write=False)
    names = tuple(f"(w-z)[{a}(z),{b}(w)]@({r},{s})" for a, r, b, s, _, _ in cases)
    return names, layout, targets, weights[:, None, None]


def current_relations_report(ev: EvalRep, order: int,
                             tolerance: float = 1e-11) -> Report:
    """Defining relations as double-series identities, coefficient by coefficient.

    (w - z)[a(z), b(w)} is expanded over z^{-r} w^{-s}: the coefficient
    [a_r, b_{s+1}} - [a_{r+1}, b_s} vanishes off the boundary and is sign t_r
    at s = 0, -sign t_s at r = 0.  Every bracket is read by
    :func:`.algebra.graded_brackets` from one product table of the flattened
    currents, in the labels' scalar type.  Also checks the k-current tie
    k_i(z) = alpha_i (u^2 h1(z) - u^{-2} h2(z))/z.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    cur = currents(ev, order)
    names, layout, targets, weights = _current_layout(order)
    rows = np.concatenate([cur[name] for name in FAMILIES])
    brackets = graded_brackets(rows, layout)
    rpt = residual_report("current-relations", tolerance, names,
                          brackets[:len(names)] - brackets[len(names):], rows[targets] * weights)
    if ev.alpha is not None:
        up, um = ev.gather(("u+", "u-"))
        usq, usqm = (up @ up)[0, 0], (um @ um)[0, 0]
        hcomb = np.zeros_like(cur["h1"])
        hcomb[1:] = (usq * cur["h1"] - usqm * cur["h2"])[:-1]  # times 1/z
        for i, alpha in enumerate(ev.alpha, 1):
            rpt.add(f"k{i}(z) - a{i}(u^2 h1 - u^-2 h2)/z", max_abs(cur[f"k{i}"] - alpha * hcomb))
    return rpt


#: The two orderings (i, j) of the node pair.
_NODE_PAIRS = ((1, 2), (2, 1))


@lru_cache(maxsize=1)
def _antipode_plan():
    """The antipode identities as stages of named series: ``a*b`` is the Cauchy
    product a b, a sum is read left to right, the second stage's series
    multiply Hinv and the last stage lists each case's series.  The pool
    starts with the currents of :data:`FAMILIES`, 1 and 0 and gains each
    stage's products, then its names.  Returns the case names, the first
    series of each case, the pool row of H and, per stage, the operand rows of
    its products ``(2, P)``, the signed rows of its sums ``(K, S)`` (row R + x
    is -x on a pool of R rows), read-only, and whether it multiplies Hinv."""
    def pairs(entries):  # the entries with (i, j) filled in, for each node ordering
        return {k.format(i=i, j=j): v.format(i=i, j=j) for i, j in _NODE_PAIRS
                for k, v in entries.items()}
    stages = (pairs({"H": "h1*h2 - k1*k2", "Ne{i}": "e{i}*h{j} - e{j}*k{i}",
                     "Nf{i}": "f{i}*h{j} - f{j}*k{j}"}),
              # times Hinv: S(e_i) = -Ne_i Hinv, S(f_i) = -Nf_i Hinv and the cases' sides
              pairs({"HH": "H", "Se{i}": "-Ne{i}", "Sf{i}": "-Nf{i}",
                     "hh{i}": "h{j}*h{i} - k{i}*k{j}", "k-{i}": "k{i}*h{j} - h{j}*k{i}",
                     "k+{i}": "k{i}*h{i} - h{i}*k{i}", "eL{i}": "-Ne{i} + h{j}*e{i} - k{i}*e{j}",
                     "eR{i}": "e{i}*H - h{i}*Ne{i} - k{i}*Ne{j}",
                     "fL{i}": "f{i}*H - Nf{i}*h{i} - Nf{j}*k{j}",
                     "fR{i}": "-Nf{i} + f{i}*h{j} - f{j}*k{j}"}),
              # S(h0) = 1 - h0 + S(f1) e1 + S(f2) e2, also 1 - h0 + f1 S(e1) + f2 S(e2)
              {"Sfe": "Sf1*e1 + Sf2*e2", "fSe": "f1*Se1 + f2*Se2"},
              {"H Hinv - 1": "HH - 1", **pairs({
                  "h{i}: (h{j} h{i} - k{i} k{j}) Hinv - 1": "hh{i} - 1",
                  "k{i}: commutator telescopes": "k-{i}, k+{i}",
                  "e{i}: left antipode": "eL{i}", "e{i}: right antipode": "eR{i}",
                  "f{i}: left antipode": "fL{i}", "f{i}: right antipode": "fR{i}"}),
               "h0: S(f)e = f S(e)": "Sfe - fSe",
               "h0: S(h0) + h0 - S(f)e - 1": "1 - h0 + Sfe + h0 - Sfe - 1",
               "h0: S(h0) + h0 - f S(e) - 1": "1 - h0 + Sfe + h0 - fSe - 1"})
    rows, steps = [*FAMILIES, "1", "0"], []
    for stage in stages:
        formulas = [v.split(", ") for v in stage.values()]
        series = [s.replace("- ", "-").replace("+ ", "").split() for f in formulas for s in f]
        products = list(dict.fromkeys(t.lstrip("-") for terms in series for t in terms
                                      if "*" in t and t.lstrip("-") not in rows))
        operands = np.array([[rows.index(x) for x in p.split("*")] for p in products]).T
        rows += products
        width = max(map(len, series))
        sums = np.array([[rows.index(t.lstrip("-")) + len(rows) * t.startswith("-")
                          for t in terms + ["0"] * (width - len(terms))] for terms in series]).T
        steps.append((operands.reshape(2, -1), sums, stage is stages[1]))
        rows += stage
    for operands, sums, _ in steps:
        operands.setflags(write=False)
        sums.setflags(write=False)
    return tuple(stage), np.cumsum([0, *map(len, formulas)])[:-1], rows.index("H"), steps


def antipode_report(ev: EvalRep, order: int, tolerance: float = 1e-10) -> Report:
    """The antipode identities for all currents, truncated at the given order.

    H(z) = h1 h2 - k1 k2 has constant term 1 and is inverted as a series;
    the checks multiply out m(S x id)Delta and m(id x S)Delta for each
    current in a single evaluation module, by the stages of
    :func:`_antipode_plan`: one Cauchy product of gathered operands, one
    signed gather-sum and, in the second, one product table by Hinv.
    """
    names, starts, h_row, steps = _antipode_plan()
    pool = _current_rows(ev, order)
    for operands, sums, times_hinv in steps:
        if operands.size:
            pool = np.concatenate([pool, _cauchy(*pool[operands])])
        terms = np.concatenate([pool, -pool])[sums]
        series = sum(terms[1:], terms[0])
        if times_hinv:
            series = _cauchy(series, _series_inverse(pool[h_row]))
        pool = np.concatenate([pool, series])
    residuals = np.maximum.reduceat(np.abs(series).reshape(len(series), -1).max(axis=1), starts)
    return Report("antipode", tolerance, names=list(names),
                  residuals=residuals.astype(float).tolist(), tolerances=[None] * len(names))


def yangian_intertwine(labels_a: RepLabels, labels_b: RepLabels, r_max: int = 4,
                       tolerance: float = 1e-9) -> Report:
    """The closed-form R-matrix intertwines the level coproducts at every level.

    The R-matrix depends only on (gamma, nu), so the joint coupling rescale
    that bounds |rho| leaves it untouched.  Modules are values of their labels,
    so the towers of a pair built from these labels before are read.
    Delta^op R is one tall product with the shared right factor R.
    """
    rep_a, rep_b = scaled_eval_pair(labels_a, labels_b)
    rmat = r_closed(labels_a, labels_b).m
    d = coproduct_tower(rep_a, rep_b, r_max=r_max)
    dop = coproduct_tower(rep_a, rep_b, r_max=r_max, opposite=True)
    left = product_table(dop.reshape(-1, *rmat.shape), rmat[None])[0].reshape(dop.shape)
    return _level_report("yangian-intertwining", tolerance, "intertwine", FAMILIES,
                         left, rmat @ d)
