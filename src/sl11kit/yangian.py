"""The u-deformed Yangian extension, realized in evaluation representations.

Level-r generators act as rho^r times the level-0 matrices, where rho is
the scalar by which (u^2 h1 - u^{-2} h2)/(u^2 - u^{-2}) acts on an atypical
module.  The level-mixing coproduct family Delta_eps (eps_1 = eps_2 = 1 is
the canonical one) is evaluated on a pair of modules as one tower: every
family at every level up to r_max, from one graded tensor product per
distinct (left word, right word) level-0 pair, each scaled by its terms'
coefficients times powers of the two evaluation parameters.  Two things are
memoised: each module's table of level-0 word products (one for both tower
sides and every depth), and each tower per (pair, eps, depth, opposite),
where a shallower request reads the first levels of a deeper tower of the
same pair.  The homomorphism, cocommutativity, omega-twist and
intertwining reports read slices of the memoised towers.
Drinfeld currents are handled as matrix-valued polynomials in 1/z
truncated at a configurable order, each one ``(order+1, n, n)`` coefficient
array; the current-relation and antipode reports take their products as
batched Cauchy products of such series.
Every batch of small products here (brackets, Cauchy products, the
intertwining products with the R-matrix) is read from
:func:`.graded.product_table`, one BLAS call per right factor.

Everything here is verified in evaluation representations; no abstract
normal-ordered arithmetic is attempted.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from weakref import WeakValueDictionary

import numpy as np

from .algebra import _BRACKETS, GeneratorImage, RepLabels, atypical_rep
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


@memoised_by_labels
def eval_rep(labels: RepLabels) -> EvalRep:
    """Evaluation representation on an atypical module.

    rho = (nu^2 lambda1 - nu^{-2} lambda2)/(nu^2 - nu^{-2}); requires
    nu^4 != 1 so the denominator is invertible; raises
    :class:`SingularEvaluationError` otherwise.  Memoised: equal labels give
    one module object, which shares the atypical module's read-only stack.
    """
    denom = labels.nu**2 - labels.nu**-2
    if abs(denom) < 1e-12:
        raise SingularEvaluationError("nu^4 = 1 makes the evaluation parameter rho singular")
    rho = (labels.nu**2 * labels.lambda1 - labels.nu**-2 * labels.lambda2) / denom
    base = atypical_rep(labels)
    return EvalRep(base.space, base.names, base.stack, base.parity, base.alpha, base.q,
                   base.kind, rho=rho)


def scaled_eval_pair(labels_a: RepLabels, labels_b: RepLabels) -> tuple[EvalRep, EvalRep]:
    """Evaluation pair with couplings rescaled jointly so both |rho| <= 1.

    rho is linear in the couplings, so one common real factor tames the
    level growth rho^r in truncated checks while keeping the two modules
    over the same algebra (identical alpha_i).
    """
    ra, rb = eval_rep(labels_a), eval_rep(labels_b)
    worst = max(abs(ra.rho), abs(rb.rho))
    if worst <= 1.0:
        return ra, rb
    s = 1.0 / worst
    return tuple(eval_rep(RepLabels(lab.gamma, lab.nu, lab.alpha1 * s, lab.alpha2 * s))
                 for lab in (labels_a, labels_b))


def _levels(r_max: int) -> range:
    """The levels 0..r_max of a report; a negative depth is an error."""
    if r_max < 0:
        raise ValueError("negative level")
    return range(r_max + 1)


def kir_report(ev: EvalRep, r_max: int = 4, tolerance: float = 1e-12) -> Report:
    """k_{i,r+1} = alpha_i (u^2 h_{1,r} - u^{-2} h_{2,r}) under evaluation."""
    if ev.alpha is None:
        raise ValueError("evaluation representation carries no couplings")
    up, um, h1, h2, *k = ev.gather(("u+", "u-", "h1", "h2", "k1", "k2"))
    usq, usqm = up @ up, um @ um
    rpt = Report("k-tower", tolerance)
    # level-r images rho^r X, the scalar on the right as in :meth:`EvalRep.image`
    for r in _levels(r_max):
        rhs = usq @ (h1 * complex(ev.rho ** r)) - usqm @ (h2 * complex(ev.rho ** r))
        for i, alpha in enumerate(ev.alpha, 1):
            rpt.add(f"k{i},{r+1}",
                    max_abs(k[i - 1] * complex(ev.rho ** (r + 1)) - rhs * complex(alpha)))
    return rpt


#: The families that stand in a defining bracket; h1, h2, k1, k2 are only targets.
_BRACKETED = tuple(dict.fromkeys(f for a, b, _, _ in _BRACKETS for f in (a, b)))
_BRACKETED_ROWS = [FAMILIES.index(name) for name in _BRACKETED]


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _bracket_layout(rs_max: int, names_format: str):
    """Case names (``names_format`` filled with a, r, b, s) and index rows of
    the brackets ``_BRACKETS`` with r + s <= rs_max, by r, then s, then
    bracket: the rows of x y and y x, x = tower[a, r], y = tower[b, s], in
    the flattened product table of the ``_BRACKETED`` families' levels
    0..rs_max, the family and level of t_{r+s}, (-1)^{p_a p_b} and the sign."""
    levels = rs_max + 1
    count = len(_BRACKETED) * levels

    def row(name, r):
        return _BRACKETED.index(name) * levels + r
    names, index = [], []
    for r in _levels(rs_max):
        for s in range(levels - r):
            for a, b, t, sign in _BRACKETS:
                names.append(names_format.format(a=a, r=r, b=b, s=s))
                x, y = row(a, r), row(b, s)
                index.append((y * count + x, x * count + y, FAMILIES.index(t), r + s,
                              1 if a == "h0" else -1, sign))
    index = np.array(index).T
    index.setflags(write=False)
    return tuple(names), index


def _bracket_report(suite: str, tolerance: float, tower: np.ndarray, rs_max: int,
                    names_format: str) -> Report:
    """The defining brackets on a ``(F, R, n, n)`` tower of family images by
    level: x y - swap y x against sign t_{r+s}, x = tower[a, r], y = tower[b, s],
    every product read from one :func:`.graded.product_table` of the
    bracketed families' levels."""
    names, (xy, yx, it, irs, swap, sign) = _bracket_layout(rs_max, names_format)
    factors = tower[_BRACKETED_ROWS].reshape(-1, *tower.shape[2:])
    table = product_table(factors, factors).reshape(-1, *tower.shape[2:])
    return residual_report(suite, tolerance, names, table[xy] - swap[:, None, None] * table[yx],
                           tower[it, irs] * sign[:, None, None])


def level_bracket_report(ev: EvalRep, rs_max: int = 8,
                         tolerance: float = 1e-11) -> Report:
    """Defining level brackets [e_{i,r}, f_{j,s}] etc. evaluated as matrices.

    The level images rho^r X, r = 0..rs_max, are stacked as one
    ``(F, R, n, n)`` array (the matrix operand first: the scalar-first
    product of :func:`currents` rounds differently), and every (r, s)
    bracket is read from one product table of its levels.
    """
    x = ev.gather(FAMILIES)
    powers = np.array([ev.rho ** r for r in _levels(rs_max)], dtype=np.complex128)
    levels = x[:, None] * powers[None, :, None, None]
    return _bracket_report("level-brackets", tolerance, levels, rs_max, "[{a},{r};{b},{s}]")


# -- level coproduct -------------------------------------------------------------


def _tail_terms(name: str, r: int, eps1: complex, eps2: complex):
    """(coefficient, left factors, right factors) with factors (generator, level).

    The r = 0 part reproduces the level-0 coproduct; the l = 1..r tails mix
    levels exactly as the unique grading-respecting extension demands.
    """
    terms = []
    if name == "h0":
        terms.append((1, (("h0", r),), ()))
        terms.append((1, (), (("h0", r),)))
        for l in range(1, r + 1):
            terms.append((-eps1, (("u+", 0), ("f1", r - l)), (("u+", 0), ("e1", l - 1))))
            terms.append((-eps2, (("u-", 0), ("f2", r - l)), (("u-", 0), ("e2", l - 1))))
        return terms
    fam, i = name[0], int(name[1])
    j = 3 - i
    up, um = ("u+", "u-") if i == 1 else ("u-", "u+")
    ei, ej = (eps1, eps2) if i == 1 else (eps2, eps1)
    if fam == "e":
        terms.append((1, ((name, r),), ((um, 0),)))
        terms.append((1, ((up, 0),), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((up, 0), (f"h{i}", r - l)), ((f"e{i}", l - 1),)))
            terms.append((ej, ((um, 0), (f"k{i}", r - l)),
                          ((um, 0), (um, 0), (f"e{j}", l - 1))))
    elif fam == "f":
        terms.append((1, ((name, r),), ((up, 0),)))
        terms.append((1, ((um, 0),), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((f"f{i}", r - l),), ((up, 0), (f"h{i}", l - 1))))
            terms.append((ej, ((um, 0), (um, 0), (f"f{j}", r - l)),
                          ((um, 0), (f"k{j}", l - 1))))
    elif fam == "h":
        terms.append((1, ((name, r),), ()))
        terms.append((1, (), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ei, ((f"h{i}", r - l),), ((f"h{i}", l - 1),)))
            terms.append((ej, ((um, 0), (um, 0), (f"k{i}", r - l)),
                          ((um, 0), (um, 0), (f"k{j}", l - 1))))
    elif fam == "k":
        terms.append((1, ((name, r),), ((um, 0), (um, 0))))
        terms.append((1, ((up, 0), (up, 0)), ((name, r),)))
        for l in range(1, r + 1):
            terms.append((ej, ((f"k{i}", r - l),),
                          ((um, 0), (um, 0), (f"h{j}", l - 1))))
            terms.append((ei, ((up, 0), (up, 0), (f"h{i}", r - l)), ((f"k{i}", l - 1),)))
    else:
        raise KeyError(f"unknown family {name!r}")
    return terms


#: Stand-ins for eps1 and eps2 while :func:`_tail_terms` is walked for the
#: tower layout; every coefficient it forms is one of 1, +-eps1, +-eps2.
_EPS_CODES = (2, 3)
#: coefficient stand-in -> slot of the coefficient vector (1, eps1, eps2, -eps1, -eps2, 0)
_COEFF_SLOT = {1: 0, 2: 1, 3: 2, -2: 3, -3: 4}
_PAD_SLOT = 5


def _level_zero_words():
    """Letters, word -> row map and spelled ``(W, D)`` table of the distinct
    level-0 words of the tower terms, in first-seen :func:`_tail_terms` order
    at depth 1; the terms at every deeper level read the same words."""
    words = dict.fromkeys(tuple(g for g, _ in factors)
                          for name in FAMILIES for r in (0, 1)
                          for _, *sides in _tail_terms(name, r, *_EPS_CODES)
                          for factors in sides)
    letters = tuple(dict.fromkeys(g for word in words for g in word))
    return letters, {word: w for w, word in enumerate(words)}, spell(letters, list(words))


_LETTERS, _WORD_ROW, _SPELLED = _level_zero_words()


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _tower_layout(r_max: int):
    """The level coproducts of all families at levels 0..r_max, as index tables.

    Returns (words, terms).  Row (family, r) lists its distinct (left,
    right) word pairs in first-seen :func:`_tail_terms` order; ``words``
    (``(2, F (R+1), P)``) holds each pair's left and right word as rows of
    the module word tables (:func:`_word_table`), padded with the first
    pair, and ``terms`` holds, per pair, the coefficient slot, left level
    and right level of its terms in order, padded with zero terms to a
    common ``(3, F (R+1), P, K)`` shape.  Built once per r_max: it depends
    on nothing else.
    """
    rows = []
    for name in FAMILIES:
        for r in _levels(r_max):
            groups = {}
            for coeff, left, right in _tail_terms(name, r, *_EPS_CODES):
                pair = tuple(_WORD_ROW[tuple(g for g, _ in side)] for side in (left, right))
                groups.setdefault(pair, []).append(
                    (_COEFF_SLOT[coeff], sum(lvl for _, lvl in left),
                     sum(lvl for _, lvl in right)))
            rows.append(list(groups.items()))
    width = max(len(row) for row in rows)
    depth = max(len(terms) for row in rows for _, terms in row)
    words = np.empty((2, len(rows), width), dtype=int)
    words.T[:] = rows[0][0][0]
    terms = np.zeros((3, len(rows), width, depth), dtype=int)
    terms[0] = _PAD_SLOT
    for i, row in enumerate(rows):
        for p, (pair, group) in enumerate(row):
            words[:, i, p] = pair
            terms[:, i, p, :len(group)] = np.array(group).T
    for table in (words, terms):
        table.setflags(write=False)
    return words, terms


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise complex product rounded as Python's complex type rounds it.

    numpy's vector loops fuse the multiply-add of a complex product; forming
    the real and imaginary parts separately keeps the scalar rounding, so the
    scalar table equals the one built term by term in Python.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _word_table(rep: EvalRep) -> np.ndarray:
    """Read-only ``(W, n, n)`` products of the tower's level-0 words in ``rep``."""
    words = word_stack(rep.gather(_LETTERS), _SPELLED)
    words.setflags(write=False)
    return words


#: The word table of each module, read by both tower sides and every depth.
_module_words = lru_cache(maxsize=STACK_CACHE_SIZE)(_word_table)


def _direct_tower(rep_a: EvalRep, rep_b: EvalRep, eps, r_max: int,
                  words=_module_words) -> np.ndarray:
    """``(F, R+1, n, n)`` array of Delta_eps(g_{f,r}), built without the tower
    memo from the word tables ``words(rep_a)`` and ``words(rep_b)``."""
    (left, right), (slot, level_a, level_b) = _tower_layout(r_max)
    eps1, eps2 = complex(eps[0]), complex(eps[1])
    coeffs = np.array([1, eps1, eps2, -eps1, -eps2, 0], dtype=np.complex128)
    powers_a = np.array([rep_a.rho ** k for k in range(r_max + 1)], dtype=np.complex128)
    powers_b = np.array([rep_b.rho ** k for k in range(r_max + 1)], dtype=np.complex128)
    terms = _product(_product(coeffs[slot], powers_a[level_a]), powers_b[level_b])
    scalars = sum(terms[..., k] for k in range(terms.shape[-1]))
    # pair position p of every row is one column: the pair's scalar, its words
    columns = [(scalars[:, p, None, None], left[:, p], right[:, p])
               for p in range(left.shape[1])]
    tower = kron_sum(columns, rep_a.space, rep_b.space, words(rep_a), words(rep_b))
    return tower.reshape(len(FAMILIES), r_max + 1, *tower.shape[1:])


def coproduct_tower(rep_a: EvalRep, rep_b: EvalRep,
                    eps: tuple[complex, complex] = (1.0, 1.0), r_max: int = 4,
                    opposite: bool = False) -> np.ndarray:
    """Read-only ``(F, R+1, n, n)`` array of Delta_eps(g_{f,r}), or Delta_eps^op.

    The first axis follows :data:`FAMILIES`, the second the levels 0..r_max.
    A level-r factor acts as rho^r times its level-0 image, so the tower is
    one graded Kronecker product per distinct level-0 word pair, weighted
    by a scalar table of coeff * rho_a^La * rho_b^Lb summed per pair, and
    Delta^op is the graded flip of the swapped pair's tower.  Memoised per
    (rep_a, rep_b, eps, r_max, opposite); a request reads the first r_max + 1
    levels of a deeper tower of the same (rep_a, rep_b, eps, opposite) if
    one is alive, and the word tables are memoised per module.
    """
    # positional, normalised arguments: one cache entry whatever the call form
    return _tower(rep_a, rep_b, (complex(eps[0]), complex(eps[1])), int(r_max), bool(opposite))


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
    scale = np.array([complex(factors[g]) for g in ev.names])[:, None, None]
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
    factors = np.array([complex(scale[name]) for name in FAMILIES])
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
    :func:`.graded.product_table` (one BLAS call per coefficient of ``y``
    per leading index) and are summed into z^{-(r+s)} with r ascending, the
    order of the double loop over r, then s.
    """
    count = x.shape[-3]
    table = product_table(x, y)  # [..., s, r] = x_r y_s
    out = np.zeros(table.shape[:-4] + table.shape[-3:], dtype=np.complex128)
    for r in range(count):
        out[..., r:, :, :] += table[..., : count - r, r, :, :]
    return out


def _cauchy_batch(pairs: dict) -> dict:
    """Cauchy products x y of named ``(x, y)`` series pairs, in one batch."""
    x = np.stack([x for x, _ in pairs.values()])
    y = np.stack([y for _, y in pairs.values()])
    return dict(zip(pairs, _cauchy(x, y)))


def _series_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of the ``(N, n, n)`` series ``c``; requires an invertible constant term."""
    inv0 = np.linalg.inv(c[0])
    out = np.empty_like(c)
    out[0] = inv0
    for r in range(1, len(c)):
        terms = c[1:r + 1] @ out[r - 1::-1]  # c_s out_{r-s}, s = 1..r
        out[r] = -inv0 @ sum(terms, np.zeros_like(inv0))
    return out


def currents(ev: EvalRep, order: int) -> dict[str, np.ndarray]:
    """Drinfeld currents of the evaluation module, truncated at z^{-order}:
    each one read-only ``(order+1, n, n)`` array whose row r multiplies z^{-r}.

    e/f/k currents are pure tails sum_r rho^r pi(a) z^{-r-1}; the h currents
    (including h0) carry the constant term 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    x = ev.gather(FAMILIES)
    powers = np.array([ev.rho ** r for r in range(order)], dtype=np.complex128)
    coeffs = np.zeros((len(FAMILIES), order + 1, *x.shape[1:]), dtype=np.complex128)
    # the scalar operand first: numpy can round matrix * scalar differently
    coeffs[:, 1:] = powers[None, :, None, None] * x[:, None]
    coeffs[[name[0] == "h" for name in FAMILIES], 0] = np.eye(ev.space.dim)
    coeffs.setflags(write=False)
    return dict(zip(FAMILIES, coeffs))


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _current_layout(order: int):
    """Case names and (bracket, r, s, z-side row, w-side row) indices of the
    mixed coefficients r + s < order, bracket by bracket; a side row is the
    bracket's own, or the zero row ``len(_BRACKETS)`` off the boundary."""
    zero = len(_BRACKETS)
    names, index = [], []
    for c, (a, b, _, _) in enumerate(_BRACKETS):
        for r in range(order):
            for s in range(order - r):
                names.append(f"(w-z)[{a}(z),{b}(w)]@({r},{s})")
                index.append((c, r, s, c if s == 0 else zero, c if r == 0 else zero))
    index = np.array(index).T
    index.setflags(write=False)
    return tuple(names), index


def current_relations_report(ev: EvalRep, order: int,
                             tolerance: float = 1e-11) -> Report:
    """Defining relations as double-series identities, coefficient by coefficient.

    (w - z)[a(z), b(w)] is expanded over z^{-r} w^{-s}; the mixed coefficients
    must cancel and the boundary rows reproduce the level brackets.  Every
    [a_r, b_s} comes from two product tables (a_r b_s and b_s a_r), and
    every coefficient's residual from one array operation.  Also checks the k-current tie
    k_i(z) = alpha_i (u^2 h1(z) - u^{-2} h2(z))/z.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    cur = currents(ev, order)
    x = np.stack([cur[a] for a, _, _, _ in _BRACKETS])
    y = np.stack([cur[b] for _, b, _, _ in _BRACKETS])
    prod = product_table(x, y).swapaxes(1, 2)  # [c, r, s] = a_r b_s
    swap = product_table(y, x)  # [c, r, s] = b_s a_r
    odd = np.array([a != "h0" for a, _, _, _ in _BRACKETS])
    cross = np.where(odd[:, None, None, None, None], prod + swap, prod - swap)
    sides = np.stack([cur[t] if sign > 0 else -cur[t]
                      for _, _, t, sign in _BRACKETS]
                     + [np.zeros_like(x[0])])
    names, (ic, ir, is_, iz, iw) = _current_layout(order)
    lhs = cross[ic, ir, is_ + 1] - cross[ic, ir + 1, is_]
    rpt = residual_report("current-relations", tolerance, names, lhs,
                          sides[iz, ir] - sides[iw, is_])
    if ev.alpha is not None:
        up, um = ev.gather(("u+", "u-"))
        usq, usqm = complex((up @ up)[0, 0]), complex((um @ um)[0, 0])
        hcomb = np.zeros_like(x[0])
        hcomb[1:] = (usq * cur["h1"] - usqm * cur["h2"])[:-1]  # times 1/z
        for i, alpha in enumerate(ev.alpha, 1):
            rpt.add(f"k{i}(z) - a{i}(u^2 h1 - u^-2 h2)/z",
                    max_abs(cur[f"k{i}"] - complex(alpha) * hcomb))
    return rpt


#: The two orderings (i, j) of the node pair.
_NODE_PAIRS = ((1, 2), (2, 1))


def antipode_report(ev: EvalRep, order: int, tolerance: float = 1e-10) -> Report:
    """The antipode identities for all currents, truncated at the given order.

    H(z) = h1 h2 - k1 k2 has constant term 1 and is inverted as a series;
    the checks multiply out m(S x id)Delta and m(id x S)Delta for each
    current in a single evaluation module.  Each repeated subexpression,
    such as e_i h_j - e_j k_i, is formed once, and independent products are
    taken in four batches.
    """
    cur = currents(ev, order)
    one = np.zeros_like(cur["h0"])
    one[0] = np.eye(ev.space.dim)
    h, k = {1: cur["h1"], 2: cur["h2"]}, {1: cur["k1"], 2: cur["k2"]}
    e, f = {1: cur["e1"], 2: cur["e2"]}, {1: cur["f1"], 2: cur["f2"]}
    # products of two currents, keyed by their factors' names
    words = [("h1", "h2"), ("k1", "k2")]
    for i, j in _NODE_PAIRS:
        words += [(f"e{i}", f"h{j}"), (f"e{j}", f"k{i}"), (f"f{i}", f"h{j}"),
                  (f"f{j}", f"k{j}"), (f"h{j}", f"h{i}"), (f"k{i}", f"k{j}"),
                  (f"k{i}", f"h{j}"), (f"h{j}", f"k{i}"), (f"k{i}", f"h{i}"),
                  (f"h{i}", f"k{i}"), (f"h{j}", f"e{i}"), (f"k{i}", f"e{j}")]
    p = _cauchy_batch({f"{a} {b}": (cur[a], cur[b]) for a, b in words})
    big_h = p["h1 h2"] - p["k1 k2"]
    hinv = _series_inverse(big_h)
    # e_i h_j - e_j k_i and f_i h_j - f_j k_j, the numerators of S(e_i), S(f_i)
    num_e = {i: p[f"e{i} h{j}"] - p[f"e{j} k{i}"] for i, j in _NODE_PAIRS}
    num_f = {i: p[f"f{i} h{j}"] - p[f"f{j} k{j}"] for i, j in _NODE_PAIRS}
    # the products in the right antipode of e_i and the left antipode of f_i
    q = _cauchy_batch({key: pair for i, j in _NODE_PAIRS for key, pair in (
        (f"e{i} H", (e[i], big_h)), (f"h{i} num_e{i}", (h[i], num_e[i])),
        (f"k{i} num_e{j}", (k[i], num_e[j])), (f"f{i} H", (f[i], big_h)),
        (f"num_f{i} h{i}", (num_f[i], h[i])), (f"num_f{j} k{j}", (num_f[j], k[j])))})
    # every series that is multiplied by Hinv on the right
    over_h = {("H", 0): big_h}
    for i, j in _NODE_PAIRS:
        over_h |= {
            ("Se", i): num_e[i],
            ("Sf", i): num_f[i],
            ("h", i): p[f"h{j} h{i}"] - p[f"k{i} k{j}"],
            ("k-", i): p[f"k{i} h{j}"] - p[f"h{j} k{i}"],
            ("k+", i): p[f"k{i} h{i}"] - p[f"h{i} k{i}"],
            ("eL", i): -num_e[i] + p[f"h{j} e{i}"] - p[f"k{i} e{j}"],
            ("eR", i): q[f"e{i} H"] - q[f"h{i} num_e{i}"] - q[f"k{i} num_e{j}"],
            ("fL", i): q[f"f{i} H"] - q[f"num_f{i} h{i}"] - q[f"num_f{j} k{j}"],
            ("fR", i): -num_f[i] + p[f"f{i} h{j}"] - p[f"f{j} k{j}"],
        }
    t = _cauchy_batch({key: (x, hinv) for key, x in over_h.items()})
    s_e = {i: -t["Se", i] for i in (1, 2)}
    s_f = {i: -t["Sf", i] for i in (1, 2)}
    # h0: S(h0) = 1 - h0 + S(f1) e1 + S(f2) e2; the nontrivial side needs
    # S(f1) e1 + S(f2) e2 = f1 S(e1) + f2 S(e2)
    g = _cauchy_batch({f"S(f{i}) e{i}": (s_f[i], e[i]) for i in (1, 2)}
                      | {f"f{i} S(e{i})": (f[i], s_e[i]) for i in (1, 2)})
    lhs = g["S(f1) e1"] + g["S(f2) e2"]
    rhs = g["f1 S(e1)"] + g["f2 S(e2)"]
    s_h0 = one - cur["h0"] + lhs
    cases = [("H Hinv - 1", [t["H", 0] - one])]
    for i, j in _NODE_PAIRS:
        cases += [(f"h{i}: (h{j} h{i} - k{i} k{j}) Hinv - 1", [t["h", i] - one]),
                  (f"k{i}: commutator telescopes", [t["k-", i], t["k+", i]]),
                  (f"e{i}: left antipode", [t["eL", i]]),
                  (f"e{i}: right antipode", [t["eR", i]]),
                  (f"f{i}: left antipode", [t["fL", i]]),
                  (f"f{i}: right antipode", [t["fR", i]])]
    cases += [("h0: S(f)e = f S(e)", [lhs - rhs]),
              ("h0: S(h0) + h0 - S(f)e - 1", [s_h0 + cur["h0"] - lhs - one]),
              ("h0: S(h0) + h0 - f S(e) - 1", [s_h0 + cur["h0"] - rhs - one])]
    rpt = Report("antipode", tolerance)
    for name, series in cases:
        rpt.add(name, max(float(np.abs(x).max()) for x in series))
    return rpt


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
