"""Coproduct tables, the algebra registry, and the Hopf axioms checked on stacks.

A :class:`CoproductTable` lists the terms ``(coeff, left word, right word)``
of Delta(g) for every generator g, with the antipode and the counit; a word
is read as the matrix product of its letters' images (:func:`word_stack`).
:func:`coproduct_stack` evaluates a whole table on a pair of modules as one
read-only ``(G, n, n)`` array, Delta^op as the swapped pair's stack
conjugated by the graded permutation.  Stacks keep the modules'
scalar type: the coefficients, signs and permutations are integers.
:data:`ALGEBRAS` maps a module's ``kind`` to its :class:`Algebra`; the Hopf
axioms below and every other check that needs a coproduct read the entry of
their modules' kind when called, so replacing one entry reaches them all.

Representations are immutable and hash by identity, so stacks are memoised
per (table, rep_a, rep_b, opposite), and word products per (table, rep), in
bounded LRU caches holding strong references to their keys (an object id is
never reused while its entry is live).  Builders memoised by their labels
(:func:`memoised_by_labels`) give one object for equal double labels, so
these memos hit wherever a module is rebuilt from its labels.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType

import numpy as np

from .graded import SuperMatrix, graded_flip, kron_arrays
from .report import Report, residual_report

#: Number of entries each memo keeps alive: stacks per (table, rep_a, rep_b,
#: opposite), word products per (table, rep), modules per label set.
STACK_CACHE_SIZE = 32


def memoised_by_labels(build):
    """``build(labels, *options)`` in an LRU cache keyed by the arguments and the exact
    bits of every complex among them and the labels' fields: ``==`` takes -0.0 for 0.0,
    but a zero's sign reaches the module's data.  Labels with any other field type are
    built on every call (equal ``mpmath`` values of two precisions hash equal).
    ``__wrapped__`` does not cache."""
    @lru_cache(maxsize=STACK_CACHE_SIZE)
    def cached(bits, labels, *options):
        return build(labels, *options)

    @wraps(build)
    def memo(labels, *options):
        if not {complex, str}.issuperset(map(type, vars(labels).values())):
            return build(labels, *options)
        parts = [v for v in (*vars(labels).values(), *options) if isinstance(v, complex)]
        return cached(np.array(parts, dtype=np.complex128).tobytes(), labels, *options)
    return memo


class CoproductTable:
    """Hopf data on generators: Delta as name -> ((coeff, left word, right word), ...),
    and the group-likes, each mapped to its inverse.

    The antipode and the counit follow: S(g) = g^{-1} and eps(g) = 1 on a
    group-like; every other generator x is skew-primitive with central
    dressings, so S(x) = -x and eps(x) = 0: S(g) is ``antipode_signs[g]`` times the
    image of ``antipode_sources[g]``, and S reverses words (``reversed_words``).
    Hashes by identity; build one per algebra at import, for its :class:`Algebra`.
    """

    def __init__(self, terms: dict[str, tuple], inverses: dict[str, str]):
        self.terms = MappingProxyType(dict(terms))
        self.names = tuple(self.terms)
        self._index = {name: i for i, name in enumerate(self.names)}
        #: antipode on generators: name -> (image generator, coefficient)
        self.antipode = MappingProxyType({
            name: (inverses[name], 1) if name in inverses else (name, -1)
            for name in self.names})
        self.antipode_sources = [src for src, _ in self.antipode.values()]
        self.antipode_signs = np.array([c for _, c in self.antipode.values()])[:, None, None]
        #: eps(g) for g in ``names``
        self.counit = np.array([1.0 if name in inverses else 0.0 for name in self.names])
        width = max(len(t) for t in self.terms.values())
        padded = [t + ((0, (), ()),) * (width - len(t)) for t in self.terms.values()]
        #: every distinct word of the table, in first-seen order, and spelled
        self.words = tuple(dict.fromkeys(
            word for row in padded for _, left, right in row for word in (left, right)))
        self.spelled = spell(self.names, self.words)
        self.reversed_words = spell(self.names, [word[::-1] for word in self.words])
        slot = {word: i for i, word in enumerate(self.words)}
        # Term position k of every generator, padded with zero terms on empty
        # words, one row per k: (coefficients ``(K, G, 1, 1)``, shaped to
        # broadcast over the Kronecker block, and the ``(K, G)`` indices of the
        # left words and of the right words in ``words``).
        positions = list(zip(*padded))
        self.columns = (np.array([[t[0] for t in terms] for terms in positions])[..., None, None],
                        *(np.array([[slot[t[side]] for t in terms] for terms in positions])
                          for side in (1, 2)))

    def position(self, name: str) -> int:
        """Index of ``name`` along the first axis of a stack."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None


@dataclass(frozen=True)
class Algebra:
    """What the shared checkers read of one algebra: the prefix of its report
    suites, its coproduct table, the generators on which Delta = Delta^op, and
    its Klein-four twists (name -> (target -> (source, coefficient), coupling map))."""

    prefix: str
    coproduct: CoproductTable
    cocommutative: tuple[str, ...]
    klein_rows: Mapping[str, tuple]


#: module ``kind`` -> its algebra; each algebra module enters its own record at import.
ALGEBRAS: dict[str, Algebra] = {}


def spell(names: tuple[str, ...], words) -> np.ndarray:
    """``(W, L)`` index table of ``words`` over the generator ``names``.

    Each word is padded with the identity index ``len(names)`` to the length
    of the longest word (at least 1).
    """
    index = {name: g for g, name in enumerate(names)}
    width = max([1, *map(len, words)])
    spelled = np.array([[index[name] for name in word] + [len(names)] * (width - len(word))
                        for word in words], dtype=int).reshape(-1, width)
    spelled.setflags(write=False)
    return spelled


def word_stack(stack: np.ndarray, spelled: np.ndarray) -> np.ndarray:
    """``(..., W, n, n)`` products of spelled words on a ``(..., G, n, n)`` image stack;
    leading axes are stacks of modules, each read on its own.

    Each word is multiplied left to right, one batched gather per letter
    position; index G is the identity (of the stack's dtype), and a product
    by an identity is exact, so every entry equals the word's plain product.
    No words give an empty stack of the stack's dtype.
    """
    *batch, count, n, _ = stack.shape
    if not len(spelled):
        return np.empty((*batch, 0, n, n), dtype=stack.dtype)
    images = np.empty((*batch, count + 1, n, n), dtype=stack.dtype)
    images[..., :count, :, :] = stack
    images[..., count, :, :] = np.eye(n, dtype=stack.dtype)
    words = images.take(spelled[:, 0], axis=-3)
    for column in spelled.T[1:]:
        words = words @ images.take(column, axis=-3)
    return words


def coproduct_stack(table: CoproductTable, rep_a, rep_b,
                    opposite: bool = False) -> np.ndarray:
    """Read-only ``(G, n, n)`` array of Delta(g), or Delta^op(g), for g in ``table.names``."""
    # positional, normalised arguments: one cache entry whatever the call form
    return _stack(table, rep_a, rep_b, bool(opposite))


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _stack(table: CoproductTable, rep_a, rep_b, opposite: bool) -> np.ndarray:
    if opposite:
        stack = graded_flip(_stack(table, rep_b, rep_a, False), rep_a.space, rep_b.space)
    else:
        stack = kron_sum(table.columns, rep_a.space, rep_b.space,
                         _words(table, rep_a), _words(table, rep_b))
    stack.setflags(write=False)
    return stack


def kron_sum(columns, space_a, space_b, words_a: np.ndarray, words_b: np.ndarray) -> np.ndarray:
    """``(R, n, n)`` stack of row sums of coeff * (left word (x) right word).

    ``columns`` is (coefficients ``(K, R, 1, 1)``, left and right word indices
    ``(K, R)``) into the ``(W, n, n)`` word products ``words_a`` on ``space_a``
    and ``words_b`` on ``space_b``.  One broadcast graded Kronecker product of
    all K columns, summed in order.
    """
    coeffs, left, right = columns
    return sum(coeffs * kron_arrays(words_a.take(left, axis=0), words_b.take(right, axis=0),
                                    space_a, space_a, space_b, space_b))


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _words(table: CoproductTable, rep) -> np.ndarray:
    """Read-only ``(W, n, n)`` array of the products of ``table.words`` in ``rep``."""
    words = word_stack(rep.gather(table.names), table.spelled)
    words.setflags(write=False)
    return words


def coproduct_matrix(table: CoproductTable, name: str, rep_a, rep_b,
                     opposite: bool = False) -> SuperMatrix:
    """One slice of :func:`coproduct_stack` as a SuperMatrix on rep_a (x) rep_b."""
    i = table.position(name)
    space = rep_a.space.tensor(rep_b.space)
    return SuperMatrix(space, space, coproduct_stack(table, rep_a, rep_b, opposite)[i])


# -- the Hopf axioms, on the table of the modules' kind -------------------------


def coassociativity_report(rep_a, rep_b, rep_c, tolerance: float = 1e-10) -> Report:
    """Report of (Delta x id)Delta = (id x Delta)Delta on every generator: the Delta
    stacks of (rep_a (x) rep_b, rep_c) and (rep_a, rep_b (x) rep_c), a tensor module
    acting by its pair's stack.  Only the pair stacks and the words of the three
    given modules enter the memos."""
    alg = ALGEBRAS[rep_a.kind]
    table = alg.coproduct
    ab, bc = coproduct_stack(table, rep_a, rep_b), coproduct_stack(table, rep_b, rep_c)
    left = kron_sum(table.columns, rep_a.space.tensor(rep_b.space), rep_c.space,
                    word_stack(ab, table.spelled), _words(table, rep_c))
    right = kron_sum(table.columns, rep_a.space, rep_b.space.tensor(rep_c.space),
                     _words(table, rep_a), word_stack(bc, table.spelled))
    return residual_report(f"{alg.prefix}coassociativity", tolerance,
                           [f"coassoc:{name}" for name in table.names], left, right)


def counit_antipode_report(rep, tolerance: float = 1e-10) -> Report:
    """Report of m(S x id)Delta(g) = eps(g) 1 on every generator, in one module."""
    alg = ALGEBRAS[rep.kind]
    table = alg.coproduct
    s_words = word_stack(rep.gather(table.antipode_sources) * table.antipode_signs,
                         table.reversed_words)
    coeffs, left, right = table.columns
    lhs = sum(coeffs * (s_words[left] @ _words(table, rep)[right]))
    counit = table.counit[:, None, None] * np.eye(rep.space.dim)
    return residual_report(f"{alg.prefix}counit-antipode", tolerance,
                           [f"antipode:{name}" for name in table.names], lhs, counit)


def cocommutativity_report(rep_a, rep_b, tolerance: float = 1e-10) -> Report:
    """Report of Delta(g) = Delta^op(g) on the algebra's cocommutative generators."""
    alg = ALGEBRAS[rep_a.kind]
    table, names = alg.coproduct, alg.cocommutative
    positions = [table.position(name) for name in names]
    return residual_report(f"{alg.prefix}cocommutativity", tolerance,
                           [f"cocomm:{name}" for name in names],
                           coproduct_stack(table, rep_a, rep_b)[positions],
                           coproduct_stack(table, rep_a, rep_b, opposite=True)[positions])
