"""Coproduct tables, evaluated on a representation pair as one stacked array.

A :class:`CoproductTable` lists the terms ``(coeff, left word, right word)``
of Delta(g) for every generator g, with the antipode and the counit; a word
is read as the matrix product of its letters' images (:func:`word_stack`).
:func:`coproduct_stack` evaluates a whole table on a pair of modules as one
read-only ``(G, n, n)`` array, Delta^op as the swapped pair's stack
conjugated by the graded permutation, and :func:`coassociativity_stacks`
gives both sides of coassociativity on a triple.  Stacks keep the modules'
scalar type: the coefficients, signs and permutations are integers.

Representations are immutable and hash by identity, so stacks are memoised
per (table, rep_a, rep_b, opposite), and word products per (table, rep), in
bounded LRU caches holding strong references to their keys (an object id is
never reused while its entry is live).  Builders memoised by their labels
(:func:`memoised_by_labels`) give one object for equal double labels, so
these memos hit wherever a module is rebuilt from its labels.
"""
from __future__ import annotations

from functools import lru_cache, wraps
from types import MappingProxyType

import numpy as np

from .graded import SuperMatrix, graded_flip, kron_arrays

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
    dressings, so S(x) = -x and eps(x) = 0.  Hashes by identity; build one
    per algebra at import time and enter it in :data:`TABLES`.
    """

    def __init__(self, terms: dict[str, tuple], inverses: dict[str, str]):
        self.terms = MappingProxyType(dict(terms))
        self.names = tuple(self.terms)
        self._index = {name: i for i, name in enumerate(self.names)}
        #: antipode on generators: name -> (image generator, coefficient)
        self.antipode = MappingProxyType({
            name: (inverses[name], 1) if name in inverses else (name, -1)
            for name in self.names})
        #: eps(g) for g in ``names``
        self.counit = np.array([1.0 if name in inverses else 0.0 for name in self.names])
        width = max(len(t) for t in self.terms.values())
        padded = [t + ((0, (), ()),) * (width - len(t)) for t in self.terms.values()]
        #: every distinct word of the table, in first-seen order, and spelled
        self.words = tuple(dict.fromkeys(
            word for row in padded for _, left, right in row for word in (left, right)))
        self.spelled = spell(self.names, self.words)
        slot = {word: i for i, word in enumerate(self.words)}
        # Term position k of every generator, padded with zero terms on empty
        # words: (coefficients shaped to broadcast over the Kronecker block,
        # indices of the left words and of the right words in ``words``).
        self.columns = tuple(
            (np.array([row[k][0] for row in padded]).reshape(-1, 1, 1),
             np.array([slot[row[k][1]] for row in padded]),
             np.array([slot[row[k][2]] for row in padded]))
            for k in range(width))

    def position(self, name: str) -> int:
        """Index of ``name`` along the first axis of a stack."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None


#: module ``kind`` -> its algebra's table.  Each algebra module enters its own
#: at import, not the constructor: a table built elsewhere replaces no entry.
TABLES: dict[str, CoproductTable] = {}


def spell(names: tuple[str, ...], words) -> np.ndarray:
    """``(W, L)`` index table of ``words`` over the generator ``names``.

    Each word is padded with the identity index ``len(names)`` to the length
    of the longest word (at least 1).
    """
    index = {name: g for g, name in enumerate(names)}
    width = max([1, *map(len, words)])
    spelled = np.array([[index[name] for name in word] + [len(names)] * (width - len(word))
                        for word in words])
    spelled.setflags(write=False)
    return spelled


def word_stack(stack: np.ndarray, spelled: np.ndarray) -> np.ndarray:
    """``(W, n, n)`` products of spelled words on a ``(G, n, n)`` image stack.

    Each word is multiplied left to right, one batched gather per letter
    position; index G is the identity (of the stack's dtype), and a product
    by an identity is exact, so every entry equals the word's plain product.
    """
    images = np.concatenate([stack, np.eye(stack.shape[-1], dtype=stack.dtype)[None]])
    words = images[spelled[:, 0]]
    for column in spelled.T[1:]:
        words = words @ images[column]
    return words


def coproduct_stack(table: CoproductTable, rep_a, rep_b,
                    opposite: bool = False) -> np.ndarray:
    """Read-only ``(G, n, n)`` array of Delta(g), or Delta^op(g), for g in ``table.names``."""
    # positional, normalised arguments: one cache entry whatever the call form
    return _stack(table, rep_a, rep_b, bool(opposite))


def coassociativity_stacks(table: CoproductTable, rep_a, rep_b, rep_c):
    """(Delta x id)Delta and (id x Delta)Delta on rep_a (x) rep_b (x) rep_c, as two stacks.

    They are the Delta stacks of (rep_a (x) rep_b, rep_c) and of
    (rep_a, rep_b (x) rep_c), where a tensor module's generators act by the
    slices of its pair's stack.  The tensor modules live for one call, so
    their word products and these two stacks enter no memo; the pair stacks
    and the word products of the three given modules do.
    """
    ab, bc = coproduct_stack(table, rep_a, rep_b), coproduct_stack(table, rep_b, rep_c)
    left = kron_sum(table.columns, rep_a.space.tensor(rep_b.space), rep_c.space,
                    word_stack(ab, table.spelled), _words(table, rep_c))
    right = kron_sum(table.columns, rep_a.space, rep_b.space.tensor(rep_c.space),
                     _words(table, rep_a), word_stack(bc, table.spelled))
    return left, right


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

    Each column is (coefficients shaped ``(R, 1, 1)``, left word index
    per row, right word index per row) into the ``(W, n, n)`` word products
    ``words_a`` on ``space_a`` and ``words_b`` on ``space_b``.  One broadcast
    graded Kronecker product per column; columns are summed in order.
    """
    return sum(coeff * kron_arrays(words_a[left], words_b[right], space_a, space_a,
                                   space_b, space_b) for coeff, left, right in columns)


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
