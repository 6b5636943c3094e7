"""Coproduct tables, evaluated on a representation pair as one stacked array.

A :class:`CoproductTable` lists, for every generator g, the terms
``(coeff, left word, right word)`` of Delta(g).  A word is a tuple of
generator names, read as the matrix product of their images in one
representation; the empty word is the identity.

:func:`coproduct_stack` evaluates a whole table on a pair of
representations.  It takes one broadcast graded Kronecker product per term
position, over all generators at once, and returns a read-only ``(G, n, n)``
array whose g-th slice is Delta(g).  The opposite coproduct is the
swapped-pair stack conjugated by the graded permutation, which supplies all
Koszul signs.  The table also carries the antipode and the counit.

Representations are immutable and hash by identity, so stacks are memoised
per (table, rep_a, rep_b, opposite), and the table's word products per
(table, rep), in bounded LRU caches.  The caches hold strong references to
their keys, so an object id is never reused while its entry is live.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .graded import SuperMatrix, _kron_layout, graded_flip

#: Number of entries each memo keeps alive: stacks per (table, rep_a, rep_b,
#: opposite), word products per (table, rep).
STACK_CACHE_SIZE = 32


class CoproductTable:
    """Hopf data on generators: Delta as name -> ((coeff, left word, right word), ...),
    and the group-likes, each mapped to its inverse.

    The antipode and the counit follow: S(g) = g^{-1} and eps(g) = 1 on a
    group-like; every other generator x is skew-primitive with central
    dressings, so S(x) = -x and eps(x) = 0.  Hashes by identity; build one
    per algebra at import time.
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
        #: every distinct word of the table, in first-seen order
        self.words = tuple(dict.fromkeys(
            word for row in padded for _, left, right in row for word in (left, right)))
        slot = {word: i for i, word in enumerate(self.words)}
        # Term position k of every generator, padded with zero terms on empty
        # words: (coefficients shaped to broadcast over the Kronecker block,
        # indices of the left words and of the right words in ``words``).
        self.columns = tuple(
            (np.array([row[k][0] for row in padded],
                      dtype=np.complex128).reshape(-1, 1, 1, 1, 1),
             np.array([slot[row[k][1]] for row in padded]),
             np.array([slot[row[k][2]] for row in padded]))
            for k in range(width))

    def position(self, name: str) -> int:
        """Index of ``name`` along the first axis of a stack."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None


def word_product(rep, word: tuple[str, ...]) -> np.ndarray:
    """Matrix of the product of the named generators in ``rep``, left to right."""
    if not word:
        return np.eye(rep.space.dim, dtype=np.complex128)
    mat = rep[word[0]].m
    for name in word[1:]:
        mat = mat @ rep[name].m
    return mat


def word_matrix(rep, word: tuple[str, ...]) -> SuperMatrix:
    """:func:`word_product` as a SuperMatrix on the carrier space of ``rep``."""
    return SuperMatrix(rep.space, rep.space, word_product(rep, word))


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
        out, inn, sign = _kron_layout(rep_a.space, rep_a.space, rep_b.space, rep_b.space)
        words_a, words_b = _words(table, rep_a), _words(table, rep_b)
        stack = 0
        for coeff, left, right in table.columns:
            a, b = words_a[left], words_b[right]
            stack = stack + coeff * (a[:, :, None, :, None] * b[:, None, :, None, :] * sign)
        stack = stack.reshape(len(table.names), out.dim, inn.dim)
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=STACK_CACHE_SIZE)
def _words(table: CoproductTable, rep) -> np.ndarray:
    """Read-only ``(W, n, n)`` array of :func:`word_product` over ``table.words``."""
    words = np.stack([word_product(rep, word) for word in table.words])
    words.setflags(write=False)
    return words


def coproduct_matrix(table: CoproductTable, name: str, rep_a, rep_b,
                     opposite: bool = False) -> SuperMatrix:
    """One slice of :func:`coproduct_stack` as a SuperMatrix on rep_a (x) rep_b."""
    i = table.position(name)
    space = _kron_layout(rep_a.space, rep_a.space, rep_b.space, rep_b.space)[0]
    return SuperMatrix(space, space, coproduct_stack(table, rep_a, rep_b, opposite)[i])
