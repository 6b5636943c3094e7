"""The centrally extended sl(1|1)^2 superalgebra with group-like central u.

Representations are stored as :class:`GeneratorImage`: the images of the
generators (e1, e2, f1, f2, h0, h1, h2, k1, k2, u+, u-) on a common graded
space as one read-only ``(G, n, n)`` array with a parity vector, together with the
central-extension couplings (alpha1, alpha2) that tie k_i to
alpha_i (u^2 - u^{-2}).  The module builders fill the stack from the labels,
in their scalar type (:func:`label_scalar` decides it), and the relation
checkers read it through gathered batched products; a SuperMatrix is made
only when an image is asked for by name.

The algebra carries a two-parameter family of u-deformed coproducts; at
representation level these are assembled with the Koszul-signed tensor
product from :mod:`.graded`, and the opposite coproduct is obtained by
conjugation with the graded permutation.
"""
from __future__ import annotations

import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

import numpy as np

from .coproduct import (ALGEBRAS, Algebra, CoproductTable, coproduct_matrix, coproduct_stack,
                        memoised_by_labels, spell, word_stack)
from .graded import C11, EVEN, ODD, GradedSpace, SuperMatrix, as_entries, max_abs, product_table
from .report import Report, c2j, residual_report

CLASSICAL_NAMES = ("e1", "e2", "f1", "f2", "h0", "h1", "h2", "k1", "k2", "u+", "u-")
_ODD_NAMES = frozenset({"e1", "e2", "f1", "f2"})
_PARITY = tuple(ODD if name in _ODD_NAMES else EVEN for name in CLASSICAL_NAMES)

#: 4-dimensional highest-weight module space, basis (v0, v1, v2, v21).
KAC_SPACE = GradedSpace(4, (EVEN, ODD, ODD, EVEN))

#: Entry patterns of the atypical images on C11 (basis w1, w0), each image a
#: pattern times one scalar: e_i lower w1 -> w0, f_i raise w0 -> w1, h0 is
#: diag(-2, -1) and the central elements are multiples of the identity.
#: The deformed atypical module reuses the rows of e, f and the identity.
#: The patterns are exact integers, so a stack takes the type of its values.
_LOWER = np.array([[0, 0], [1, 0]])
ATYPICAL_PATTERNS = np.stack([_LOWER, _LOWER, _LOWER.T, _LOWER.T, np.diag([-2, -1]),
                              *[np.eye(2, dtype=int)] * 6])


#: The defining brackets (a, b, t, sign): [a, b} = sign t, an anticommutator
#: for the odd pairs and a commutator with h0.  The Yangian's level images and
#: level coproduct satisfy them as [a_r, b_s} = sign t_{r+s}, its currents as
#: (w - z)[a(z), b(w)} = sign (t(z) - t(w)).
_BRACKETS = (("e1", "f1", "h1", 1), ("e2", "f2", "h2", 1),
             ("e1", "f2", "k1", 1), ("e2", "f1", "k2", 1),
             ("h0", "e1", "e1", 1), ("h0", "e2", "e2", 1),
             ("h0", "f1", "f1", -1), ("h0", "f2", "f2", -1))


class AtypicalLocusWarning(UserWarning):
    """Weights sit on the shortening locus; the 4-dim module is reducible."""


class DegenerateFusionError(ValueError):
    """The fused weights land on the shortening locus."""


class SingletPreconditionError(ValueError):
    """The requested pair of label sets does not admit a singlet."""


def label_scalar(value):
    """A label as stored: a Python or numpy number as a Python ``complex``, any other
    scalar (``mpmath``, ``sympy``) as given.  The one place the scalar type is decided."""
    return complex(value) if isinstance(value, (int, float, complex, np.number)) else value


def require_complex128(what: str, reps, hint: str = "") -> None:
    """Raise ``TypeError`` unless every module of ``reps`` is complex128: ``what`` runs LAPACK."""
    for dtype in {rep.stack.dtype for rep in reps} - {np.dtype(np.complex128)}:
        raise TypeError(f"{what} runs LAPACK in complex128, not on dtype {dtype}{hint}")


def decided(check: str, compare) -> bool:
    """``compare()``, which only compares values computed before the call, as a bool;
    a TypeError names ``check`` when symbolic labels leave it open."""
    try:
        return bool(compare())
    except TypeError as err:
        raise TypeError(f"cannot decide {check}: {err}") from err


@dataclass(frozen=True)
class RepLabels:
    """Atypical representation labels (gamma, nu, alpha1, alpha2).

    The weights are always derived: mu_i = alpha_i (nu^2 - nu^{-2}),
    lambda1 = gamma^2 mu2, lambda2 = gamma^{-2} mu1, so the shortening
    constraint lambda1 lambda2 = mu1 mu2 holds identically.  ``gamma`` is
    stored directly; which square root of gamma^2 to use is the caller's
    choice.  Each field is stored as :func:`label_scalar` gives it.
    """

    gamma: complex
    nu: complex
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        for name in ("gamma", "nu", "alpha1", "alpha2"):
            val = label_scalar(getattr(self, name))
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
        gap = abs(self.nu**2 - self.nu**-2)
        return decided("whether nu^4 = 1", lambda: gap < 1e-12)

    @property
    def alpha(self) -> tuple[complex, complex]:
        return (self.alpha1, self.alpha2)


def default_alpha(h: complex) -> tuple[complex, complex]:
    """The usual coupling convention alpha1 = -alpha2 = -h/2."""
    return (-h / 2, h / 2)


@dataclass(frozen=True, eq=False)
class GeneratorImage:
    """A representation: the images of ``names`` on a common graded space.

    ``stack`` is one read-only ``(G, n, n)`` array in ``names`` order, of the dtype
    given (the array is frozen in place), and ``parity`` the images' declared
    parities (``None``: undeclared).  :meth:`from_images` builds a module
    from a name -> SuperMatrix mapping.  ``rep[name]`` and :attr:`images`
    give SuperMatrix views made on access; :meth:`gather` gives arrays.
    """

    space: GradedSpace
    names: tuple[str, ...]
    stack: np.ndarray
    parity: tuple[int | None, ...]
    alpha: tuple[complex, complex] | None = None
    q: complex | None = None
    kind: str = "classical"

    def __post_init__(self):
        names, parity = tuple(self.names), tuple(self.parity)
        stack = np.asarray(self.stack)
        if (stack.shape != (len(names), self.space.dim, self.space.dim)
                or len(parity) != len(names)):
            raise ValueError("image stack does not match its names and carrier space")
        stack.setflags(write=False)
        for field, value in (("names", names), ("stack", stack), ("parity", parity),
                             ("_index", {name: g for g, name in enumerate(names)})):
            object.__setattr__(self, field, value)

    @classmethod
    def from_images(cls, space: GradedSpace, images: Mapping[str, SuperMatrix], *args,
                    **kwargs) -> "GeneratorImage":
        """The module of a name -> SuperMatrix mapping, each image an operator
        on ``space``, stacked once; the other arguments are the constructor's."""
        for name, mat in images.items():
            if mat.space_out != space or mat.space_in != space:
                raise ValueError(f"image of {name} is not an operator on the carrier space")
        stack = np.array([mat.m for mat in images.values()]).reshape(-1, space.dim, space.dim)
        return cls(space, tuple(images), stack, [mat.parity for mat in images.values()],
                   *args, **kwargs)

    def __getitem__(self, name: str) -> SuperMatrix:
        try:
            g = self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None
        return SuperMatrix(self.space, self.space, self.stack[g], self.parity[g])

    @property
    def images(self) -> Mapping[str, SuperMatrix]:
        """Read-only name -> SuperMatrix mapping of every image."""
        return MappingProxyType({name: self[name] for name in self.names})

    def gather(self, names) -> np.ndarray:
        """The images of ``names`` as one array, in that order; raises
        KeyError listing each missing image."""
        missing = [name for name in names if name not in self._index]
        if missing:
            raise KeyError(f"missing generator images: {missing}")
        if tuple(names) == self.names:
            return self.stack
        return self.stack[[self._index[name] for name in names]]

    def to_dict(self) -> dict:
        d = {
            "space": {"dim": self.space.dim, "parity": list(self.space.parity)},
            "generators": {name: self[name].to_dict() for name in self.names},
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
        alpha = tuple(complex(*a) for a in d["alpha"]) if "alpha" in d else None
        q = complex(*d["q"]) if "q" in d else None
        return GeneratorImage.from_images(space, imgs, alpha, q, d.get("kind", "classical"))


def _scalar_part(mat: np.ndarray) -> complex | None:
    """c such that mat = c * identity up to 1e-9 relative, or None."""
    c = complex(np.trace(mat)) / len(mat)
    if max_abs(mat - c * np.eye(len(mat))) <= 1e-9 * max(1.0, abs(c)):
        return c
    return None


def bracket_layout(names: tuple[str, ...], odd: frozenset, pairs) -> tuple:
    """Index arrays of the graded brackets [a, b} of ``pairs`` over ``names``:
    the generators that stand in a pair, and per pair the rows of x_a x_b and
    x_b x_a in the flattened product table of :func:`graded_brackets` and
    (-1)^{p_a p_b}.  One per checker, at import."""
    factor = {name: c for c, name in enumerate(dict.fromkeys(n for pair in pairs for n in pair))}

    def row(a, b):  # of x_a x_b: right factor b, left factor a
        return factor[b] * len(factor) + factor[a]
    return (np.array([names.index(name) for name in factor], dtype=int),
            np.array([row(a, b) for a, b in pairs], dtype=int),
            np.array([row(b, a) for a, b in pairs], dtype=int),
            np.array([-1.0 if a in odd and b in odd else 1.0 for a, b in pairs])[:, None, None])


def graded_brackets(x: np.ndarray, layout: tuple) -> np.ndarray:
    """``(P, n, n)`` brackets x_a x_b - (-1)^{p_a p_b} x_b x_a of a
    :func:`bracket_layout` on the ``(G, n, n)`` stack ``x``, read from one
    :func:`.graded.product_table` of the generators in a pair times each
    other (one BLAS call per right factor)."""
    factors, ab, ba, sign = layout
    factors = x[factors]
    table = product_table(factors, factors)
    table = table.reshape(-1, *table.shape[-2:])
    return table[ab] - sign * table[ba]


# -- relations as data: one evaluator reads every algebra's relation table ----


def _letters(word: str) -> tuple[str, ...]:
    """The letters of a word: its sub-words "(a b ...)" and its other names; "0" if empty."""
    return tuple(re.findall(r"\(.*?\)|\S+", word)) or ("0",)


#: The coefficient symbols :meth:`RelationTable.report` knows how to value.
_SYMBOL = re.compile(r"(1|q|alpha\d+)(/\(q-1/q\))?")


@cache  # sides repeat: "0" closes every central case, "1" every inverse pair
def _side(text: str) -> tuple:
    """(coefficient symbol, word, subtracted word) of "symbol: word - word"."""
    symbol, _, body = text.rpartition(": ")
    # the leading space splits "- f" too, whose first word is absent
    word, _, subtracted = f" {body}".partition(" - ")
    return symbol or "1", _letters(word), _letters(subtracted)


class RelationTable:
    """Defining relations over the generator ``names``: cases (name, left side,
    right side), each side written "symbol: word - word".

    The symbol is 1 (or none), q or alphaN, each optionally over (q-1/q); any other
    raises ValueError naming its case.  A word's letters are generator names, graded
    brackets "[a,b]", sub-words "(a b ...)", which are multiplied first, "1" (the
    identity) and "0"; an absent word is "0".  Every
    bracket enters one :func:`bracket_layout`; the sub-words, then the words of two
    or more letters, are multiplied by one :func:`.coproduct.word_stack` each.
    """

    def __init__(self, names: tuple[str, ...], odd: frozenset, cases):
        self.cases = tuple(cases)
        self.case_names = [name for name, _, _ in self.cases]
        sides = [_side(text) for _, lhs, rhs in self.cases for text in (lhs, rhs)]
        symbols = [symbol for symbol, _, _ in sides]
        for i, symbol in enumerate(symbols):
            if not _SYMBOL.fullmatch(symbol):
                raise ValueError(f"relation {self.case_names[i // 2]!r}: unknown coefficient "
                                 f"symbol {symbol!r}; use 1, q or alphaN, optionally /(q-1/q)")
        words = dict.fromkeys(word for _, plus, minus in sides for word in (plus, minus))
        letters = dict.fromkeys(letter for word in words for letter in word)
        brackets = [letter for letter in letters if letter.startswith("[")]
        subwords = [letter for letter in letters if letter.startswith("(")]
        long = [word for word in words if len(word) > 1]
        alphabet = (*names, *brackets, *subwords, "1", "0")
        pairs = [tuple(bracket[1:-1].split(",")) for bracket in brackets]
        self.layout = bracket_layout(names, odd, pairs)
        self.subwords = spell(names, [subword[1:-1].split() for subword in subwords])
        self.words = spell(alphabet, long)
        # rows of the word table: the alphabet's letters, then the longer words
        rows = [(letter,) for letter in alphabet] + long
        index = {word: w for w, word in enumerate(rows)}
        self.plus = np.array([index[plus] for _, plus, _ in sides])
        self.minus = np.array([index[minus] for _, _, minus in sides])
        self.symbols = tuple(dict.fromkeys(symbols))
        self.symbol_of = np.array([self.symbols.index(symbol) for symbol in symbols])

    def report(self, suite: str, tolerance: float, x: np.ndarray, q, alpha) -> Report:
        """Residuals of the cases on the ``(G, n, n)`` stack ``x`` of ``names``, each
        side times its coefficient on the right, as in SuperMatrix; cases whose
        coefficients need a q or couplings that are None drop out."""
        n = x.shape[-1]
        values = {"1": 1} | {f"alpha{i}": a for i, a in enumerate(alpha or (), 1)}
        if q is not None:  # q, and 1, q and each alphai over q - 1/q
            values["q"] = q
            values |= {f"{s}/(q-1/q)": v / (q - 1 / q) for s, v in values.items()}
        one = np.eye(n, dtype=x.dtype)[None]  # the letters "1" and "0" close the alphabet
        letters = np.concatenate([x, graded_brackets(x, self.layout),
                                  word_stack(x, self.subwords), one, 0 * one])
        table = np.concatenate([letters, word_stack(letters, self.words)])
        sides = table[self.plus] - table[self.minus]
        coeffs = np.array([values.get(symbol, 0) for symbol in self.symbols])[self.symbol_of]
        sides = (sides * coeffs[:, None, None]).reshape(-1, 2, n, n)
        names = self.case_names
        if not values.keys() >= set(self.symbols):
            known = np.array([symbol in values for symbol in self.symbols])
            kept = known[self.symbol_of].reshape(-1, 2).all(axis=1)
            names, sides = [name for name, keep in zip(names, kept) if keep], sides[kept]
        return residual_report(suite, tolerance, names, sides[:, 0], sides[:, 1])


# -- representation constructors ---------------------------------------------


@memoised_by_labels
def atypical_rep(labels: RepLabels) -> GeneratorImage:
    """The 2-dimensional atypical representation on basis (w1, w0).

    w1 is even and w0 odd; e_i lower w1 -> w0, f_i raise w0 -> w1, and the
    central elements act by the scalars lambda_i, mu_i, nu^{+-1}.  When
    nu^4 = 1 the representation is degenerate (``labels.degenerate``): the
    f images and all weights vanish.  The stack has the scalar type of the
    labels.  Memoised: equal labels give one module object.
    """
    g, nu, mu1, mu2 = labels.gamma, labels.nu, labels.mu1, labels.mu2
    values = (g, 1 / g, g * mu2, (1 / g) * mu1, 1, labels.lambda1, labels.lambda2,
              mu1, mu2, nu, 1 / nu)
    stack = ATYPICAL_PATTERNS * as_entries(values)[:, None, None]
    return GeneratorImage(C11, CLASSICAL_NAMES, stack, _PARITY, labels.alpha)


def on_shortening_locus(x: complex, y: complex, rel_tol: float) -> bool:
    """True when x = y up to ``rel_tol`` relative to max(|x|, |y|, 1).

    With x = lambda1 lambda2 and y = mu1 mu2 (or their q-brackets) this is
    the shortening constraint: the 4-dim module built from the weights is
    reducible.
    """
    return abs(x - y) <= rel_tol * max(abs(x), abs(y), 1.0)


#: Entry patterns of the 4-dim images on basis (v0, v1, v2, v21): the odd
#: images (zero here) are written in by :func:`kac_images`, h0 is
#: diag(0, -1, -1, -2), and the central elements are multiples of the identity.
KAC_PATTERNS = np.stack([*[np.zeros((4, 4), dtype=int)] * 4, np.diag([0, -1, -1, -2]),
                         *[np.eye(4, dtype=int)] * 6])


def kac_images(patterns: np.ndarray, values, lam1: complex, lam2: complex, mu1: complex,
               mu2: complex) -> np.ndarray:
    """Image stack ``patterns[g] * values[g]`` of a 4-dim module, with the odd
    images (the first four: e1, e2, f1, f2) written in.

    f1.v0 = v1, f2.v0 = v2, f2.v1 = -f1.v2 = v21; e_i brackets with f_i to
    the weight lam_i and with the other f to the central charge mu_i.  The
    deformed module passes q-brackets and coupled q-brackets (typed by :func:`as_entries`).
    """
    stack = patterns * as_entries(values)[:, None, None]
    rows, cols = [0, 0, 1, 2], [1, 2, 3, 3]
    stack[0, rows, cols] = lam1, mu1, mu1, -lam1
    stack[1, rows, cols] = mu2, lam2, lam2, -mu2
    stack[2, [1, 3], [0, 2]] = 1, -1
    stack[3, [2, 3], [0, 1]] = 1, 1
    return stack


def typical_rep(lambda1: complex, lambda2: complex, nu: complex,
                alpha: tuple[complex, complex]) -> GeneratorImage:
    """The 4-dimensional highest-weight module on basis (v0, v1, v2, v21).

    Odd images from :func:`kac_images`; central elements act by
    scalars.  Warns when the weights sit on the shortening locus.
    """
    a1, a2 = alpha
    mu1 = a1 * (nu**2 - nu**-2)
    mu2 = a2 * (nu**2 - nu**-2)
    if on_shortening_locus(lambda1 * lambda2, mu1 * mu2, 1e-12):
        warnings.warn("weights sit on the shortening locus", AtypicalLocusWarning)
    return _typical(lambda1, lambda2, nu, mu1, mu2, alpha)


def _typical(lam1, lam2, nu, mu1, mu2, alpha) -> GeneratorImage:
    """:func:`typical_rep` from weights whose locus test has already passed."""
    values = (0, 0, 0, 0, 1, lam1, lam2, mu1, mu2, nu, 1 / nu)
    stack = kac_images(KAC_PATTERNS, values, lam1, lam2, mu1, mu2)
    return GeneratorImage(KAC_SPACE, CLASSICAL_NAMES, stack, _PARITY, alpha)


# -- relation checkers ---------------------------------------------------------


#: The defining relations: the brackets, the odd pairs that vanish, u invertible,
#: the central generators and the central-extension constraints.
RELATIONS = RelationTable(CLASSICAL_NAMES, _ODD_NAMES, [
    *((f"[{a},{b}]{'-' if sign > 0 else '+'}{t}", f"[{a},{b}]", t if sign > 0 else f"- {t}")
      for a, b, t, sign in _BRACKETS),
    *((f"[{a},{b}]", f"[{a},{b}]", "0") for a in ("e1", "e2", "f1", "f2")
      for b in ("e1", "e2", "f1", "f2") if a[0] == b[0] and a <= b),
    ("u+u- - 1", "u+ u-", "1"),
    *((f"central:[{c},{g}]", f"[{c},{g}]", "0")
      for c in ("h1", "h2", "k1", "k2", "u+", "u-") for g in CLASSICAL_NAMES),
    *((f"k{i} - alpha{i}(u^2-u^-2)", f"k{i}", f"alpha{i}: u+ u+ - u- u-") for i in (1, 2))])


def check_relations(rep: GeneratorImage, tolerance: float = 1e-10) -> Report:
    """Residuals of the defining relations (:data:`RELATIONS`) in a representation;
    without couplings the central-extension constraints drop out."""
    return RELATIONS.report("algebra-relations", tolerance, rep.gather(CLASSICAL_NAMES),
                            rep.q, rep.alpha)


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
}, inverses={"u+": "u-", "u-": "u+"})


def coproduct_image(name: str, rep_a: GeneratorImage, rep_b: GeneratorImage,
                    opposite: bool = False) -> SuperMatrix:
    """Matrix of Delta(g) (or the opposite coproduct) on the graded tensor space.

    A slice of the memoised :func:`.coproduct.coproduct_stack` of the pair.
    """
    return coproduct_matrix(COPRODUCT, name, rep_a, rep_b, opposite)



# -- fusion and the singlet ---------------------------------------------------


@dataclass
class FusionResult:
    lambda1: complex
    lambda2: complex
    nu: complex
    basis: np.ndarray
    report: Report


def fusion_report(suite: str, rep_a, rep_b, lowering: tuple[str, str], weights, raised,
                  want: np.ndarray, tolerance: float) -> tuple[np.ndarray, Report]:
    """Identify rep_a (x) rep_b, two atypical modules, with a 4-dim module.

    Builds the cyclic basis (v0, v1, v2, v21) from v0 = w0 (x) w0' with the
    two ``lowering`` generators (v1 = f.v0, v2 = f'.v0, v21 = f'f.v0) and
    checks, on the coproduct stack of the pair (the table of their kind):

    * ``weights``: (name, value) with Delta(name) v0 = value v0;
    * ``raised``: (name, c1, c2) with Delta(name) v21 = c1 v1 - c2 v2;
    * every generator conjugated into the basis against its row of the
      ``(G, 4, 4)`` stack ``want``, in table order.

    Returns the basis and the report; LAPACK inverts the basis, so in complex128 only.
    """
    require_complex128("the fusion basis inverse", (rep_a, rep_b))
    table = ALGEBRAS[rep_a.kind].coproduct
    cop = dict(zip(table.names, coproduct_stack(table, rep_a, rep_b)))
    low1, low2 = (cop[name] for name in lowering)
    v0 = np.eye(4, dtype=complex)[3]  # w0 (x) w0'
    v1, v2 = low1 @ v0, low2 @ v0
    v21 = low2 @ v1
    basis = np.column_stack([v0, v1, v2, v21])

    r = Report(suite, tolerance)
    for name, val in weights:
        r.add(f"weight:{name}", max_abs(cop[name] @ v0 - val * v0), expected=val)
    for name, c1, c2 in raised:
        r.add(f"{name}.v21", max_abs(cop[name] @ v21 - (c1 * v1 - c2 * v2)))
    binv = np.linalg.inv(basis)
    for name, target in zip(table.names, want):
        r.add(f"basis-conjugation:{name}", max_abs(binv @ cop[name] @ basis - target))
    return basis, r


def _fused_weights(labels_a: RepLabels, labels_b: RepLabels) -> tuple[complex, ...]:
    """(lambda~1, lambda~2, nu~, mu~1, mu~2) of the product of two atypical
    modules: weights add, nu multiplies, mu~_i = alpha_i (nu~^2 - nu~^-2)."""
    nu_t = labels_a.nu * labels_b.nu
    a1, a2 = labels_a.alpha
    return (labels_a.lambda1 + labels_b.lambda1, labels_a.lambda2 + labels_b.lambda2, nu_t,
            a1 * (nu_t**2 - nu_t**-2), a2 * (nu_t**2 - nu_t**-2))


#: h0 on the fused module sits at the additive shift -2 of the cyclic vector's weight.
_H0_SHIFT = np.array([-2.0 if name == "h0" else 0.0 for name in CLASSICAL_NAMES])[:, None, None] \
    * np.eye(4)


def fuse_check(labels_a: RepLabels, labels_b: RepLabels,
               tolerance: float = 1e-10) -> FusionResult:
    """Identify the product of two atypical modules with a 4-dim module.

    :func:`fusion_report` on the fused weights; h0 is compared up to the
    additive shift -2, the weight of the chosen cyclic vector.
    """
    if max(abs(labels_a.alpha1 - labels_b.alpha1),
           abs(labels_a.alpha2 - labels_b.alpha2)) > 1e-12:
        raise ValueError("fusion requires identical couplings alpha_i")
    lam1, lam2, nu_t, mu1, mu2 = _fused_weights(labels_a, labels_b)
    if on_shortening_locus(lam1 * lam2, mu1 * mu2, 1e-10):
        raise DegenerateFusionError(
            "fused weights satisfy the shortening constraint; the product is reducible")
    target = _typical(lam1, lam2, nu_t, mu1, mu2, labels_a.alpha)
    basis, r = fusion_report(
        "fusion", atypical_rep(labels_a), atypical_rep(labels_b), ("f1", "f2"),
        (("h1", lam1), ("h2", lam2), ("k1", mu1), ("k2", mu2), ("u+", nu_t), ("u-", 1 / nu_t)),
        (("e1", mu1, lam1), ("e2", lam2, mu2)), target.stack + _H0_SHIFT, tolerance)
    return FusionResult(lam1, lam2, nu_t, basis, r)


def _require_singlet(what: str, quantities, tolerance: float) -> None:
    """Raise :class:`SingletPreconditionError` itemizing every (name, value) of
    ``quantities`` that is not zero up to ``tolerance``."""
    bad = [f"{nm} = {val:.3e}" for nm, val in quantities if abs(val) > tolerance]
    if bad:
        raise SingletPreconditionError(
            f"labels do not admit a {what}; nonzero: " + "; ".join(bad))


def singlet_vector(labels_a: RepLabels, labels_b: RepLabels,
                   tolerance: float = 1e-10) -> np.ndarray:
    """The invariant vector gamma w1 (x) w0' + gamma' nu nu' w0 (x) w1'.

    Requires all fused weights to vanish and nu nu' = 1; the failing
    quantities are itemized otherwise.
    """
    lam1, lam2, nunu, mu1, mu2 = _fused_weights(labels_a, labels_b)
    _require_singlet("singlet", (("lambda~1", lam1), ("lambda~2", lam2), ("mu~1", mu1),
                                 ("mu~2", mu2), ("nu nu' - 1", nunu - 1)), tolerance)
    return np.array([0, labels_a.gamma, labels_b.gamma * labels_a.nu * labels_b.nu, 0])


def singlet_lines(suite: str, rep_a, rep_b, v: np.ndarray, annihilating, invariant, eigen,
                  tolerance: float) -> Report:
    """Residuals of an invariant vector ``v`` of rep_a (x) rep_b, on the coproduct stack
    of the table of their kind.

    Delta(g) v = 0 for g in ``annihilating``, Delta(g) v = v for g in
    ``invariant``, and v an eigenvector of Delta(g) for g in ``eigen``
    (the eigenvalue is recorded).
    """
    table = ALGEBRAS[rep_a.kind].coproduct
    cop = dict(zip(table.names, coproduct_stack(table, rep_a, rep_b)))
    r = Report(suite, tolerance)
    for name in annihilating:
        r.add(f"annihilation:{name}", max_abs(cop[name] @ v))
    for name in invariant:
        r.add(f"invariance:{name}", max_abs(cop[name] @ v - v))
    for name in eigen:
        gv = cop[name] @ v
        coeff = np.vdot(v, gv) / np.vdot(v, v)
        r.add(f"{name}-eigenvector", max_abs(gv - coeff * v), eigenvalue=complex(coeff))
    return r


def singlet_report(labels_a: RepLabels, labels_b: RepLabels,
                   tolerance: float = 1e-11) -> Report:
    """Annihilation and invariance residuals for the singlet vector."""
    v = singlet_vector(labels_a, labels_b, tolerance=max(tolerance, 1e-10))
    return singlet_lines("singlet", atypical_rep(labels_a), atypical_rep(labels_b), v,
                         ("e1", "e2", "f1", "f2"), ("u+", "u-"), ("h0",), tolerance)


# -- twists -------------------------------------------------------------------

#: The three non-trivial involutive outer twists; each entry maps a target
#: generator to (source generator, coefficient), plus the coupling map.  The
#: u-inverting rows also flip the couplings, (a1, a2) -> (-a2, -a1), as the
#: central-extension constraint requires.
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

#: The undeformed algebra's record; the k_i constraint makes the central elements cocommute.
ALGEBRAS["classical"] = Algebra("", COPRODUCT, ("h1", "h2", "k1", "k2", "u+", "u-"), KLEIN_ROWS)


def klein_twist(name: str, rep: GeneratorImage) -> GeneratorImage:
    """Apply the outer automorphism ``name`` of the Klein rows of the module's algebra:
    (target -> (source, coefficient), coupling map); q and kind are kept."""
    rows = ALGEBRAS[rep.kind].klein_rows
    try:
        table, alpha_map = rows[name]
    except KeyError:
        raise KeyError(f"unknown twist {name!r} of kind {rep.kind!r}; "
                       f"choose from {sorted(rows)}") from None
    sources = [src for src, _ in table.values()]
    coeffs = np.array([coeff for _, coeff in table.values()])
    alpha = alpha_map(rep.alpha) if rep.alpha is not None else None
    return GeneratorImage(rep.space, tuple(table), rep.gather(sources) * coeffs[:, None, None],
                          [rep.parity[rep._index[src]] for src in sources], alpha, rep.q, rep.kind)


def gl2_twist(a: np.ndarray, b: np.ndarray, rep: GeneratorImage) -> GeneratorImage:
    """Outer GL(2) x GL(2) twist: e by A, f by B, the h/k block by A (.) B^t.

    The effective couplings of the twisted representation are recovered from
    its (scalar) k images when possible, so the constraint checks remain
    meaningful.
    """
    a, b = (np.asarray(m, dtype=complex) for m in (a, b))
    if abs(np.linalg.det(a)) < 1e-14 or abs(np.linalg.det(b)) < 1e-14:
        raise ValueError("twist matrices must be invertible")
    x = np.array(rep.gather(CLASSICAL_NAMES))
    e, f, hk = x[0:2].copy(), x[2:4].copy(), x[[5, 7, 8, 6]].reshape(2, 2, *x.shape[1:])
    for r in range(2):
        x[r] = e[0] * a[r, 0] + e[1] * a[r, 1]
        x[2 + r] = f[0] * b[r, 0] + f[1] * b[r, 1]
    for g, (r, c) in zip((5, 7, 8, 6), ((0, 0), (0, 1), (1, 0), (1, 1))):  # h1, k1, k2, h2
        x[g] = sum(hk[s, t] * (a[r, s] * b[c, t]) for s in range(2) for t in range(2))
    alpha = None
    nu = _scalar_part(x[9])
    if nu is not None and abs(nu**2 - nu**-2) > 1e-12:
        k1c, k2c = _scalar_part(x[7]), _scalar_part(x[8])
        if k1c is not None and k2c is not None:
            alpha = (k1c / (nu**2 - nu**-2), k2c / (nu**2 - nu**-2))
    parity = [rep.parity[rep._index[name]] for name in CLASSICAL_NAMES]
    return GeneratorImage(rep.space, CLASSICAL_NAMES, x, parity, alpha, kind=rep.kind)
