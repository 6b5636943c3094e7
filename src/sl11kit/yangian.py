"""The u-deformed Yangian extension, realized in evaluation representations.

Level-r generators act as rho^r times the level-0 matrices, where rho is
the scalar by which (u^2 h1 - u^{-2} h2)/(u^2 - u^{-2}) acts on an atypical
module.  The level-mixing coproduct family Delta_eps (eps_1 = eps_2 = 1 is
the canonical one) is assembled with its terms grouped by level-0 word:
each (left word, right word) pair takes one graded tensor product, scaled
by its terms' coefficients times powers of the two evaluation parameters.
Drinfeld currents are handled as matrix-valued polynomials in 1/z
truncated at a configurable order.

Everything here is verified in evaluation representations; no abstract
normal-ordered arithmetic is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GeneratorImage, RepLabels, atypical_rep
from .coproduct import word_matrix
from .graded import SuperMatrix, graded_kron, graded_perm, max_abs
from .report import Report

FAMILIES = ("e1", "e2", "f1", "f2", "h1", "h2", "k1", "k2", "h0")


@dataclass(frozen=True)
class EvalRep:
    """Evaluation representation: base atypical images and the scalar rho."""

    base: GeneratorImage
    rho: complex

    @property
    def space(self):
        return self.base.space

    def image(self, name: str, level: int = 0) -> SuperMatrix:
        if level < 0:
            raise ValueError("negative level")
        return (self.rho ** level) * self.base[name]


def eval_rep(labels: RepLabels) -> EvalRep:
    """Evaluation representation on an atypical module.

    rho = (nu^2 lambda1 - nu^{-2} lambda2)/(nu^2 - nu^{-2}); requires
    nu^4 != 1 so the denominator is invertible.
    """
    denom = labels.nu**2 - labels.nu**-2
    if abs(denom) < 1e-12:
        raise ValueError("nu^4 = 1 makes the evaluation parameter rho singular")
    rho = (labels.nu**2 * labels.lambda1 - labels.nu**-2 * labels.lambda2) / denom
    return EvalRep(atypical_rep(labels), rho)


def scaled_eval_pair(labels_a: RepLabels, labels_b: RepLabels,
                     rho_bound: float = 1.0) -> tuple[EvalRep, EvalRep]:
    """Evaluation pair with couplings rescaled jointly so both |rho| <= bound.

    rho is linear in the couplings, so one common real factor tames the
    level growth rho^r in truncated checks while keeping the two modules
    over the same algebra (identical alpha_i).
    """
    ra, rb = eval_rep(labels_a), eval_rep(labels_b)
    worst = max(abs(ra.rho), abs(rb.rho))
    if worst <= rho_bound:
        return ra, rb
    s = rho_bound / worst
    out = []
    for lab in (labels_a, labels_b):
        out.append(eval_rep(RepLabels(lab.gamma, lab.nu,
                                      lab.alpha1 * s, lab.alpha2 * s)))
    return tuple(out)


def kir_report(ev: EvalRep, r_max: int = 4, tolerance: float = 1e-12) -> Report:
    """k_{i,r+1} = alpha_i (u^2 h_{1,r} - u^{-2} h_{2,r}) under evaluation."""
    if ev.base.alpha is None:
        raise ValueError("evaluation representation carries no couplings")
    a1, a2 = ev.base.alpha
    usq = ev.image("u+") @ ev.image("u+")
    usqm = ev.image("u-") @ ev.image("u-")
    rpt = Report("k-tower", tolerance)
    for r in range(r_max + 1):
        rhs = usq @ ev.image("h1", r) - usqm @ ev.image("h2", r)
        for i, alpha in ((1, a1), (2, a2)):
            res = max_abs(ev.image(f"k{i}", r + 1) - alpha * rhs)
            rpt.add(f"k{i},{r+1}", res)
    return rpt


def level_bracket_report(ev: EvalRep, rs_max: int = 8,
                         tolerance: float = 1e-11) -> Report:
    """Defining level brackets [e_{i,r}, f_{j,s}] etc. evaluated as matrices."""
    rpt = Report("level-brackets", tolerance)
    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for r in range(rs_max + 1):
        for s in range(rs_max + 1 - r):
            for (a, b), t in targets.items():
                lhs = (ev.image(a, r) @ ev.image(b, s)
                       + ev.image(b, s) @ ev.image(a, r))
                rpt.add(f"[{a},{r};{b},{s}]", max_abs(lhs - ev.image(t, r + s)))
            for a in ("e1", "e2"):
                lhs = (ev.image("h0", r) @ ev.image(a, s)
                       - ev.image(a, s) @ ev.image("h0", r))
                rpt.add(f"[h0,{r};{a},{s}]", max_abs(lhs - ev.image(a, r + s)))
            for a in ("f1", "f2"):
                lhs = (ev.image("h0", r) @ ev.image(a, s)
                       - ev.image(a, s) @ ev.image("h0", r))
                rpt.add(f"[h0,{r};{a},{s}]", max_abs(lhs + ev.image(a, r + s)))
    return rpt


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


def yangian_coproduct(name: str, r: int, rep_a: EvalRep, rep_b: EvalRep,
                      eps: tuple[complex, complex] = (1.0, 1.0),
                      opposite: bool = False) -> SuperMatrix:
    """Matrix of Delta_eps(g_{., r}) on the tensor of two evaluation modules.

    A level-r factor acts as rho^r times its level-0 image, so each term of
    :func:`_tail_terms` is a scalar coeff * rho_a^La * rho_b^Lb times the
    graded tensor product of its two level-0 words.  Terms sharing a word
    pair are summed as scalars first: at most four products per call.
    """
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}")
    if r < 0:
        raise ValueError("negative level")
    if opposite:
        swapped = yangian_coproduct(name, r, rep_b, rep_a, eps)
        return (graded_perm(rep_b.space, rep_a.space) @ swapped
                @ graded_perm(rep_a.space, rep_b.space))
    scalars = {}
    for coeff, left, right in _tail_terms(name, r, *eps):
        words = (tuple(g for g, _ in left), tuple(g for g, _ in right))
        scale = (coeff * rep_a.rho ** sum(lvl for _, lvl in left)
                 * rep_b.rho ** sum(lvl for _, lvl in right))
        scalars[words] = scalars.get(words, 0) + scale
    space = rep_a.space.tensor(rep_b.space)
    total = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for (left, right), scale in scalars.items():
        total += scale * graded_kron(word_matrix(rep_a.base, left),
                                     word_matrix(rep_b.base, right)).m
    return SuperMatrix(space, space, total)


def coproduct_hom_report(rep_a: EvalRep, rep_b: EvalRep, rs_max: int = 4,
                         eps: tuple[complex, complex] = (1.0, 1.0),
                         tolerance: float = 1e-10) -> Report:
    """Homomorphism property of the level coproduct on the defining brackets."""
    rpt = Report("yangian-coproduct-homomorphism", tolerance)
    memo = {}

    def cop(name, r):
        if (name, r) not in memo:
            memo[name, r] = yangian_coproduct(name, r, rep_a, rep_b, eps)
        return memo[name, r]

    targets = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
               ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for r in range(rs_max + 1):
        for s in range(rs_max + 1 - r):
            for (a, b), t in targets.items():
                lhs = cop(a, r) @ cop(b, s) + cop(b, s) @ cop(a, r)
                rpt.add(f"[D({a},{r}),D({b},{s})]", max_abs(lhs - cop(t, r + s)))
            for a, sign in (("e1", 1), ("e2", 1), ("f1", -1), ("f2", -1)):
                lhs = cop("h0", r) @ cop(a, s) - cop(a, s) @ cop("h0", r)
                rpt.add(f"[D(h0,{r}),D({a},{s})]", max_abs(lhs - sign * cop(a, r + s)))
    return rpt


def k_cocommutativity_report(rep_a: EvalRep, rep_b: EvalRep, r_max: int = 4,
                             tolerance: float = 1e-10) -> Report:
    """Delta = Delta_op on the k and h towers (a consequence of the k-h tie)."""
    rpt = Report("yangian-cocommutativity", tolerance)
    for name in ("k1", "k2", "h1", "h2"):
        for r in range(r_max + 1):
            diff = (yangian_coproduct(name, r, rep_a, rep_b)
                    - yangian_coproduct(name, r, rep_a, rep_b, opposite=True))
            rpt.add(f"cocomm:{name},{r}", max_abs(diff))
    return rpt


def _omega_scaled_base(rep: GeneratorImage, eps1: complex, eps2: complex,
                       power: int) -> GeneratorImage:
    """Level-0 images of the rescaling automorphism omega^power (power = +-1)."""
    factors = {"e1": 1, "e2": 1, "h0": 1, "u+": 1, "u-": 1,
               "f1": eps1**power, "f2": eps2**power,
               "h1": eps1**power, "h2": eps2**power,
               "k1": eps2**power, "k2": eps1**power}
    imgs = {g: factors[g] * rep[g] for g in rep.names}
    return GeneratorImage(rep.space, imgs, alpha=None, kind=rep.kind)


def omega_twist_equivalence(rep_a: EvalRep, rep_b: EvalRep,
                            eps1: complex, eps2: complex, r_max: int = 3,
                            tolerance: float = 1e-10) -> Report:
    """Delta(g) = (omega^{-1} x omega^{-1}) Delta_eps(omega(g)) at all levels.

    omega rescales f_i, h_i by eps_i and k_i by eps_j; at representation
    level the right-hand side is Delta_eps evaluated on omega^{-1}-twisted
    modules times the omega-scale of g itself.
    """
    if eps1 == 0 or eps2 == 0:
        raise ValueError("twist parameters must be nonzero")
    scale = {"e1": 1, "e2": 1, "h0": 1, "f1": eps1, "f2": eps2,
             "h1": eps1, "h2": eps2, "k1": eps2, "k2": eps1}
    ta = EvalRep(_omega_scaled_base(rep_a.base, eps1, eps2, -1), rep_a.rho)
    tb = EvalRep(_omega_scaled_base(rep_b.base, eps1, eps2, -1), rep_b.rho)
    rpt = Report("omega-twist", tolerance)
    for name in FAMILIES:
        for r in range(r_max + 1):
            lhs = yangian_coproduct(name, r, rep_a, rep_b)
            rhs = scale[name] * yangian_coproduct(name, r, ta, tb, eps=(eps1, eps2))
            rpt.add(f"omega:{name},{r}", max_abs(lhs - rhs))
    return rpt


def omega_preserves_brackets_report(ev: EvalRep, eps1: complex, eps2: complex,
                                    rs_max: int = 3,
                                    tolerance: float = 1e-11) -> Report:
    """The rescaling twist is an automorphism: twisted images still satisfy
    the level brackets."""
    twisted = EvalRep(_omega_scaled_base(ev.base, eps1, eps2, +1), ev.rho)
    rpt = level_bracket_report(twisted, rs_max, tolerance)
    rpt.suite = "omega-brackets"
    return rpt


# -- truncated currents -----------------------------------------------------------


@dataclass(frozen=True)
class TruncatedCurrent:
    """Matrix-valued polynomial in 1/z: coeffs[r] multiplies z^{-r}."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for c in self.coeffs:
            arr = np.array(c, dtype=np.complex128)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "coeffs", tuple(frozen))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    def __add__(self, other):
        self._compat(other)
        return TruncatedCurrent(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._compat(other)
        return TruncatedCurrent(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedCurrent(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TruncatedCurrent):
            self._compat(other)
            n = self.order
            out = [np.zeros_like(self.coeffs[0]) for _ in range(n + 1)]
            for r, a in enumerate(self.coeffs):
                for s in range(n + 1 - r):
                    out[r + s] = out[r + s] + a @ other.coeffs[s]
            return TruncatedCurrent(tuple(out))
        return TruncatedCurrent(tuple(complex(other) * a for a in self.coeffs))

    __rmul__ = __mul__

    def _compat(self, other):
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("truncated currents have mismatched order or dimension")

    def inverse(self) -> "TruncatedCurrent":
        """Series inverse; requires an invertible constant term."""
        inv0 = np.linalg.inv(self.coeffs[0])
        out = [inv0]
        for r in range(1, self.order + 1):
            acc = np.zeros_like(inv0)
            for s in range(1, r + 1):
                acc = acc + self.coeffs[s] @ out[r - s]
            out.append(-inv0 @ acc)
        return TruncatedCurrent(tuple(out))

    def shift(self, k: int = 1) -> "TruncatedCurrent":
        """Multiply by z^{-k}, dropping overflow coefficients."""
        zero = np.zeros_like(self.coeffs[0])
        shifted = (zero,) * k + self.coeffs[: self.order + 1 - k]
        return TruncatedCurrent(shifted)

    def max_abs(self) -> float:
        return max(float(np.abs(c).max()) for c in self.coeffs)

    @staticmethod
    def one(dim: int, order: int) -> "TruncatedCurrent":
        coeffs = [np.eye(dim, dtype=complex)] + [np.zeros((dim, dim), dtype=complex)
                                                 for _ in range(order)]
        return TruncatedCurrent(tuple(coeffs))


def currents(ev: EvalRep, order: int) -> dict[str, TruncatedCurrent]:
    """Drinfeld currents of the evaluation module, truncated at z^{-order}.

    e/f/k currents are pure tails sum_r rho^r pi(a) z^{-r-1}; the h currents
    (including h0) carry the constant term 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    dim = ev.space.dim
    zero = np.zeros((dim, dim), dtype=complex)
    out = {}
    for name in ("e1", "e2", "f1", "f2", "k1", "k2"):
        mats = [zero] + [ev.rho ** (r - 1) * ev.base[name].m for r in range(1, order + 1)]
        out[name] = TruncatedCurrent(tuple(mats))
    for name in ("h0", "h1", "h2"):
        mats = [np.eye(dim, dtype=complex)] + [ev.rho ** (r - 1) * ev.base[name].m
                                               for r in range(1, order + 1)]
        out[name] = TruncatedCurrent(tuple(mats))
    return out


def current_relations_report(ev: EvalRep, order: int,
                             tolerance: float = 1e-11) -> Report:
    """Defining relations as double-series identities, coefficient by coefficient.

    (w - z)[a(z), b(w)] is expanded over z^{-r} w^{-s}; the mixed coefficients
    must cancel and the boundary rows reproduce the level brackets.  Also
    checks the k-current tie k_i(z) = alpha_i (u^2 h1(z) - u^{-2} h2(z))/z.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    cur = currents(ev, order)
    rpt = Report("current-relations", tolerance)
    n = order

    def cross(a, b, anticommute):
        table = {}
        for r in range(n + 1):
            for s in range(n + 1):
                prod = a.coeffs[r] @ b.coeffs[s]
                swap = b.coeffs[s] @ a.coeffs[r]
                table[(r, s)] = prod + swap if anticommute else prod - swap
        return table

    pairs = {("e1", "f1"): "h1", ("e2", "f2"): "h2",
             ("e1", "f2"): "k1", ("e2", "f1"): "k2"}
    for (a, b), t in pairs.items():
        comm = cross(cur[a], cur[b], anticommute=True)
        tcur = cur[t]
        for r in range(n):
            for s in range(n - r):
                lhs = comm[(r, s + 1)] - comm[(r + 1, s)]
                rhs = np.zeros_like(lhs)
                if s == 0:
                    rhs = rhs + tcur.coeffs[r]
                if r == 0:
                    rhs = rhs - tcur.coeffs[s]
                rpt.add(f"(w-z)[{a}(z),{b}(w)]@({r},{s})", max_abs(lhs - rhs))
    # (w-z)[h0(z), e(w)] = e(z) - e(w) and (w-z)[h0(z), f(w)] = f(w) - f(z)
    for b, sign in (("e1", -1), ("e2", -1), ("f1", +1), ("f2", +1)):
        comm = cross(cur["h0"], cur[b], anticommute=False)
        bcur = cur[b]
        for r in range(n):
            for s in range(n - r):
                lhs = comm[(r, s + 1)] - comm[(r + 1, s)]
                rhs = np.zeros_like(lhs)
                if r == 0:
                    rhs = rhs + sign * bcur.coeffs[s]
                if s == 0:
                    rhs = rhs - sign * bcur.coeffs[r]
                rpt.add(f"(w-z)[h0(z),{b}(w)]@({r},{s})", max_abs(lhs - rhs))
    if ev.base.alpha is not None:
        a1, a2 = ev.base.alpha
        usq = complex((ev.base["u+"] @ ev.base["u+"]).m[0, 0])
        usqm = complex((ev.base["u-"] @ ev.base["u-"]).m[0, 0])
        hcomb = usq * cur["h1"] - usqm * cur["h2"]
        for i, alpha in ((1, a1), (2, a2)):
            diff = cur[f"k{i}"] - alpha * hcomb.shift(1)
            rpt.add(f"k{i}(z) - a{i}(u^2 h1 - u^-2 h2)/z", diff.max_abs())
    return rpt


def antipode_report(ev: EvalRep, order: int, tolerance: float = 1e-10) -> Report:
    """The antipode identities for all currents, truncated at the given order.

    H(z) = h1 h2 - k1 k2 has constant term 1 and is inverted as a series;
    the checks multiply out m(S x id)Delta and m(id x S)Delta for each
    current in a single evaluation module.
    """
    cur = currents(ev, order)
    dim = ev.space.dim
    one = TruncatedCurrent.one(dim, order)
    h1, h2, k1, k2 = cur["h1"], cur["h2"], cur["k1"], cur["k2"]
    e = {1: cur["e1"], 2: cur["e2"]}
    f = {1: cur["f1"], 2: cur["f2"]}
    big_h = h1 * h2 - k1 * k2
    hinv = big_h.inverse()
    rpt = Report("antipode", tolerance)
    rpt.add("H Hinv - 1", (big_h * hinv - one).max_abs())

    h = {1: h1, 2: h2}
    k = {1: k1, 2: k2}
    s_e, s_f, s_h, s_k = {}, {}, {}, {}
    for i, j in ((1, 2), (2, 1)):
        s_e[i] = -1 * ((e[i] * h[j] - e[j] * k[i]) * hinv)
        s_f[i] = -1 * ((f[i] * h[j] - f[j] * k[j]) * hinv)
        s_h[i] = h[j] * hinv
        s_k[i] = -1 * (k[i] * hinv)
    for i, j in ((1, 2), (2, 1)):
        rpt.add(f"h{i}: (h{j} h{i} - k{i} k{j}) Hinv - 1",
                ((h[j] * h[i] - k[i] * k[j]) * hinv - one).max_abs())
        rpt.add(f"k{i}: commutator telescopes",
                max(((k[i] * h[j] - h[j] * k[i]) * hinv).max_abs(),
                    ((k[i] * h[i] - h[i] * k[i]) * hinv).max_abs()))
        rpt.add(f"e{i}: left antipode",
                ((-1 * (e[i] * h[j] - e[j] * k[i]) + h[j] * e[i] - k[i] * e[j]) * hinv).max_abs())
        rpt.add(f"e{i}: right antipode",
                ((e[i] * big_h - h[i] * (e[i] * h[j] - e[j] * k[i])
                  - k[i] * (e[j] * h[i] - e[i] * k[j])) * hinv).max_abs())
        rpt.add(f"f{i}: left antipode",
                ((f[i] * big_h - (f[i] * h[j] - f[j] * k[j]) * h[i]
                  - (f[j] * h[i] - f[i] * k[i]) * k[j]) * hinv).max_abs())
        rpt.add(f"f{i}: right antipode",
                ((-1 * (f[i] * h[j] - f[j] * k[j]) + f[i] * h[j] - f[j] * k[j]) * hinv).max_abs())
    # h0: S(h0) = 1 - h0 + S(f1) e1 + S(f2) e2; the nontrivial side needs
    # S(f1) e1 + S(f2) e2 = f1 S(e1) + f2 S(e2)
    lhs = s_f[1] * e[1] + s_f[2] * e[2]
    rhs = f[1] * s_e[1] + f[2] * s_e[2]
    rpt.add("h0: S(f)e = f S(e)", (lhs - rhs).max_abs())
    h0 = cur["h0"]
    s_h0 = one - h0 + lhs
    rpt.add("h0: S(h0) + h0 - S(f)e - 1", (s_h0 + h0 - lhs - one).max_abs())
    rpt.add("h0: S(h0) + h0 - f S(e) - 1", (s_h0 + h0 - rhs - one).max_abs())
    return rpt


def yangian_intertwine(labels_a: RepLabels, labels_b: RepLabels, r_max: int = 4,
                       tolerance: float = 1e-9) -> Report:
    """The closed-form R-matrix intertwines the level coproducts at every level.

    The R-matrix depends only on (gamma, nu), so the joint coupling rescale
    that bounds |rho| leaves it untouched.
    """
    from .rmatrix import r_closed
    rep_a, rep_b = scaled_eval_pair(labels_a, labels_b)
    rmat = r_closed(labels_a, labels_b).m
    rpt = Report("yangian-intertwining", tolerance)
    for name in FAMILIES:
        for r in range(r_max + 1):
            d = yangian_coproduct(name, r, rep_a, rep_b).m
            dop = yangian_coproduct(name, r, rep_a, rep_b, opposite=True).m
            rpt.add(f"intertwine:{name},{r}", max_abs(dop @ rmat - rmat @ d))
    return rpt
