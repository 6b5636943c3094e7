"""Physical parametrizations: Zhukovski variables and the label dictionaries.

The worldsheet data (p, M, h) determine x^{+-} through

    x+/x- = e^{ip},    x+ + 1/x+ - x- - 1/x- = i M / h,

and the left/right-moving coefficient packs (a, b, c, d) give the atypical
labels with couplings alpha1 = -alpha2 = -h.  The deformed dictionary runs
through (x+, x-, xi, delta, q) with the coupling tied to xi by
h^2 = xi^2/(xi^2 - 1).

Square-root branches are explicit caller flags; the defaults take principal
roots, with sqrt(-h) defined as i sqrt(h) so the product conventions of the
coefficient packs hold for every complex h.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import RepLabels
from .qalgebra import QRepLabels, reject_root_of_unity

_I = 1j


class BranchTieError(ValueError):
    """Both quadratic roots are equivalent under the requested selection rule."""


class CoefficientPack(NamedTuple):
    """Coefficients a, b, c, d of a module, undeformed or deformed."""

    a: complex
    b: complex
    c: complex
    d: complex


def _principal_root(z: complex, branch: int, order: int = 2) -> complex:
    """branch-th choice of an order-th root, counted from the principal one."""
    root = np.exp(np.log(complex(z)) / order)
    return root * np.exp(2j * np.pi * (branch % order) / order)


@dataclass(frozen=True)
class ZhukovskiPoint:
    xplus: complex
    xminus: complex
    p: complex
    m: complex
    h: complex

    def __post_init__(self):
        if self.xplus == 0 or self.xminus == 0 or self.h == 0:
            raise ValueError("x+- and h must be nonzero")

    def residuals(self) -> tuple[float, float]:
        r1 = abs(self.xplus / self.xminus - np.exp(_I * self.p))
        r2 = abs(self.xplus + 1 / self.xplus - self.xminus - 1 / self.xminus
                 - _I * self.m / self.h)
        return (float(r1), float(r2))


def zhukovski_solve(p: complex, m: complex, h: complex,
                    branch: str = "outside") -> ZhukovskiPoint:
    """Solve the momentum and shell constraints for x^{+-}.

    Substituting x- = x+ e^{-ip} gives a quadratic for x+; ``branch``
    selects the root with |x+| >= 1 (``outside``, default) or <= 1
    (``inside``).  Modulus ties fall back to the larger real part; an exact
    tie raises :class:`BranchTieError`.
    """
    if branch not in ("outside", "inside"):
        raise ValueError(f"branch must be 'outside' or 'inside', not {branch!r}")
    if h == 0:
        raise ValueError("h must be nonzero")
    eip = np.exp(_I * p)
    c2 = 1 - 1 / eip
    c0 = 1 - eip
    c1 = -_I * m / h
    if abs(c2) < 1e-14:
        raise ValueError("degenerate quadratic: e^{ip} = 1")
    disc = np.sqrt(c1 * c1 - 4 * c2 * c0)
    if abs(-c1 + disc) < abs(-c1 - disc):
        disc = -disc
    r1 = (-c1 + disc) / (2 * c2)
    r2 = c0 / (c2 * r1)
    roots = sorted((r1, r2), key=lambda z: -abs(z))
    if abs(abs(roots[0]) - abs(roots[1])) < 1e-12:
        if abs(roots[0].real - roots[1].real) < 1e-12:
            raise BranchTieError("cannot select a root: equal modulus and real part")
        roots = sorted(roots, key=lambda z: -z.real)
    xp = roots[0] if branch == "outside" else roots[1]
    return ZhukovskiPoint(xp, xp / eip, p, m, h)


def _eta(zp: ZhukovskiPoint, branch: int) -> complex:
    gap = zp.xminus - zp.xplus
    if abs(gap) < 1e-14 * max(abs(zp.xplus), 1.0):
        raise ValueError("x+ = x- is degenerate: eta vanishes")
    return _principal_root(_I * gap, branch)


def _mover_labels(zp: ZhukovskiPoint, gamma_sq, right: bool, eta_branch: int,
                  nu_branch: int, gamma_branch: int, tolerance: float
                  ) -> tuple[RepLabels, CoefficientPack]:
    """Labels and coefficient pack of either mover.

    The pack (a, b, c, d) has one form for both movers; they differ in
    gamma^2 = ``gamma_sq(nu)`` and in the lambda pairing: lambda1 = ab,
    lambda2 = cd for the left mover, swapped for the right (``right``).
    The pack's product identities are verified before returning.
    """
    h = zp.h
    sh = _principal_root(h, 0)
    smh = _I * sh  # sqrt(-h) := i sqrt(h), so sh*smh = i h for every h
    nu = _principal_root(zp.xplus / zp.xminus, nu_branch, order=4)
    eta = _eta(zp, eta_branch)
    a = sh * eta * nu
    b = sh * eta / nu
    c = -smh * eta * nu / zp.xplus
    d = smh * eta / (zp.xminus * nu)
    gamma = _principal_root(gamma_sq(nu), gamma_branch)
    labels = RepLabels(gamma, nu, -h, h)
    # (pack product, its name, lambda / (i h), its name) for lambda1 and lambda2
    pairs = [(a * b, "a b", zp.xminus - zp.xplus, "x- - x+"),
             (c * d, "c d", 1 / zp.xplus - 1 / zp.xminus, "1/x+ - 1/x-")]
    if right:
        pairs.reverse()
    (p1, p1_name, g1, g1_name), (p2, p2_name, g2, g2_name) = pairs
    checks = (
        ("a c - mu1", a * c - labels.mu1),
        ("b d - mu2", b * d - labels.mu2),
        (f"{p1_name} - lambda1", p1 - labels.lambda1),
        (f"{p2_name} - lambda2", p2 - labels.lambda2),
        (f"lambda1 - i h ({g1_name})", labels.lambda1 - _I * h * g1),
        (f"lambda2 - i h ({g2_name})", labels.lambda2 - _I * h * g2),
    )
    scale = max(abs(a * c), abs(a * b), 1.0)
    for name, resid in checks:
        if abs(resid) > tolerance * scale:
            raise ValueError(f"coefficient pack inconsistent: {name} = {abs(resid):.3e}")
    return labels, CoefficientPack(a, b, c, d)


def left_labels(zp: ZhukovskiPoint, eta_branch: int = 0, nu_branch: int = 0,
                gamma_branch: int = 0, tolerance: float = 1e-10
                ) -> tuple[RepLabels, CoefficientPack]:
    """Left-moving labels and the coefficient pack (a, b, c, d).

    nu^4 = x+/x-, a = sqrt(h) eta nu, b = sqrt(h) eta / nu,
    c = -sqrt(-h) eta nu / x+, d = sqrt(-h) eta / (x- nu), and
    gamma^2 = -i nu^2 x-.  The product identities ac = mu1, bd = mu2,
    ab = lambda1, cd = lambda2 are verified before returning.
    """
    return _mover_labels(zp, lambda nu: -_I * nu**2 * zp.xminus, False,
                         eta_branch, nu_branch, gamma_branch, tolerance)


def right_labels(zp: ZhukovskiPoint, eta_branch: int = 0, nu_branch: int = 0,
                 gamma_branch: int = 0, tolerance: float = 1e-10
                 ) -> tuple[RepLabels, CoefficientPack]:
    """Right-moving (barred) labels from the same coefficient formulas.

    The pack is identical in form; the labels differ:
    gamma^2 = -i nu^2 / x+, lambda1 = cd, lambda2 = ab.  Feeding them to the
    atypical constructor and conjugating the grading reproduces the
    right-moving action pattern (e_1 maps psi to c phi, etc.).
    """
    return _mover_labels(zp, lambda nu: -_I * nu**2 / zp.xplus, True,
                         eta_branch, nu_branch, gamma_branch, tolerance)


# -- deformed dictionary -----------------------------------------------------------


def zeta(x: complex, xi: complex) -> complex:
    return -(x + 1 / x + xi + 1 / xi) / (xi - 1 / xi)


@dataclass(frozen=True)
class QZhukovskiPoint:
    xplus: complex
    xminus: complex
    xi: complex
    delta: complex
    q: complex
    h: complex

    def residuals(self) -> tuple[float, float]:
        q2d = np.exp(self.delta * np.log(self.q))
        r1 = abs(zeta(self.xplus, self.xi) / q2d**2 - zeta(self.xminus, self.xi))
        r2 = abs(self.h**2 - self.xi**2 / (self.xi**2 - 1))
        return (float(r1), float(r2))


def q_zhukovski_point(xplus: complex, xi: complex, delta: complex, q: complex,
                      minus_branch: str = "near-inverse", h_branch: int = 0,
                      xminus_hint: complex | None = None) -> QZhukovskiPoint:
    """Construct a deformed shell point, solving for x^-.

    The shell condition q^{-delta} zeta(x+) = q^{delta} zeta(x-) fixes
    x- + 1/x- exactly, so x- follows from a quadratic; ``minus_branch``
    picks the root nearer 1/x+ (default) or nearer x+, and an explicit
    ``xminus_hint`` overrides both.  Two Newton steps on the shell function
    polish the root.  x+ = 0 and xi^2 in {0, 1}, where zeta or the coupling
    h^2 = xi^2/(xi^2 - 1) is singular, raise ValueError, and so does a root
    of unity q.
    """
    if minus_branch not in ("near-inverse", "near-same"):
        raise ValueError("minus_branch must be 'near-inverse' or 'near-same', "
                         f"not {minus_branch!r}")
    if xplus == 0 or xi * xi in (0, 1):
        raise ValueError("x+ must be nonzero and xi^2 neither 0 nor 1")
    reject_root_of_unity(q)
    q = complex(q)
    qd = np.exp(complex(delta) * np.log(q))
    target = zeta(xplus, xi) / qd**2
    w = -target * (xi - 1 / xi) - xi - 1 / xi  # x- + 1/x- = w
    disc = np.sqrt(w * w - 4)
    r1, r2 = (w + disc) / 2, (w - disc) / 2
    if xminus_hint is not None:
        ref = complex(xminus_hint)
    else:
        ref = 1 / xplus if minus_branch == "near-inverse" else xplus
    xm = r1 if abs(r1 - ref) <= abs(r2 - ref) else r2
    for _ in range(2):
        fval = zeta(xm, xi) - target
        fp = -(1 - 1 / xm**2) / (xi - 1 / xi)
        if abs(fp) < 1e-14:
            break
        xm = xm - fval / fp
    h = _principal_root(xi**2 / (xi**2 - 1), h_branch)
    return QZhukovskiPoint(xplus, xm, xi, delta, q, h)


def q_labels_from_x(qzp: QZhukovskiPoint, nu_branch: int = 0, sigma_branch: int = 0,
                    eta_branch: int = 0, gamma_branch: int = 0,
                    tolerance: float = 1e-10) -> tuple[QRepLabels, CoefficientPack]:
    """Deformed labels from the x^{+-} dictionary, with all product checks.

    Both printed expressions for nu^4 and sigma^4 are evaluated and must
    agree; the four products of the coefficient pack reproduce the weight
    brackets, and the deformed shortening identity follows.
    """
    xp, xm, xi, q, h = qzp.xplus, qzp.xminus, qzp.xi, qzp.q, qzp.h
    qd = np.exp(complex(qzp.delta) * np.log(q))
    qd2 = np.sqrt(qd)  # q^{delta/2}, principal: delta is a plain number
    nu4_a = qd * (xp / xm) * (xi * xm + 1) / (xi * xp + 1)
    nu4_b = (xp + xi) / ((xm + xi) * qd)
    if abs(nu4_a - nu4_b) > tolerance * max(abs(nu4_a), 1.0):
        raise ValueError("the two nu^4 expressions disagree: off-shell input")
    sigma4_a = qd * (xp / xm) * (xm + xi) / (xp + xi)
    sigma4_b = (xi * xp + 1) / ((xi * xm + 1) * qd)
    if abs(sigma4_a - sigma4_b) > tolerance * max(abs(sigma4_a), 1.0):
        raise ValueError("the two sigma^4 expressions disagree: off-shell input")
    nu = _principal_root(nu4_a, nu_branch, order=4)
    sigma = _principal_root(sigma4_a, sigma_branch, order=4)
    eta = _principal_root(_I * (xm - xp), eta_branch)
    sh = _principal_root(h, 0)
    qq = q - 1 / q
    a = sh * eta * nu * sigma
    b = _I * sh * qd2 * xi * eta * sigma / (h * nu * qq * (xi * xp + 1))
    c = _I * sh * eta * nu * sigma / (qq * xp)
    d = sh * xi * eta * sigma / (qd2 * h * nu * (xm + xi))
    br = lambda x: (x - 1 / x) / qq
    checks = (
        ("a b - [lambda1]", a * b - br(qd2 * sigma**2)),
        ("c d - [lambda2]", c * d - br(sigma**2 / qd2)),
        ("a c - h [mu1]", a * c - h * br(nu**2 * sigma**2)),
        ("b d - h [mu2]", b * d - h * br(sigma**2 / nu**2)),
    )
    scale = max(abs(a * b), abs(a * c), 1.0)
    for name, resid in checks:
        if abs(resid) > tolerance * scale:
            raise ValueError(f"deformed pack inconsistent: {name} = {abs(resid):.3e}")
    short = (h**2 * (nu**2 * sigma**2 - 1 / (nu**2 * sigma**2))
             * (sigma**2 / nu**2 - nu**2 / sigma**2)
             - (sigma**2 - sigma**-2 / qd) * (sigma**2 - qd * sigma**-2))
    if abs(short) > tolerance * max(abs(h) ** 2 * abs(sigma) ** 4, 1.0):
        raise ValueError("deformed shortening identity violated")
    gamma = _principal_root(a / d, gamma_branch)
    qd4 = np.exp(complex(qzp.delta) * np.log(q) / 4)  # q^{delta/4}
    labels = QRepLabels(gamma, nu, q, sigma * qd4, sigma / qd4, h, h)
    return labels, CoefficientPack(a, b, c, d)


def dispersion(theta: float, lam: float, h: float) -> tuple[float, complex]:
    """Magnon energy and angular momentum from the trigonometric angles.

    H = -4 h sin(2 lam) sin(2 theta),  M = 4 i h cos(2 lam) sin(2 theta).
    cos(2 lam) is evaluated as sin(pi/2 - 2 lam), which vanishes exactly at
    lam = pi/4 in floating point, so M(pi/4) == 0 identically.
    """
    s2t = np.sin(2.0 * theta)
    energy = -4.0 * h * np.sin(2.0 * lam) * s2t
    cos2l = np.sin(np.pi / 2 - 2.0 * lam)
    momentum = 4j * h * cos2l * s2t
    return float(energy), complex(momentum)
