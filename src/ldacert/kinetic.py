"""Piecewise-quadratic momentum envelopes and kinetic-energy bound evaluators.

The envelope eta is a nonnegative profile with unit mass built from two
parabolic lobes of width eps; the shifted variant moves the support left by
eps*b so the inverse moment can be pinned to 1.  The moment integrals
(inverse, 2/d power, Fisher-type) feed the semiclassical upper bound on the
lowest kinetic energy; the lower bounds are the standard Lieb-Thirring /
Hoffmann-Ostenhof inequalities plus the gradient-corrected variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import KAPPA_1, KAPPA_2, _bisect, _tf_coefficient

_GL6_X, _GL6_W = np.polynomial.legendre.leggauss(6)  # exact to degree 11


class SolverError(RuntimeError):
    """Raised when a bracketed root-finder cannot find a sign change."""


@dataclass(frozen=True)
class Envelope:
    """Two parabolic lobes: c*(t-a)^2 on [a, a+eps], c*(a+2eps-t)^2 above.

    c = 3/(2 eps^3) makes the total mass exactly 1.  basic has a = 1,
    shifted has a = 1 - eps*b.
    """

    eps: float
    b: float = 0.0

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.support[0] <= 0:
            raise ValueError(
                f"support [{self.support[0]:.6g}, ...] crosses t = 0")

    @property
    def a(self):
        return 1.0 - self.eps * self.b

    @property
    def support(self):
        return (self.a, self.a + 2.0 * self.eps)

    @property
    def c(self):
        return 1.5 / self.eps**3

    def value(self, t):
        t = np.asarray(t, dtype=float)
        a, eps, c = self.a, self.eps, self.c
        lo = c * (t - a) ** 2
        hi = c * (a + 2.0 * eps - t) ** 2
        out = np.where(t <= a + eps, lo, hi)
        out = np.where((t < a) | (t > a + 2.0 * eps), 0.0, out)
        return out if out.ndim else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        a, eps, c = self.a, self.eps, self.c
        lo = 2.0 * c * (t - a)
        hi = -2.0 * c * (a + 2.0 * eps - t)
        out = np.where(t <= a + eps, lo, hi)
        out = np.where((t < a) | (t > a + 2.0 * eps), 0.0, out)
        return out if out.ndim else float(out)


def eta_basic(eps):
    return Envelope(float(eps))


def eta_shifted(eps, b):
    return Envelope(float(eps), float(b))


@dataclass(frozen=True)
class Moments:
    m0: float
    minv: float
    m2d: float
    fisher: float
    fisher0: float


def _l1pmx2(x):
    """log1p(x) - x + x^2/2, stable for small x (series below 0.25)."""
    if x > 0.25:
        return math.log1p(x) - x + 0.5 * x * x
    term, k, total = x**3, 3, 0.0
    while k < 200:
        add = term / k if k % 2 else -term / k
        total += add
        if abs(add) < 1e-18 * abs(total):
            break
        term *= x
        k += 1
    return total


def _minv_closed(eps, a):
    # int eta/t.  The naive antiderivative cancels two orders (O(eps) terms,
    # O(eps^3) result); regrouping around L(x) = log1p(x) - x + x^2/2 leaves
    # same-sign O(eps^3) terms and a tiny O(eps^4) correction.
    c = 1.5 / eps**3
    r = a + 2.0 * eps
    return c * (
        a**2 * _l1pmx2(eps / a)
        + r**2 * _l1pmx2(eps / (a + eps))
        - 0.5 * eps**4 / (a + eps) ** 2
    )


def _minv_excess(b, eps):
    return _minv_closed(eps, 1.0 - eps * b) - 1.0


def _m2d_exact(eps, a):
    # int eta t^{2/3}: t = s^3 makes each lobe 3c int (s^3 - a)^2 s^4 ds (or
    # its mirror), degree 10.  No difference cancels: s - r0 is the node offset,
    # s^3 - r0^3 = (s - r0)(s^2 + s r0 + r0^2), so r1 - r0 = eps/(r1^2 + r1 r0 + r0^2).
    r0, r1, r2 = np.cbrt([a, a + eps, a + 2.0 * eps])
    h1, h2 = eps / (r1 * r1 + r1 * r0 + r0 * r0), eps / (r2 * r2 + r2 * r1 + r1 * r1)
    d1, d2 = 0.5 * h1 * (1.0 + _GL6_X), 0.5 * h2 * (1.0 - _GL6_X)  # s - r0, r2 - s
    s1, s2 = r0 + d1, r2 - d2
    f1 = (d1 * (s1 * s1 + s1 * r0 + r0 * r0)) ** 2 * s1**4
    f2 = (d2 * (r2 * r2 + r2 * s2 + s2 * s2)) ** 2 * s2**4
    return float(2.25 / eps**3 * (h1 * (f1 @ _GL6_W) + h2 * (f2 @ _GL6_W)))


def moments(env):
    """Moment integrals, each closed form or exact (m2d, see _m2d_exact).

    m2d = int t^{2/3} eta, the 2/d power moment in d = 3.
    fisher = int t^2 eta'^2/eta, fisher0 = int eta'^2/eta.  On the parabolic
    lobes eta'^2/eta = 4c identically, so fisher0 = 8c*eps = 12/eps^2 and
    fisher = 4c ((a + 2 eps)^3 - a^3)/3 = 12 (a^2 + 2 a eps + 4 eps^2/3)/eps^2.
    """
    a, eps = env.a, env.eps
    return Moments(
        m0=1.0,
        minv=_minv_closed(eps, a),
        m2d=_m2d_exact(eps, a),
        fisher=12.0 * (a * a + 2.0 * a * eps + 4.0 * eps**2 / 3.0) / eps**2,
        fisher0=12.0 / eps**2,
    )


def solve_b(eps):
    """The shift b making the inverse moment exactly 1.

    Bisected on b in [0, 1.5] to float resolution.  For small eps,

        b = 1 - eps/10 - 3 eps^3/350 - 37 eps^5/21000 + O(eps^7).

    Only odd powers appear: about its centre mu = 1 + eps (1 - b) the
    envelope is a symmetric weight, so mu is a series in eps^2.
    """
    if not (0 < eps <= 0.5):
        raise ValueError(f"need 0 < eps <= 0.5, got {eps}")
    f_lo, f_hi = _minv_excess(0.0, eps), _minv_excess(1.5, eps)
    if f_lo * f_hi > 0:
        raise SolverError(
            f"no sign change on b in [0, 1.5] at eps={eps}: "
            f"({f_lo:.3e}, {f_hi:.3e})")
    b = _bisect(_minv_excess, eps, 0.0, 1.5, 4.4e-16)
    assert abs(_minv_excess(b, eps)) <= 1e-12
    return b


def remark_b(eps):
    """The slightly conservative shift used by the 3d-small-eps upper bound."""
    return 1.0 - eps / 10.0 - 4.0 * eps**3 / 350.0


# ---------------------------------------------------------------------------
# kinetic-energy bound evaluators, in d = 3: F.l53 is the int rho^{1+2/d}
# integral


def t_upper(F, eps, q=1, variant="general"):
    """Semiclassical upper bound on the lowest kinetic energy.

    general:       q^{-2/3} c_TF (1 + KAPPA_1*eps) * l53
                   + KAPPA_2 (1+sqrt(eps))^2/eps * kin
    3d-small-eps:  q^{-2/3} c_TF (1 + eps^2/15) * l53 + (19/eps^2) * kin,
                   valid for eps <= 1 (shifted-envelope route).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if variant == "general":
        return (_tf_coefficient(q) * (1.0 + KAPPA_1 * eps) * F.l53
                + KAPPA_2 * (1.0 + math.sqrt(eps)) ** 2 / eps * F.kin)
    if variant == "3d-small-eps":
        if eps > 1.0:
            raise ValueError(f"variant 3d-small-eps requires eps <= 1, got {eps}")
        return (_tf_coefficient(q) * (1.0 + eps**2 / 15.0) * F.l53
                + 19.0 / eps**2 * F.kin)
    raise ValueError(f"unknown variant {variant!r}")


def t_lower_lt(F, q=1):
    """Lieb-Thirring kinetic lower bound with the conjectured constant c_TF."""
    return _tf_coefficient(q) * F.l53


def t_lower_nam(F, eps, q=1):
    """Gradient-corrected semiclassical lower bound (gradient constant 1)."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return (_tf_coefficient(q) * (1.0 - eps) * F.l53
            - 1.0 / eps ** (3.0 + 4.0 / 3) * F.kin)


def t_lower_ho(F):
    """Hoffmann-Ostenhof: the square-root gradient itself bounds T below."""
    return F.kin


def kinetic_band(F, q=1):
    """Two-sided bracket on the lowest kinetic energy.

    With a = q^{-2/3} c_TF l53 (the Lieb-Thirring value LT):

    - lower = max(LT, HO).  Nam's bound a (1 - eps) - kin eps^{-13/3} lies
      below LT for every eps in (0, 1), so it never wins.
    - upper = the 3d-small-eps variant a (1 + eps^2/15) + 19 kin/eps^2 at
      its minimizer on (0, 1], eps = min((285 kin/a)^{1/4}, 1).  On (0, 1]
      the general variant is at least a + 2 sqrt(48 a kin) and at least
      a + 192 kin, so its minimum is never the lower one:
        interior optimum: a + 2 sqrt(19 a kin/15) < a + 2 sqrt(48 a kin);
        clamped at eps = 1: 16a/15 + 19 kin < a + 192 kin, as kin >= a/285.
      With kin = 0 the upper value is the infimum a, approached as eps -> 0.

    Returns (lower, upper, eps_upper); neither lower bound has an eps.
    """
    if F.mass == 0.0 and F.kin == 0.0:
        return 0.0, 0.0, None
    a = t_lower_lt(F, q)
    lower = max(a, t_lower_ho(F))
    if F.kin == 0.0:
        return lower, a, 0.0
    eps = 1.0 if 285.0 * F.kin >= a else (285.0 * F.kin / a) ** 0.25
    return lower, t_upper(F, eps, q, "3d-small-eps"), eps
