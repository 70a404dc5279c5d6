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
from scipy import integrate as _sciint
from scipy import optimize as _sciopt

from .bounds import KAPPA_1, KAPPA_2, _spin, _tf_coefficient, c_tf


class SolverError(RuntimeError):
    """Raised when a bracketed root-finder cannot find a sign change."""


@dataclass(frozen=True)
class Envelope:
    """Two parabolic lobes: c*(t-a)^2 on [a, a+eps], c*(a+2eps-t)^2 above.

    c = 3/(2 eps^3) makes the total mass exactly 1.  basic has a = 1,
    shifted has a = 1 - eps*b.
    """

    kind: str
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
    return Envelope("basic", float(eps))


def eta_shifted(eps, b):
    return Envelope("shifted", float(eps), float(b))


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


def moments(env, d=3):
    """Moment integrals: m0, minv, fisher0 closed form; m2d, fisher by quad.

    fisher = int t^2 eta'^2/eta, fisher0 = int eta'^2/eta; on the parabolic
    lobes eta'^2/eta = 4c identically, so fisher0 = 8c*eps = 12/eps^2.
    """
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    a, eps = env.a, env.eps
    mid, top = a + eps, a + 2.0 * eps
    m2d = 0.0
    fisher = 0.0
    for lo, hi in ((a, mid), (mid, top)):
        v, _ = _sciint.quad(lambda t: env.value(t) * t ** (2.0 / d), lo, hi,
                            epsabs=1e-13, epsrel=1e-11)
        m2d += v
        v, _ = _sciint.quad(
            lambda t: 4.0 * env.c * t**2, lo, hi, epsabs=1e-13, epsrel=1e-11)
        fisher += v
    return Moments(
        m0=1.0,
        minv=_minv_closed(eps, a),
        m2d=m2d,
        fisher=fisher,
        fisher0=12.0 / eps**2,
    )


def solve_b(eps, d=3):
    """The shift b making the inverse moment exactly 1 (d plays no role).

    Root-found on b in [0, 1.5] to |minv - 1| <= 1e-12.  For small eps,

        b = 1 - eps/10 - 3 eps^3/350 - 37 eps^5/21000 + O(eps^7).

    Only odd powers appear: about its centre mu = 1 + eps (1 - b) the
    envelope is a symmetric weight, so mu is a series in eps^2.
    """
    if not (0 < eps <= 0.5):
        raise ValueError(f"need 0 < eps <= 0.5, got {eps}")

    def constraint(b):
        return _minv_closed(eps, 1.0 - eps * b) - 1.0

    f_lo, f_hi = constraint(0.0), constraint(1.5)
    if f_lo * f_hi > 0:
        raise SolverError(
            f"no sign change on b in [0, 1.5] at eps={eps}: "
            f"({f_lo:.3e}, {f_hi:.3e})")
    b = _sciopt.brentq(constraint, 0.0, 1.5, xtol=1e-15, rtol=8.9e-16)
    assert abs(constraint(b)) <= 1e-12
    return float(b)


def remark_b(eps):
    """The slightly conservative shift used by the 3d-small-eps upper bound."""
    return 1.0 - eps / 10.0 - 4.0 * eps**3 / 350.0


# ---------------------------------------------------------------------------
# kinetic-energy bound evaluators, in d = 3: F.l53 is the int rho^{1+2/d}
# integral


def t_upper(F, eps, q=1, variant="general", kappa1=KAPPA_1, kappa2=KAPPA_2):
    """Semiclassical upper bound on the lowest kinetic energy.

    general:       q^{-2/3} c_TF (1 + kappa1*eps) * l53
                   + kappa2 (1+sqrt(eps))^2/eps * kin
    3d-small-eps:  q^{-2/3} c_TF (1 + eps^2/15) * l53 + (19/eps^2) * kin,
                   valid for eps <= 1 (shifted-envelope route).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if variant == "general":
        return (_spin(q) ** (-2.0 / 3) * c_tf(3) * (1.0 + kappa1 * eps) * F.l53
                + kappa2 * (1.0 + math.sqrt(eps)) ** 2 / eps * F.kin)
    if variant == "3d-small-eps":
        if eps > 1.0:
            raise ValueError(f"variant 3d-small-eps requires eps <= 1, got {eps}")
        return (_tf_coefficient(q) * (1.0 + eps**2 / 15.0) * F.l53
                + 19.0 / eps**2 * F.kin)
    raise ValueError(f"unknown variant {variant!r}")


def t_lower_lt(F, q=1, c=None):
    """Lieb-Thirring kinetic lower bound; c defaults to the conjectured c_TF."""
    if c is None:
        c = c_tf(3)
    return _spin(q) ** (-2.0 / 3) * c * F.l53


def t_lower_nam(F, eps, q=1, kappa=1.0):
    """Gradient-corrected semiclassical lower bound (kappa is a free knob)."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return (_spin(q) ** (-2.0 / 3) * c_tf(3) * (1.0 - eps) * F.l53
            - kappa / eps ** (3.0 + 4.0 / 3) * F.kin)


def t_lower_ho(F):
    """Hoffmann-Ostenhof: the square-root gradient itself bounds T below."""
    return F.kin


def kinetic_band(F, q=1, kappa=1.0, n_grid=200):
    """Two-sided bracket on the lowest kinetic energy.

    eps is optimized on a log grid in [1e-4, 1], independently for the
    gradient-corrected lower bound and for each upper-bound variant; the
    Lieb-Thirring and Hoffmann-Ostenhof floors are max'd in.
    Returns (lower, upper, eps_lower, eps_upper).
    """
    if F.mass == 0.0 and F.kin == 0.0:
        return 0.0, 0.0, None, None
    grid = np.logspace(-4.0, 0.0, n_grid)
    nam = np.array([t_lower_nam(F, e, q, kappa) for e in grid[grid < 1.0]])
    lower_candidates = {
        "lt": (t_lower_lt(F, q), None),
        "ho": (t_lower_ho(F), None),
    }
    if nam.size:
        i = int(np.argmax(nam))
        lower_candidates["nam"] = (float(nam[i]), float(grid[i]))
    lower, eps_lower = max(lower_candidates.values(), key=lambda t: t[0])

    uppers = []
    for e in grid:
        u = t_upper(F, e, q, "general")
        if e <= 1.0:
            u = min(u, t_upper(F, e, q, "3d-small-eps"))
        uppers.append(u)
    i = int(np.argmin(uppers))
    upper, eps_upper = float(uppers[i]), float(grid[i])
    return lower, upper, eps_lower, eps_upper
