"""Uniform-gas energy models, sharp constants, and total-energy envelopes.

Everything here is d=3 unless a d argument says otherwise.  Energies follow
the convention that the local model e(rho) already carries the spin factor
q through its coefficients, so callers pass q once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sphere_area(d):
    """Surface measure of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def c_tf(d=3):
    """Thomas-Fermi constant: (4 pi^2 d/(d+2)) * (d/|S^{d-1}|)^{2/d}."""
    return 4.0 * math.pi**2 * d / (d + 2.0) * (d / sphere_area(d)) ** (2.0 / d)


def c_tf3_product_form():
    """d=3 value written as an explicit radical, for cross-checking c_tf."""
    return 3.0 ** (5.0 / 3.0) * 4.0 ** (1.0 / 3.0) * math.pi ** (4.0 / 3.0) / 5.0


C_LO = 1.64
C_LO_GRAD = 0.6 * (4.5 * math.pi) ** (1.0 / 3.0)
C_LO_GRAD_COEFF = 0.001206
KAPPA_1 = 1.0
KAPPA_2 = 48.0


def b_dirac(q=1):
    """Exchange coefficient of the uniform gas: -(3/4)(3/pi)^{1/3} q^{-1/3}."""
    return -0.75 * (3.0 / math.pi) ** (1.0 / 3.0) * _spin(q) ** (-1.0 / 3.0)


def constants_table(q=1):
    """All numeric constants a certification run can depend on."""
    return {
        "c_tf": c_tf(3),
        "c_lo": C_LO,
        "c_lo_grad": C_LO_GRAD,
        "c_lo_grad_coeff": C_LO_GRAD_COEFF,
        "kappa_1": KAPPA_1,
        "kappa_2": KAPPA_2,
        "b_dirac": b_dirac(q),
    }


@dataclass(frozen=True)
class UegModel:
    """Two-power local energy density e(rho) = A rho^{5/3} + B rho^{4/3}.

    A carries the kinetic (Thomas-Fermi) channel, B the exchange channel;
    B is also the low-density limit of e(rho)/rho^{4/3}.
    """

    name: str
    A: float
    B: float

    def e(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = self.A * rho ** (5.0 / 3.0) + self.B * rho ** (4.0 / 3.0)
        return out if out.ndim else float(out)

    @property
    def c_ueg(self):
        return self.B


def _spin(q):
    """The spin degeneracy q, which must be at least 1."""
    if q < 1:
        raise ValueError(f"q = {q:g} must be at least 1")
    return q


def _tf_coefficient(q):
    return _spin(q) ** (-2.0 / 3.0) * c_tf(3)


def tf_dirac_model(q=1):
    return UegModel("tf-dirac", _tf_coefficient(q), b_dirac(q))


def tf_only_model(q=1):
    return UegModel("tf-only", _tf_coefficient(q), 0.0)


def custom_model(A, B):
    return UegModel("custom", float(A), float(B))


def lda_energy(F, model):
    """int e(rho) for a two-power model, from the density's FunctionalSet."""
    return model.A * F.l53 + model.B * F.l43


def e_envelope(rho0, q=1):
    """Pointwise bracket on any admissible e(rho0):

    -c_LO rho0^{4/3} <= e(rho0) <= q^{-2/3} c_TF rho0^{5/3}.
    """
    if rho0 < 0:
        raise ValueError(f"density value must be nonnegative, got {rho0}")
    return (-C_LO * rho0 ** (4.0 / 3.0),
            _tf_coefficient(q) * rho0 ** (5.0 / 3.0))


def model_lipschitz_probe(model, pairs=None, rng=None):
    """Empirical sup of |e(r1)-e(r2)| / ((M^{1/3}+M^{2/3}) |r1-r2|), M=max.

    pairs defaults to 200 log-uniform draws spanning [1e-3, 1e3].  A pair
    with r1 == r2 is rejected: the quotient is undefined there.
    """
    if pairs is None:
        rng = np.random.default_rng(20260818 if rng is None else rng)
        pairs = 10.0 ** rng.uniform(-3.0, 3.0, size=(200, 2))
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 100:
        raise ValueError("pairs must be an (n >= 100, 2) array")
    r1, r2 = pairs[:, 0], pairs[:, 1]
    if np.any(r1 == r2):
        raise ValueError("pairs with identical entries are not allowed")
    if np.any(pairs < 0):
        raise ValueError("density values must be nonnegative")
    m = np.maximum(r1, r2)
    quot = np.abs(model.e(r1) - model.e(r2)) / (
        (m ** (1.0 / 3.0) + m ** (2.0 / 3.0)) * np.abs(r1 - r2))
    return float(np.max(quot))


def model_continuity_probe(model, n=200, seed=20260818):
    """Fitted constants for the two one-sided continuity inequalities.

    For sampled 0 <= r' <= r the model should satisfy
        e(r - r') <= e(r) + C_up * r' * r^{1/3}
        e(r - r') >= e(r) - C_lo * (r^{1/3} + r^{2/3}) * r'
    Returns (C_up, C_lo), each the smallest constant making its inequality
    hold on the sample (0 if the inequality holds with slack already).
    """
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    rp = r * rng.uniform(1e-6, 1.0, size=n)
    up = (model.e(r - rp) - model.e(r)) / (rp * r ** (1.0 / 3.0))
    lo = (model.e(r) - model.e(r - rp)) / ((r ** (1.0 / 3.0) + r ** (2.0 / 3.0)) * rp)
    return float(max(np.max(up), 0.0)), float(max(np.max(lo), 0.0))


def energy_lower(F, q=1, c_lt=None):
    """Ground-state energy floor: q^{-2/3} c_LT l53 - c_LO l43.

    c_lt defaults to the (conjectured sharp) Thomas-Fermi value; callers
    that care set their own proven constant.
    """
    conjectured = c_lt is None
    if conjectured:
        c_lt = c_tf(3)
    return _spin(q) ** (-2.0 / 3.0) * c_lt * F.l53 - C_LO * F.l43, conjectured


def energy_upper(F, eps, q=1):
    """Variational ceiling at mixing parameter eps (convex in eps)."""
    from . import kinetic

    return kinetic.t_upper(F, eps, q=q, variant="general")


def energy_upper_min(F, q=1, n_grid=400, refine=True):
    """Minimize the ceiling over eps: log grid on [1e-4, 1e3], then a
    golden-section polish between the argmin's neighbors (the curve is
    convex in eps, so the bracket is sound)."""
    from scipy import optimize as _sciopt

    grid = np.logspace(-4.0, 3.0, n_grid)
    vals = np.array([energy_upper(F, e, q) for e in grid])
    i = int(np.argmin(vals))
    if not refine or F.kin == 0.0:
        return float(vals[i]), float(grid[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_grid - 1)]
    res = _sciopt.minimize_scalar(
        lambda e: energy_upper(F, e, q), bracket=None, bounds=(lo, hi),
        method="bounded", options={"xatol": 1e-12})
    if res.fun <= vals[i]:
        return float(res.fun), float(res.x)
    return float(vals[i]), float(grid[i])


def lieb_oxford_gradient_bound(F, eps):
    """Gradient-corrected exchange constant: (c_LO_grad + eps) l43
    + (0.001206/eps^3) tv, minimized over the given eps.

    Returns (value, improves) where improves says whether the bound beats
    the flat-constant 1.64 l43 at this eps.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    value = (C_LO_GRAD + eps) * F.l43 + C_LO_GRAD_COEFF / eps**3 * F.tv
    return value, bool(value < C_LO * F.l43)
