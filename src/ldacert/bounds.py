"""Uniform-gas energy models, sharp constants, and total-energy envelopes.

Everything here is d=3.  Energies follow the convention that the local
model e(rho) already carries the spin factor q through its coefficients,
so callers pass q once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def c_tf():
    """Thomas-Fermi constant: (4 pi^2 d/(d+2)) * (d/|S^{d-1}|)^{2/d} at d = 3,
    |S^2| = 2 pi^{3/2}/Gamma(3/2)."""
    return 4.0 * math.pi**2 * 3 / 5.0 * (3 / (2.0 * math.pi**1.5 / math.gamma(1.5))) ** (2.0 / 3)


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
        "c_tf": c_tf(),
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
    return _spin(q) ** (-2.0 / 3.0) * c_tf()


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


def energy_lower(F, q=1, c_lt=None):
    """Ground-state energy floor: q^{-2/3} c_LT l53 - c_LO l43.

    c_lt defaults to the (conjectured sharp) Thomas-Fermi value; callers
    that care set their own proven constant.
    """
    conjectured = c_lt is None
    if conjectured:
        c_lt = c_tf()
    return _spin(q) ** (-2.0 / 3.0) * c_lt * F.l53 - C_LO * F.l43, conjectured


def _gprime_sign(eps, coeffs):
    # sign of g'(eps) = A - e1 B / eps^{e1+1} - e2 D / eps^{e2+1},
    # robust to overflow of the negative powers for tiny eps
    A, B, D, e1, e2 = coeffs
    try:
        val = A - e1 * B / eps ** (e1 + 1.0) - e2 * D / eps ** (e2 + 1.0)
    except (OverflowError, ZeroDivisionError):
        return -1.0
    if math.isnan(val):
        return -1.0
    return math.copysign(1.0, val) if val != 0.0 else 0.0


def _bisect(sign, arg, lo, hi, rtol):
    """The package's one root finder: sign(x, arg) < 0 at lo, >= 0 at hi.
    The midpoint once [lo, hi] is at most rtol (lo + hi) wide (rtol > 2^-52,
    root > 0).  arg goes whole: star-args made optimize_eps 1.7x slower."""
    while hi - lo > rtol * (lo + hi):
        mid = 0.5 * (lo + hi)
        if sign(mid, arg) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimize_eps(A, B, D, e1=1.0, e2=15.0):
    """Minimize g(eps) = A eps + B/eps^e1 + D/eps^e2 over eps > 0.

    The one eps optimizer of the package: the certificate's rhs and the
    variational ceiling energy_upper_min both call it.  g is strictly
    convex when A > 0 and 0 < e1 < e2, so g' has a unique root, found by
    bracketed bisection to relative width 1e-10.  A = 0 makes g
    nonincreasing and the boundary eps = 1 is returned; B = D = 0 makes
    the infimum 0 at eps -> 0 (the exactly-flat case).
    """
    if not all(math.isfinite(c) for c in (A, B, D)):
        raise ValueError(f"coefficients must be finite, got A={A} B={B} D={D}")
    if A < 0 or B < 0 or D < 0:
        raise ValueError("coefficients must be nonnegative")
    if not 0.0 < e1 < e2 < math.inf:
        raise ValueError(f"need finite e2 > e1 > 0, got e1={e1} e2={e2}")
    if A == 0.0 and B == 0.0 and D == 0.0:
        raise ValueError("degenerate objective: all coefficients zero")
    if A == 0.0:
        return 1.0, B + D
    if B == 0.0 and D == 0.0:
        return 0.0, 0.0

    coeffs, lo, hi = (A, B, D, e1, e2), 1.0, 1.0
    while _gprime_sign(lo, coeffs) > 0.0:
        lo *= 0.5
    while _gprime_sign(hi, coeffs) < 0.0:
        hi *= 2.0
    eps = _bisect(_gprime_sign, coeffs, lo, hi, 1e-10)
    return eps, A * eps + B / eps**e1 + D / eps**e2


def energy_upper_min(F, q=1):
    """Minimize the variational ceiling kinetic.t_upper(F, eps, q) over eps > 0.

    With a = q^{-2/3} c_TF l53, the general variant expands to

        a + KAPPA_2 kin + a KAPPA_1 eps + 2 KAPPA_2 kin eps^{-1/2}
        + KAPPA_2 kin eps^{-1},

    so its minimizer is optimize_eps's with exponents 1/2 and 1, and the
    ceiling is t_upper at that eps.  The two one-sided cases return their
    infimum: a as eps -> 0 when kin = 0, and KAPPA_2 kin as eps -> inf
    when a = 0.  Returns (value, eps).
    """
    from . import kinetic

    a = _tf_coefficient(q) * F.l53
    if F.kin == 0.0:
        return a, 0.0
    if a == 0.0:
        return KAPPA_2 * F.kin, math.inf
    eps, _ = optimize_eps(a * KAPPA_1, 2.0 * KAPPA_2 * F.kin, KAPPA_2 * F.kin,
                          0.5, 1.0)
    return kinetic.t_upper(F, eps, q), eps


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
