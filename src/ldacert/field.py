"""Densities on uniform grids and the functionals the error bounds consume.

Conventions used throughout the package:

* grids are uniform, axis-aligned, node-centered; a field value lives at
  x = origin + (ix*hx, iy*hy, iz*hz) and integrals are plain cell sums
  (cell volume times a compensated total over node values);
* gradients are second-order central differences in the interior and
  one-sided at the boundary (``np.gradient``, taken in _gradient_norm2 alone);
* the square-root and power gradients are set to zero at nodes where the
  density vanishes, so vacuum regions contribute nothing to kin / thg;
* ``theta`` and ``p`` are the exponents of the theta-gradient seminorm
  thg = integral |grad(rho^theta)|^p.

The analytic families (gaussian, compact-bump) carry closed-form or
radial-quadrature functionals and Coulomb terms, so grid error never
enters when an exact reference is wanted and certify samples nothing.
The smeared tile needs no grid either: its Hartree term is closed-form,
from the covariogram of the simplex, and its functionals come from one
cached, scale-free quadrature table of the tile (tiling._tile_table).
Every radial integral of the unit bump exp(-1/(1-u^2)), here and in
tiling's mollifier, is a sum over one composite Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np


class GridFormatError(ValueError):
    """Raised when a grid file conforms to neither LDA-GRID layout, v1 or v2."""


class SupportError(ValueError):
    """Raised when a density carries non-negligible mass at the box boundary."""


class PreconditionError(ValueError):
    """Raised when an operation's mathematical precondition fails."""


_CHUNK = 4096


def _compensated_total(values):
    """Deterministic sum: pairwise inside fixed 4096 chunks, Neumaier across.

    Independent of numpy's internal blocking, so reruns are bit-identical.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    full = flat.size - flat.size % _CHUNK
    chunks = flat[:full].reshape(-1, _CHUNK).sum(axis=1).tolist()
    s = 0.0
    c = 0.0
    for x in chunks + [float(np.sum(flat[full:]))]:  # an empty tail adds 0.0, a no-op
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


@dataclass(frozen=True)
class GridSpec:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(n) != n or n < 2 for n in self.dims):
            raise ValueError(f"dims must be three integers >= 2, got {self.dims}")
        if len(self.spacing) != 3 or any(not (0 < h < math.inf) for h in self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if len(self.origin) != 3 or not all(math.isfinite(o) for o in self.origin):
            raise ValueError(f"origin must be three finite numbers, got {self.origin}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def cell_volume(self):
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def n_total(self):
        nx, ny, nz = self.dims
        return nx * ny * nz

    def axes(self):
        return tuple(
            self.origin[a] + self.spacing[a] * np.arange(self.dims[a])
            for a in range(3)
        )

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    @property
    def box_lengths(self):
        return tuple(self.spacing[a] * (self.dims[a] - 1) for a in range(3))


@dataclass
class ScalarField:
    """Values sampled on a GridSpec; shape (nx, ny, nz), axis order x, y, z."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.dims:
            raise ValueError(
                f"values shape {self.values.shape} != grid dims {self.spec.dims}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def integrate(field):
    """Integral of a ScalarField over its box (cell volume times node sum)."""
    return field.spec.cell_volume * _compensated_total(field.values)


def _gradient_norm2(values, spacing):
    """|grad f|^2 of grid samples, the one stencil of every grid route."""
    gx, gy, gz = np.gradient(values, *spacing)
    return gx**2 + gy**2 + gz**2


# ---------------------------------------------------------------------------
# density families


@dataclass
class FunctionalSet:
    """The scalar functionals the certificates are built from.

    mass = int rho            l2  = int rho^2
    l43  = int rho^{4/3}      l53 = int rho^{5/3}
    kin  = int |grad sqrt(rho)|^2
    tv   = int |grad rho|
    thg  = int |grad rho^theta|^p
    hartree is filled in by certify, from the density's Coulomb term.
    """

    mass: float
    l2: float
    l43: float
    l53: float
    kin: float
    tv: float
    thg: float
    theta: float
    p: float
    hartree: float | None = None


def _gaussian_power_integral(sigma, mass, s):
    # int rho^s for rho = mass * (2 pi sigma^2)^{-3/2} exp(-|x|^2/(2 sigma^2));
    # 2 pi sigma^2 is inf from sigma = 5.3e153 on (sigma**2 raises from
    # 1.34e154 on), and there the powers of 2 pi and of sigma are taken apart
    if mass == 0.0:
        return 0.0
    var = 2.0 * math.pi * sigma**2 if sigma < 1e154 else math.inf
    if var < math.inf:
        return mass**s * var ** (1.5 * (1.0 - s)) * s**-1.5
    return mass**s * (2.0 * math.pi) ** (1.5 * (1.0 - s)) * sigma ** (3.0 * (1.0 - s)) * s**-1.5


def _gaussian_thg(sigma, mass, theta, p):
    """int (theta rho^(theta - 1) |grad rho|)^p of the gaussian.

    The product of the closed form's factors, or, where one factor leaves
    the double range before the product does (the product is then not
    finite, or 0 with mass > 0), the single power
    c(theta, p) (mass^(theta p / e) sigma)^e with e = 3 - p - 3 theta p,
    whose base stays in range whenever the value does.  Both agree with
    mpmath to roundoff at mass 1; the product keeps the bits it always had.
    """
    if mass == 0.0:
        return 0.0
    tp = theta * p
    try:
        amp = mass * (2.0 * math.pi * sigma**2) ** -1.5
        thg = (
            (theta / sigma**2) ** p
            * amp**tp
            * 2.0
            * math.pi
            * math.gamma((p + 3.0) / 2.0)
            * (2.0 * sigma**2 / tp) ** ((p + 3.0) / 2.0)
        )
    except OverflowError:
        thg = math.inf
    if 0.0 < thg < math.inf:
        return thg
    c = (theta**p * (2.0 * math.pi) ** (1.0 - 1.5 * tp) * math.gamma((p + 3.0) / 2.0)
         * (2.0 / tp) ** ((p + 3.0) / 2.0))
    e = 3.0 - p - 3.0 * tp
    try:
        return c * (mass ** (tp / e) * sigma) ** e if e else c * mass**tp
    except OverflowError:  # the value itself lies beyond the double range
        return math.inf


def gaussian_hartree(sigma, mass):
    """Closed-form self-interaction of the gaussian: mass^2/(2 sqrt(pi) sigma)."""
    return mass**2 / (2.0 * math.sqrt(math.pi) * sigma)


# Dawson's function: Rybicki's step h and odd offsets n = +-1, ..., +-39,
# and the 13 Taylor coefficients (-2)^k/(2k+1)!!
_DAWSON_H = 0.2
_DAWSON_N = np.concatenate([np.arange(1.0, 40.0, 2.0), -np.arange(1.0, 40.0, 2.0)])
_DAWSON_TAYLOR = np.cumprod([1.0] + [-2.0 / (2 * k + 1) for k in range(1, 13)])


def _dawson(x):
    """Dawson's function F(x) = exp(-x^2) int_0^x exp(t^2) dt, elementwise.

    Rybicki's sum (G. B. Rybicki, Computers in Physics 3, 1989; Numerical
    Recipes, section 6.10): with n0 the even integer nearest x/h and
    x' = x - n0 h, F(x) = pi^{-1/2} sum_{n odd} exp(-(x' - n h)^2)/(n0 + n),
    here with h = 0.2 and |n| <= 39 (20 terms a side), where the neglected
    terms and the step's own error stay below 1e-25 relative.  The sum
    cancels as x -> 0, so |x| < 0.2 takes the Taylor series, 13 terms.
    F is odd.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax < 0.2
    out[small] = x[small] * np.polyval(_DAWSON_TAYLOR[::-1], x[small] ** 2)
    big = ax[~small]
    n0 = 2.0 * np.floor(0.5 * big / _DAWSON_H + 0.5)
    xp = big - n0 * _DAWSON_H
    terms = np.exp(-np.subtract.outer(xp, _DAWSON_N * _DAWSON_H) ** 2)
    terms /= np.add.outer(n0, _DAWSON_N)
    # an elementwise sum, not a matvec: BLAS threads cost more than the sum
    out[~small] = np.copysign(np.sum(terms, axis=1) / math.sqrt(math.pi), x[~small])
    return out


@lru_cache(maxsize=1)
def _radial_rule():
    """The one radial rule of the unit bump: 8 Gauss-Legendre nodes on each
    of 1200 equal cells of [0, 1].  Returns the knots, nodes and weights."""
    x, w = np.polynomial.legendre.leggauss(8)
    knots = np.linspace(0.0, 1.0, 1201)
    half = 0.5 * (knots[1:] - knots[:-1])[:, None]
    return knots, 0.5 * (knots[:-1] + knots[1:])[:, None] + half * x, half * w


@lru_cache(maxsize=128)
def _bump_radial_integral(kind, a, b):
    """One cached radial quadrature of the unit bump rho = exp(-1/(1-u^2)).

    kind "pow" gives int rho^a (b unused), kind "grad" int |grad rho^a|^b,
    both over the unit ball, from the integrand's logarithm -a b s +
    b log(2 a u s^2) + 2 log u, s = 1/(1-u^2): no factor overflows where
    the product does not.  For a b >= 4/3, within 1e-14 relative of mpmath
    for b <= 40 and 1e-13 above; a "grad" peak (near s = 2/a, width about
    1/(2 u s sqrt(2b)) in u) within one cell raises ArithmeticError, a
    value past the float range OverflowError.
    """
    knots, u, w = _radial_rule()
    s = 1.0 / (1.0 - u * u)
    log_f = -a * s if kind == "pow" else -a * b * s + b * np.log(2.0 * a * u * s * s)
    peak = max(2.0 / a, 1.0)
    if kind == "grad" and 2.0 * peak * math.sqrt((1.0 - 1.0 / peak) * 2.0 * b) * knots[1] > 1.0:
        raise ArithmeticError(f"|grad rho^{a:g}|^{b:g} peaks within one cell of the radial rule")
    with np.errstate(over="ignore"):
        total = 4.0 * math.pi * _compensated_total(np.exp(log_f + 2.0 * np.log(u)) * w)
    if not math.isfinite(total):
        raise OverflowError(f"int |grad rho^{a:g}|^{b:g} exceeds the float range")
    return total


@lru_cache(maxsize=4)
def _bump_enclosed(power=0):
    """Q(r) = int_0^r exp(-1/(1-u^2)) u^(2+power) du at the knots of the
    radial rule (cumulative cell sums) and at its nodes (the sum at the
    cell's left knot plus the same 8-node rule on [knot, node])."""
    shell = lambda u: np.exp(-1.0 / (1.0 - u * u)) * u * u * u**power
    x, wx = np.polynomial.legendre.leggauss(8)
    knots, u, w = _radial_rule()
    q_knots = np.concatenate([[0.0], np.cumsum(np.sum(shell(u) * w, axis=1))])
    half = 0.5 * (u - knots[:-1, None])
    sub = knots[:-1, None, None] + half[..., None] * (x + 1.0)
    return q_knots, q_knots[:-1, None] + half * (shell(sub) @ wx)


def _tail_interpolant(values, slopes):
    """Cubic Hermite interpolant of a tail integral's values (the last one
    0) and slopes at the knots of the radial rule; 0 from x = 1 on."""
    cells = len(values) - 1
    y0, y1 = values[:-1], values[1:]
    m0, m1 = slopes[:-1] / cells, slopes[1:] / cells
    coef = np.zeros((4, cells + 1))  # per cell, in the local coordinate
    coef[:, :-1] = y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1

    def interpolant(x):
        i = (np.minimum(x, 1.0) * cells).astype(int)
        t = x * cells - i
        # one np.take per contiguous coefficient row beats a 2-d fancy index
        c0, c1, c2, c3 = (np.take(row, i) for row in coef)
        return c0 + t * (c1 + t * (c2 + t * c3))

    return interpolant


@lru_cache(maxsize=1)
def _bump_unit_hartree():
    """D_1 = D(rho) R/m^2 of the bump, by the field-energy form.

    D = (1/2) int_0^inf Q(r)^2/r^2 dr with Q the enclosed mass; Q = m
    beyond the radius, so D_1 = 1/2 + (1/2) int_0^1 (Q(r)/Q(1))^2/r^2 dr
    for the unit shape, on the radial rule.
    """
    q_knots, q_nodes = _bump_enclosed()
    _, u, w = _radial_rule()
    return 0.5 + 0.5 * _compensated_total((q_nodes / q_knots[-1]) ** 2 / (u * u) * w)


def _support_box(values, pad=0):
    """Slices of the last three axes that bound the nonzero values.

    values holds one field, or a stack of fields along leading axes (the
    box is then the union over the stack).  The box is widened by pad
    nodes and clipped to the grid; it is the whole grid when every value
    is zero.
    """
    nonzero = values != 0
    box = []
    for axis in range(nonzero.ndim - 3, nonzero.ndim):
        others = tuple(a for a in range(nonzero.ndim) if a != axis)
        idx = np.flatnonzero(np.any(nonzero, axis=others))
        if idx.size == 0:
            return tuple(slice(0, n) for n in values.shape[-3:])
        box.append(slice(max(idx[0] - pad, 0),
                         min(idx[-1] + pad + 1, nonzero.shape[axis])))
    return tuple(box)


def _grid_functionals(field, theta, p):
    """Grid functionals, computed on the support box of the samples.

    Every integrand vanishes where rho and its neighbours do.  Two nodes of
    margin let np.gradient see the same zeros at the box edge as on the
    whole grid, and each integrand is summed over the whole grid, so the
    4096-node chunks of _compensated_total and every value are those of a
    whole-grid evaluation.  Callers pass samples >= 0 (GridDensity or a tile).
    """
    rho = field.values
    vol = field.spec.cell_volume
    box = _support_box(rho, pad=2)
    sub = rho[box]
    positive = sub > 0
    whole = np.zeros(rho.shape)

    def integral(values):
        whole[box] = values
        return vol * _compensated_total(whole)

    def power_grad_integral(expo, q):
        # int |grad rho^expo|^q with the vacuum-node override
        mag2 = _gradient_norm2(sub**expo, field.spec.spacing)
        mag2[~positive] = 0.0
        return integral(mag2 ** (q / 2.0))

    return FunctionalSet(
        mass=vol * _compensated_total(rho),
        l2=integral(sub**2),
        l43=integral(sub ** (4.0 / 3.0)),
        l53=integral(sub ** (5.0 / 3.0)),
        kin=power_grad_integral(0.5, 2.0),
        tv=integral(np.sqrt(_gradient_norm2(sub, field.spec.spacing))),
        thg=power_grad_integral(theta, p),
        theta=theta,
        p=p,
    )


class Density:
    """A particle density: one frozen subclass per family, built with
    Density.gaussian / compact_bump / smeared_tetra / grid.

    Each family validates its parameters and provides default_grid(n) and
    sample(spec).  The grid route is held here, once: functionals(theta, p),
    hartree() and kernel_moment(kvecs, n) take the grid term of
    self.sample(self.default_grid(n)).  The analytic families override
    those they have in closed form or by radial quadrature, and the smeared
    tile overrides functionals() and hartree(), so only a grid density
    takes the grid functionals and the grid Hartree term.
    """

    #: the grid a density is tied to; only sampled grid densities have one
    own_grid = None

    def _require_finite(self):
        # every parameter of an analytic family is a number
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")

    def functionals(self, theta, p):
        return _grid_functionals(self.sample(self.default_grid()), theta, p)

    def hartree(self):
        """Direct term D(rho) = (1/2) iint rho(x) rho(y)/|x-y| dx dy."""
        from . import coulomb  # lazy: coulomb needs this module's grid types

        return coulomb.hartree(self.sample(self.default_grid()))

    def kernel_moment(self, kvecs, n=None):
        """coulomb.kernel_moment's I(k) for each row k, on default_grid(n)."""
        from . import coulomb

        return coulomb.kernel_moment(self.sample(self.default_grid(n)), kvecs)


def _cube_grid(half, n):
    # n^3 nodes spanning the cube [-half, half]^3
    h = 2.0 * half / (n - 1)
    return GridSpec((n, n, n), (h, h, h), (-half, -half, -half))


@dataclass(frozen=True)
class Gaussian(Density):
    """mass * (2 pi sigma^2)^{-3/2} exp(-|x|^2/(2 sigma^2))."""

    sigma: float
    mass: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    def default_grid(self, n=None):
        return _cube_grid(8.0 * self.sigma, n or 96)

    def sample(self, spec):
        if self.sigma >= 1e154:  # sigma**2 raises from 1.34e154 on; amp is 0.0 here
            return ScalarField(spec, np.zeros(spec.dims))
        X, Y, Z = spec.meshgrid()
        amp = self.mass * (2.0 * math.pi * self.sigma**2) ** -1.5
        return ScalarField(
            spec, amp * np.exp(-(X**2 + Y**2 + Z**2) / (2.0 * self.sigma**2)))

    def functionals(self, theta, p):
        sigma, mass = self.sigma, self.mass
        try:
            kin = 0.75 * mass / sigma**2
        except OverflowError:  # sigma**2 leaves the double range from sigma = 1.34e154 on
            kin = 0.75 * mass / sigma / sigma
        return FunctionalSet(
            mass=mass,
            l2=_gaussian_power_integral(sigma, mass, 2.0),
            l43=_gaussian_power_integral(sigma, mass, 4.0 / 3.0),
            l53=_gaussian_power_integral(sigma, mass, 5.0 / 3.0),
            kin=kin,
            tv=2.0 * mass / sigma * math.sqrt(2.0 / math.pi),
            thg=_gaussian_thg(sigma, mass, theta, p),
            theta=theta,
            p=p,
        )

    def hartree(self):
        return gaussian_hartree(self.sigma, self.mass)

    def kernel_moment(self, kvecs, n=None):
        """I(k) = D F(|k| sigma) / (2 pi |k| sigma), F Dawson's function
        (_dawson).

        The untruncated kernel: truncating it at R changes I by about
        exp(-R^2/(4 sigma^2)).  2 pi I(0) = D; n is unused.
        """
        kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
        if kvecs.shape[1] != 3 or not np.all(np.isfinite(kvecs)):
            raise ValueError("kvecs must be (n, 3) and finite")
        x = self.sigma * np.linalg.norm(kvecs, axis=1)
        ratio = np.ones_like(x)
        nz = x > 0
        ratio[nz] = _dawson(x[nz]) / x[nz]
        out = gaussian_hartree(self.sigma, self.mass) / (2.0 * math.pi) * ratio
        return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class CompactBump(Density):
    """c exp(-1/(1 - |x|^2/radius^2)) on the ball, c fixed by the mass."""

    radius: float
    mass: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    def default_grid(self, n=None):
        return _cube_grid(1.05 * self.radius, n or 96)

    def sample(self, spec):
        X, Y, Z = spec.meshgrid()
        c = self.mass / (_bump_radial_integral("pow", 1.0, 0.0) * self.radius**3)
        r2 = (X**2 + Y**2 + Z**2) / self.radius**2
        vals = np.zeros_like(X)
        inside = r2 < 1.0
        vals[inside] = c * np.exp(-1.0 / (1.0 - r2[inside]))
        return ScalarField(spec, vals)

    def functionals(self, theta, p):
        radius, mass = self.radius, self.mass
        if mass == 0.0:
            return FunctionalSet(0, 0, 0, 0, 0, 0, 0, theta=theta, p=p)
        integral = _bump_radial_integral
        # rho(r) = c * exp(-1/(1-(r/R)^2)), c fixed by the mass
        c = mass / (integral("pow", 1.0, 0.0) * radius**3)
        return FunctionalSet(
            mass=mass,
            l2=c**2 * radius**3 * integral("pow", 2.0, 0.0),
            l43=c ** (4.0 / 3.0) * radius**3 * integral("pow", 4.0 / 3.0, 0.0),
            l53=c ** (5.0 / 3.0) * radius**3 * integral("pow", 5.0 / 3.0, 0.0),
            # gradient quadratures carry one 1/R per derivative
            kin=c * radius * integral("grad", 0.5, 2.0),
            tv=c * radius**2 * integral("grad", 1.0, 1.0),
            thg=c ** (theta * p) * radius ** (3.0 - p) * integral("grad", theta, p),
            theta=theta,
            p=p,
        )

    def hartree(self):
        return self.mass**2 / self.radius * _bump_unit_hartree()


@dataclass(frozen=True)
class SmearedTetra(Density):
    """rho0 times the smeared cutoff xi_1 of tile 1 of the ell-cube tiling."""

    rho0: float
    ell: float
    delta: float

    def __post_init__(self):
        self._require_finite()
        if self.rho0 < 0:
            raise ValueError(f"rho0 must be nonnegative, got {self.rho0}")
        if not (0 < self.delta < self.ell / 2):
            raise ValueError(
                f"need 0 < delta < ell/2, got delta={self.delta} ell={self.ell}")

    def default_grid(self, n=None):
        # resolve the mollifier shell (width delta/10) with ~4 cells, capped
        h_target = self.delta / 40.0
        half = 0.55 * self.ell + self.delta
        return _cube_grid(
            half, n or min(192, max(48, int(round(2.0 * half / h_target)) + 1)))

    def sample(self, spec):
        from . import tiling  # lazy: tiling needs this module's grid types

        cfg = tiling.TilingConfig(self.ell, self.delta)
        xi = tiling.sample_field(cfg, 1, spec, kind="xi")
        xi.values *= self.rho0  # xi lies in [0, 1] and rho0 >= 0
        return xi

    def functionals(self, theta, p):
        """The tile's functionals with no grid: rho0 xi = rho0 u(x/rs) with
        rs = delta/10 and u = 1_T * eta_1 on the tile scaled to lam = ell/rs
        smearing radii, so every integral but the mass is rho0^a rs^(3 - q)
        I_G(lam), q the number of derivatives and I_G from the one
        scale-free table of tiling._tile_integrals: a cubic in lam read
        from its moments, or for thg a sum over its nodes.  The family's
        delta < ell/2 keeps lam above 20, past the table's bound 1/r_in
        (about 7.66).  The mass is rho0 ell^3/24, the tile's volume.
        """
        from . import tiling

        rs = tiling.TilingConfig(self.ell, self.delta).smear_radius
        integrals = tiling._tile_integrals(self.ell / rs, theta, p)
        rho0 = self.rho0
        return FunctionalSet(
            mass=rho0 * self.ell**3 / 24.0,
            l2=rho0**2 * rs**3 * integrals["l2"],
            l43=rho0 ** (4.0 / 3.0) * rs**3 * integrals["l43"],
            l53=rho0 ** (5.0 / 3.0) * rs**3 * integrals["l53"],
            kin=rho0 * rs * integrals["kin"],
            tv=rho0 * rs**2 * integrals["tv"],
            thg=rho0 ** (theta * p) * rs ** (3.0 - p) * integrals["thg"],
            theta=theta,
            p=p,
        )

    def hartree(self):
        """D(rho0 xi) in closed form, xi = 1_T * eta_rs with rs = delta/10.

        D = (rho0^2/2) int g(r) W(r) dr, with g the covariogram of the tile
        T and W = (eta_rs * eta_rs) * 1/|.|, the mean of 1/|r + X - X'|
        over independent draws X, X' from eta_rs.  For a simplex
        g(r w) = V (1 - r s(w))^3 while r s(w) <= 1
        (tiling._covariogram_sphere_moments); with S_j = int_{S^2} s^j dw:

        * W = 1/r gives D(1_T) = rho0^2 (V/40) S_-2, since
          int_0^(1/s) (1 - r s)^3 r dr = 1/(20 s^2);
        * W - 1/r vanishes for r >= 2 rs, where g is the cubic above while
          2 rs s_max <= 1, and by Green's identity (Laplacian of |r|^(j+2)
          is (j+2)(j+3) |r|^j) int_0^inf r^(j+2) (W - 1/r) dr is
          -E|X-X'|^(j+2) / ((j+2)(j+3)).

        So D = rho0^2 [(V/40) S_-2 - (V/2) sum_(j=0..3) C(3,j) (-1)^j S_j
        E|X-X'|^(j+2) / ((j+2)(j+3))].  The family's rs < ell/20 and this
        tile's s_max = 2 sqrt(2)/ell keep 2 rs s_max below 0.283.  D(1_T)
        scales as ell^5 and the j-th term as ell^(3-j) rs^(j+2).  The grid
        route, coulomb.hartree of the samples, tends to this value: 4.3e-5
        above it at 192^3 for (1, 2, 0.5).
        """
        from . import tiling

        volume, _, direct, sphere = tiling._covariogram_sphere_moments()
        moments = tiling._mollifier_difference_moments()  # m = j + 2
        x = tiling.TilingConfig(self.ell, self.delta).smear_radius / self.ell
        smear = sum(math.comb(3, j) * (-1) ** j * sphere[j] * moments[j]
                    * x ** (j + 2) / ((j + 2) * (j + 3)) for j in range(4))
        return float(self.rho0**2 * self.ell**5 * volume * (direct / 40.0 - smear / 2.0))


@dataclass(frozen=True, eq=False)
class GridDensity(Density):
    """A density given by its samples, tied to their grid."""

    field: ScalarField

    def __post_init__(self):
        if np.any(self.field.values < 0):
            raise ValueError("grid density has negative values")

    own_grid = property(lambda self: self.field.spec)

    def default_grid(self, n=None):
        return self.own_grid

    def sample(self, spec):
        if spec != self.field.spec:
            raise ValueError("grid densities carry their own GridSpec")
        return self.field


Density.gaussian = Gaussian
Density.compact_bump = CompactBump
Density.smeared_tetra = SmearedTetra
Density.grid = GridDensity


def default_grid(rho, n=None):
    """The grid a density family is sampled on when none is given."""
    return rho.default_grid(n)


def density_to_field(rho, spec=None):
    """Sample a density on a grid (its default one unless spec is given)."""
    return rho.sample(default_grid(rho) if spec is None else spec)


def functionals(rho, theta=0.5, p=4.0):
    """FunctionalSet of a density; analytic families use exact routes."""
    if not (0 < theta < 1):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return rho.functionals(theta, p)


_SCALE_POWERS = {
    "mass": 1.0, "l2": 1.0, "l43": 1.0, "l53": 1.0,
    "kin": 1.0 / 3.0, "tv": 2.0 / 3.0,
}


def scale_functionals(F, N):
    """Functionals of the dilated density rho(x / N^{1/3}).

    Every Lebesgue power integral picks up N, kin picks up N^{1/3},
    tv N^{2/3}, thg N^{1-p/3}, hartree N^{5/3}.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    kw = {name: getattr(F, name) * N**pw for name, pw in _SCALE_POWERS.items()}
    kw["thg"] = F.thg * N ** (1.0 - F.p / 3.0)
    kw["hartree"] = None if F.hartree is None else F.hartree * N ** (5.0 / 3.0)
    return replace(F, **kw)


# ---------------------------------------------------------------------------
# tetrahedron-domain Sobolev quotient


def sobolev_ratio(u, p, ell):
    """sup_T |u|^p / (ell^{p-3} int_T |grad u|^p) on T = ell * reference_tetra.

    The quotient is the one the uniform-bound step controls; it is only
    meaningful when u vanishes somewhere on the closed tile, so an
    everywhere-nonzero u raises PreconditionError.  u identically zero
    returns 0 by convention.
    """
    if not p > 3:
        raise ValueError(f"p must exceed 3, got {p}")
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    from . import tiling

    spec = u.spec
    X, Y, Z = spec.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    mask = tiling.Tetra(ell * tiling.reference_tetra()).contains(pts).reshape(spec.dims)
    if not mask.any():
        raise PreconditionError("grid does not cover the tetrahedron")
    vals = np.abs(u.values[mask])
    umax = float(vals.max())
    if umax == 0.0:
        return 0.0
    if vals.min() > 1e-9 * umax:
        raise PreconditionError(
            "u must vanish somewhere on the tile (min |u| is "
            f"{vals.min():.3e} vs max {umax:.3e})"
        )
    mag = _gradient_norm2(u.values, spec.spacing) ** (p / 2.0)
    mag[~mask] = 0.0
    denom = ell ** (p - 3.0) * spec.cell_volume * _compensated_total(mag)
    if denom == 0.0:
        raise PreconditionError("gradient vanishes on the tile")
    return umax**p / denom


# ---------------------------------------------------------------------------
# LDA-GRID file format: v2 written, v1 and v2 read
#
# Both versions open with one header line of ASCII tokens,
#   LDA-GRID <version> nx ny nz hx hy hz ox oy oz
# (the floats in %.17g), followed by the nx*ny*nz values, x fastest.  v1
# gives the values as whitespace-separated %.17g text; v2 gives them as
# exactly 8*nx*ny*nz bytes of little-endian IEEE float64 right after the
# header's newline.  Both round-trip every double exactly.


def _header_spec(tokens):
    # the GridSpec of the nine header tokens after the magic
    try:
        nx, ny, nz = (int(t) for t in tokens[:3])
        hx, hy, hz, ox, oy, oz = (float(t) for t in tokens[3:9])
    except ValueError as exc:
        raise GridFormatError(f"bad header field: {exc}") from None
    try:
        return GridSpec((nx, ny, nz), (hx, hy, hz), (ox, oy, oz))
    except ValueError as exc:
        raise GridFormatError(f"bad header: {exc}") from None


def _checked_field(spec, flat):
    if not np.all(np.isfinite(flat)):
        raise GridFormatError("non-finite value in grid data")
    return ScalarField(spec, flat.reshape(spec.dims, order="F"))


def write_grid(field, path):
    """Write the LDA-GRID v2 format (header line, raw little-endian float64)."""
    spec = field.spec
    header = "LDA-GRID v2 %d %d %d %.17g %.17g %.17g %.17g %.17g %.17g\n" % (
        *spec.dims, *spec.spacing, *spec.origin)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(field.values.ravel(order="F").astype("<f8", copy=False))


def read_grid(path):
    """Read an LDA-GRID v2 or v1 file; the magic token tells them apart."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("latin-1").split()
        if header[:2] != ["LDA-GRID", "v2"]:
            return _read_grid_v1(path)
        payload = fh.read()
    if len(header) != 11:
        raise GridFormatError(f"v2 header has {len(header)} tokens, expected 11")
    spec = _header_spec(header[2:])
    if len(payload) != 8 * spec.n_total:
        raise GridFormatError(
            f"expected {8 * spec.n_total} payload bytes, found {len(payload)}")
    # astype copies the read-only buffer into a writeable native array
    return _checked_field(spec, np.frombuffer(payload, dtype="<f8").astype(np.float64))


def _read_grid_v1(path):
    with open(path) as fh:
        content = fh.read()
    tokens = content.split()
    if len(tokens) < 11 or tokens[0] != "LDA-GRID" or tokens[1] != "v1":
        raise GridFormatError("missing LDA-GRID v1 or v2 header")
    spec = _header_spec(tokens[2:11])
    data = tokens[11:]
    if len(data) != spec.n_total:
        raise GridFormatError(
            f"expected {spec.n_total} values, found {len(data)}")
    try:
        flat = np.array(data, dtype=np.float64)
    except ValueError as exc:
        raise GridFormatError(f"bad value token: {exc}") from None
    return _checked_field(spec, flat)
