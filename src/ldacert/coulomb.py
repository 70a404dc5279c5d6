"""Electrostatic self-energy and related convolution integrals.

The direct (Hartree) term is computed spectrally on a zero-padded grid with
a spherically truncated Coulomb kernel: truncation radius R = the original
box diagonal removes all periodic images for densities supported inside the
box, so the only error left is discretization.  Real FFTs carry the
convolution, with the kernel built once per grid and cached.  The same
truncated kernel backs the reciprocal-space moment integrals and the
translation-averaged localization identity.  The annulus convolution is an
independent 1D radial reduction used by the tiling error analysis.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft
from scipy import integrate as _sciint

from .field import Density, ScalarField, SupportError, density_to_field

_TWO_PI = 2.0 * math.pi
# the periodic identity support-checks its shifted fields in blocks of at
# most this many grid values (16 MB of float64)
_CHECK_BLOCK = 1 << 21


# ---------------------------------------------------------------------------
# transform engine


def _fft_workers():
    """scipy.fft worker count: LDA_CERT_THREADS, else the CPUs this process
    may run on.  Workers split independent 1D transforms, so the count never
    changes a value."""
    raw = os.environ.get("LDA_CERT_THREADS")
    if raw is None:
        return len(os.sched_getaffinity(0))
    workers = int(raw) if raw.strip().isdigit() else 0
    if workers < 1:
        raise ValueError(f"LDA_CERT_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _kernel_values(psq, radius):
    """(1 - cos(R|p|))/|p|^2 with the analytic value R^2/2 at p = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (1.0 - np.cos(radius * np.sqrt(psq))) / psq
    out[psq == 0.0] = 0.5 * radius**2
    return out


class _Engine:
    """Padded transform geometry and truncated Coulomb kernel of one grid.

    Fields are zero-padded to twice their dims per axis; the truncation
    radius is the diagonal of the original (unpadded) box.
    """

    def __init__(self, spec):
        self.shape = tuple(2 * n for n in spec.dims)
        self.radius = float(np.linalg.norm(spec.box_lengths))
        self.pad_volume = spec.cell_volume * float(np.prod(self.shape))
        #: angular frequency axes of the full padded reciprocal grid
        self.freqs = fx, fy, fz = tuple(
            _TWO_PI * np.fft.fftfreq(n, d=h) for n, h in zip(self.shape, spec.spacing))
        # rfftn half-grid; the sign of the Nyquist entry drops out of |p|^2
        fz_half = fz[: self.shape[2] // 2 + 1]
        psq = fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz_half[None, None, :] ** 2
        #: 4 pi (1 - cos R|p|)/|p|^2 on the half-grid, shared by every caller
        self.kernel = 4.0 * math.pi * _kernel_values(psq, self.radius)
        self.kernel.flags.writeable = False


# bounded: the kernel of a 192^3 grid alone takes 227 MB
_engine = functools.lru_cache(maxsize=8)(_Engine)


@dataclass
class SpectralField:
    """Plain DFT of a real field zero-padded to twice its dims per axis.

    coeffs follows the numpy transform convention scaled by the cell volume,
    so coeffs[j] approximates the continuum transform int rho e^{-ip.x} dx
    at p = 2*pi*fftfreq(padded shape, spacing) (up to the constant phase of
    the grid origin, which cancels in every |.|^2 expression used here).
    """

    spec: object
    coeffs: np.ndarray


def spectral(field):
    """Zero-padded plain transform of a ScalarField (padding 2 keeps the
    truncated-kernel convolution alias-free for in-box supports)."""
    coeffs = _fft.fftn(field.values, s=_engine(field.spec).shape, workers=_fft_workers())
    return SpectralField(spec=field.spec, coeffs=coeffs * field.spec.cell_volume)


def _check_support(values):
    """Boundary-layer mass must be negligible for the truncated kernel.

    values holds one field, or a stack of fields along leading axes; every
    field of the stack is checked.
    """
    vals = np.abs(values)
    total = vals.sum(axis=(-3, -2, -1))
    boundary = (
        vals[..., 0, :, :].sum(axis=(-2, -1)) + vals[..., -1, :, :].sum(axis=(-2, -1))
        + vals[..., :, 0, :].sum(axis=(-2, -1)) + vals[..., :, -1, :].sum(axis=(-2, -1))
        + vals[..., :, :, 0].sum(axis=(-2, -1)) + vals[..., :, :, -1].sum(axis=(-2, -1)))
    leaks = boundary > 1e-6 * total
    if np.any(leaks):
        share = float(np.max(boundary[leaks] / total[leaks]))
        raise SupportError(
            f"boundary cells hold {share:.3e} of the mass; "
            "density support must stay inside the grid box")


def _as_field(rho, spec=None):
    if isinstance(rho, ScalarField):
        return rho
    if isinstance(rho, Density):
        return density_to_field(rho, spec)
    raise TypeError(f"expected Density or ScalarField, got {type(rho).__name__}")


def _potential(values, spec):
    """Truncated-kernel potential of real fields on the grid of spec.

    values holds one field, or a stack of fields along leading axes.  Each
    is zero-padded to the engine shape, multiplied by the cached kernel on
    the rfftn half-grid and cropped back to the box.
    """
    engine = _engine(spec)
    workers = _fft_workers()
    coeffs = _fft.rfftn(values, s=engine.shape, workers=workers)
    coeffs *= engine.kernel
    n1, n2, n3 = spec.dims
    return _fft.irfftn(coeffs, s=engine.shape, workers=workers)[..., :n1, :n2, :n3]


def hartree(rho, spec=None):
    """Direct term D(rho) = (1/2) iint rho(x) rho(y)/|x-y| dx dy, >= 0.

    Spectral evaluation with the truncated kernel; raises SupportError when
    the density leaks into the boundary cell layer of its box.
    """
    field = _as_field(rho, spec)
    _check_support(field.values)
    pot = _potential(field.values, field.spec)
    return 0.5 * field.spec.cell_volume * float(np.sum(field.values * pot))


def kernel_moment(spectral_field, kvecs):
    """I(k) = int |rhohat(p)|^2 (1 - cos(R|p-k|))/|p-k|^2 dp for each row k.

    rhohat is the unitary-convention transform; 2*pi*I(0) reproduces the
    truncated-kernel Hartree value of the same field.  I(-k) = I(k) for a
    real density, so each +-k pair is evaluated once, at the lexicographically
    larger of the two; on the grid they differ only through the Nyquist
    planes, which carry no weight for a resolved field.
    """
    kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
    if kvecs.shape[1] != 3:
        raise ValueError("kvecs must be (n, 3)")
    engine = _engine(spectral_field.spec)
    fx, fy, fz = engine.freqs
    asq = np.abs(spectral_field.coeffs) ** 2
    keys = [max(tuple(k), tuple(-k)) for k in kvecs]
    moments = {}
    for k in keys:
        if k not in moments:
            psq = ((fx[:, None, None] - k[0]) ** 2
                   + (fy[None, :, None] - k[1]) ** 2
                   + (fz[None, None, :] - k[2]) ** 2)
            # (2 pi)^{-3} int |A|^2 K dp  ->  (1/V_pad) sum |A|^2 K
            moments[k] = float(
                np.sum(asq * _kernel_values(psq, engine.radius))) / engine.pad_volume
    out = np.array([moments[k] for k in keys])
    return out if out.size > 1 else float(out[0])


def _validate_mode_coeffs(f_coeffs):
    modes = {}
    for key, val in f_coeffs.items():
        m = tuple(int(c) for c in key)
        if len(m) != 3:
            raise ValueError(f"mode index {key!r} is not a 3-tuple")
        modes[m] = complex(val)
    for m, c in modes.items():
        neg = tuple(-c_ for c_ in m)
        conj = modes.get(neg, 0.0)
        scale = max(abs(c), abs(conj), 1e-30)
        if abs(c - np.conj(conj)) > 1e-12 * scale:
            raise ValueError(
                f"coefficients are not Hermitian at mode {m}: "
                f"{c} vs conj({conj})")
    return modes


def periodic_localization_identity(rho, f_coeffs, ell, spec=None, n_tau=8):
    """Translation average of D(f(.-tau) rho) against its reciprocal sum.

    f(x) = sum_m c_m exp(2i pi m.x/ell) with Hermitian coefficients
    (f real); lhs averages hartree(f(.-tau) rho) over the period cell with
    a tensor Gauss-Legendre rule (n_tau >= 8 nodes per axis), rhs is
    2 pi sum_m |c_m|^2 I(2 pi m/ell) with the same truncated kernel.
    Returns (lhs, rhs).

    D is a quadratic form, so the lhs takes no Hartree call per node.  A
    +-m pair adds Re(g_m e^{-i theta.tau} u_m) to f(.-tau) rho, with
    theta = 2 pi m/ell, u_m = e^{i theta.x} rho and g_m = c_m + conj(c_{-m})
    (g_0 = c_0).
    Every shifted field is therefore a(tau) . r over the real basis
    r = (Re u_m, Im u_m), and D of it is a^T G a with
    G_jk = (1/2) V sum_x r_j (K * r_k): one convolution per basis field.
    Each shifted field still passes the support check.
    """
    if n_tau < 8:
        raise ValueError(f"need at least 8 Gauss nodes per axis, got {n_tau}")
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    modes = _validate_mode_coeffs(f_coeffs)
    field = _as_field(rho, spec)
    _check_support(field.values)

    sf = spectral(field)
    mode_list = [(np.array(m, dtype=float), c) for m, c in modes.items()
                 if c != 0.0]
    kvecs = np.array([(_TWO_PI / ell) * m for m, _ in mode_list])
    moments = np.atleast_1d(kernel_moment(sf, kvecs))
    rhs = _TWO_PI * float(
        sum(abs(c) ** 2 * mom for (_, c), mom in zip(mode_list, moments)))

    nodes, weights = np.polynomial.legendre.leggauss(n_tau)
    tau_ax = 0.5 * ell * (nodes + 1.0)
    w_ax = 0.5 * weights  # averages to 1 over [0, ell]
    taus = np.stack(np.meshgrid(tau_ax, tau_ax, tau_ax, indexing="ij"), axis=-1).reshape(-1, 3)
    w_tau = (w_ax[:, None, None] * w_ax[None, :, None] * w_ax[None, None, :]).ravel()

    pairs = {}
    for m, c in modes.items():
        rep = max(m, tuple(-c_ for c_ in m))
        pairs[rep] = pairs.get(rep, 0.0) + (c if m == rep else np.conj(c))
    xg, yg, zg = field.spec.meshgrid()
    basis, coeffs = [], []
    for m, g in pairs.items():
        if g == 0.0:
            continue
        theta = (_TWO_PI / ell) * np.array(m, dtype=float)
        a = g * np.exp(-1j * (taus @ theta))
        u = np.exp(1j * (theta[0] * xg + theta[1] * yg + theta[2] * zg)) * field.values
        basis += [u.real, u.imag]
        coeffs += [a.real, -a.imag]
    basis = np.stack(basis)
    flat = basis.reshape(len(basis), -1)
    coeffs = np.stack(coeffs, axis=1)  # (nodes, basis fields)

    step = max(1, _CHECK_BLOCK // flat.shape[1])
    for lo in range(0, len(coeffs), step):
        _check_support((coeffs[lo:lo + step] @ flat).reshape(-1, *field.spec.dims))

    pots = _potential(basis, field.spec).reshape(len(basis), -1)
    gram = 0.5 * field.spec.cell_volume * (flat @ pots.T)
    lhs = float(np.sum(w_tau * np.sum((coeffs @ gram) * coeffs, axis=1)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# annulus convolution

def _annulus_bounds(alpha):
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    return 1.0 / (1.0 + alpha), 1.0 / (1.0 - alpha)


def _radial_integrand(s):
    return s * np.log((s + 1.0) / np.abs(s - 1.0))


def _segment_integral(p, q):
    """int_p^q s log((s+1)/|s-1|) ds with 1 not interior to (p, q).

    Near the logarithmic endpoint the substitution u = -log|s-1| makes the
    integrand smooth and exponentially decaying; away from it the direct
    form is already smooth.
    """
    if q <= p:
        return 0.0
    if min(abs(p - 1.0), abs(q - 1.0)) > 0.25:
        val, _ = _sciint.quad(_radial_integrand, p, q,
                              epsabs=1e-13, epsrel=1e-12)
        return val
    if q <= 1.0:
        u_lo = -math.log(1.0 - p)
        u_hi = math.inf if q == 1.0 else -math.log(1.0 - q)

        def g(u):
            e = math.exp(-u)
            s = 1.0 - e
            return s * (math.log(s + 1.0) + u) * e
    elif p >= 1.0:
        u_lo = -math.log(q - 1.0)
        u_hi = math.inf if p == 1.0 else -math.log(p - 1.0)

        def g(u):
            e = math.exp(-u)
            s = 1.0 + e
            return s * (math.log(s + 1.0) + u) * e
    else:
        raise ValueError("segment straddles the singular radius")
    val, _ = _sciint.quad(g, u_lo, u_hi, epsabs=1e-13, epsrel=1e-12)
    return val


def annulus_conv(r, alpha):
    """Convolution of the annulus indicator {1/(1+a) < |y| < 1/(1-a)} with
    |.|^{-2}, evaluated at radius r.

    Radial reduction: 2 pi r * int s log((s+1)/|s-1|) ds over
    [1/(r(1+a)), 1/(r(1-a))], split at the singular shell s = 1.
    """
    lo_r, hi_r = _annulus_bounds(alpha)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if r == 0.0:
        return 8.0 * math.pi * alpha / (1.0 - alpha**2)
    p, q = lo_r / r, hi_r / r
    if p < 1.0 < q:
        total = _segment_integral(p, 1.0) + _segment_integral(1.0, q)
    else:
        total = _segment_integral(p, q)
    return _TWO_PI * r * total


def annulus_conv_exact(r, alpha):
    """Closed antiderivative route: G(s) = ((s^2-1)/2) log((s+1)/|s-1|) + s
    (continuous across s = 1).  Kept as an independent cross-check of the
    quadrature path."""
    lo_r, hi_r = _annulus_bounds(alpha)
    if r == 0.0:
        return 8.0 * math.pi * alpha / (1.0 - alpha**2)

    def anti(s):
        if s == 1.0:
            return 1.0
        return 0.5 * (s * s - 1.0) * math.log((s + 1.0) / abs(s - 1.0)) + s

    return _TWO_PI * r * (anti(hi_r / r) - anti(lo_r / r))


def annulus_sup(alpha, r_grid):
    """Max of annulus_conv over the grid and its ratio to alpha*log(1/alpha).

    The grid must cover [0, 8] with spacing <= 0.01.  The max sits near
    r = 1, where the antiderivative gives
    sup ~ 4 pi alpha (log(1/alpha) + 1 + log 2); the returned ratio
    therefore approaches 4 pi only logarithmically as alpha -> 0.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        raise ValueError("r_grid is empty")
    if r_grid.min() > 0.0 or r_grid.max() < 8.0 or np.max(np.diff(np.sort(r_grid))) > 0.01 + 1e-12:
        raise ValueError("r_grid must cover [0, 8] with spacing <= 0.01")
    vals = np.array([annulus_conv_exact(r, alpha) for r in np.sort(r_grid)])
    sup = float(np.max(vals))
    return sup, sup / (alpha * math.log(1.0 / alpha))
