"""Electrostatic self-energy and related convolution integrals.

The direct (Hartree) term is computed spectrally with a spherically
truncated Coulomb kernel (Vico, Greengard & Ferrando, J. Comput. Phys. 323,
2016) on the support box of the field: its nonzero nodes, widened by one
node.  _Engine sizes the padding and the truncation radius from the box.
Below its cap of twice the grid dims the scheme is alias-free (a smeared
tile on its default grid); a box that fills most or all of the grid (a
compact bump, a gaussian sample, a dense grid file) takes the cap, and
periodic images still enter at a small relative level (ROADMAP.md, item
4).  One forward transform of the box, _spectrum, feeds the convolution
and the reciprocal-space moment integrals; the kernel, built once per
(box, grid) geometry and cached, also backs the translation-averaged
localization identity.  The annulus convolution is the closed form of a
1D radial reduction used by the tiling error analysis.

Every transform is a numpy.fft pass; the package imports no scipy module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .field import Density, ScalarField, SupportError, _support_box, density_to_field

_TWO_PI = 2.0 * math.pi
# the periodic identity support-checks its shifted fields in blocks of at
# most this many grid values (512 KB of float64, which stays in L2), each
# written into one buffer that the call reuses
_CHECK_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# transform engine


def _fast_len(n):
    """The smallest 5-smooth integer >= n: a length pocketfft transforms
    fast for real input."""
    best = 1 << max(n - 1, 0).bit_length()  # a power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _kernel_values(psq, radius):
    """(1 - cos(R|p|))/|p|^2 with the analytic value R^2/2 at p = 0.

    Evaluated in place in the output array, so a padded reciprocal grid of
    20M points (160 MB per array) needs no further temporaries.
    """
    out = np.sqrt(psq)
    out *= radius
    np.cos(out, out=out)
    np.subtract(1.0, out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= psq
    out[psq == 0.0] = 0.5 * radius**2
    return out


def _half_grid_kernel(freqs, radius):
    """4 pi (1 - cos R|p|)/|p|^2 on the rfftn half-grid of the angular
    frequency axes freqs (full fftfreq axes, any lengths).

    Only the non-negative-frequency rows and columns of the first two axes
    are evaluated.  fftfreq gives f[P - i] == -f[i] exactly, so |p|^2, and
    with it the kernel, of every other row and column is a bitwise copy.
    """
    fx, fy, fz = freqs
    p1, p2, p3 = len(fx), len(fy), len(fz)
    h1, h2 = p1 // 2 + 1, p2 // 2 + 1
    # the sign of the last-axis Nyquist entry drops out of |p|^2
    psq = (fx[:h1, None, None] ** 2 + fy[None, :h2, None] ** 2
           + fz[None, None, : p3 // 2 + 1] ** 2)
    kernel = np.empty((p1, p2, p3 // 2 + 1))
    kernel[:h1, :h2] = 4.0 * math.pi * _kernel_values(psq, radius)
    kernel[:h1, h2:] = kernel[:h1, p2 - h2:0:-1]
    kernel[h1:] = kernel[p1 - h1:0:-1]
    return kernel


class _Engine:
    """Padded transform geometry and truncated Coulomb kernel of one
    support box of box_dims nodes on a grid of dims nodes.

    The truncation radius R is the box diagonal.  Each axis is padded to
    the smallest 5-smooth length P with P h >= (b - 1) h + R, which makes
    the truncated convolution alias-free on the box, unless that exceeds
    2n; then P = 2n and some aliasing remains.  A box that is the whole
    grid always takes the cap, the geometry of a whole-grid transform.
    """

    def __init__(self, box_dims, spacing, dims):
        self.radius = float(np.linalg.norm([h * (b - 1) for b, h in zip(box_dims, spacing)]))
        self.shape = tuple(
            min(_fast_len(math.ceil(b - 1 + self.radius / h)), 2 * n)
            for b, h, n in zip(box_dims, spacing, dims))
        #: angular frequency axes of the full padded reciprocal grid
        self.freqs = tuple(
            _TWO_PI * np.fft.fftfreq(n, d=h) for n, h in zip(self.shape, spacing))
        #: the kernel on the rfftn half-grid, shared by every caller
        self.kernel = _half_grid_kernel(self.freqs, self.radius)
        self.kernel.flags.writeable = False


# bounded: the kernel of a whole 192^3 grid takes 227 MB; a smeared tile's
# box on a 170^3 grid takes 36 MB
_engine = functools.lru_cache(maxsize=8)(_Engine)


def _leak_share(values):
    """The largest boundary-layer share of |mass| among the fields that leak
    (boundary > 1e-6 of the total), or 0.0 if none does.

    values holds one field, or a stack of fields along leading axes.
    """
    vals = np.abs(values)
    total = vals.sum(axis=(-3, -2, -1))
    boundary = (
        vals[..., 0, :, :].sum(axis=(-2, -1)) + vals[..., -1, :, :].sum(axis=(-2, -1))
        + vals[..., :, 0, :].sum(axis=(-2, -1)) + vals[..., :, -1, :].sum(axis=(-2, -1))
        + vals[..., :, :, 0].sum(axis=(-2, -1)) + vals[..., :, :, -1].sum(axis=(-2, -1)))
    leaks = boundary > 1e-6 * total
    return float(np.max(boundary[leaks] / total[leaks])) if np.any(leaks) else 0.0


def _raise_leak(share):
    if share > 0.0:
        raise SupportError(
            f"boundary cells hold {share:.3e} of the mass; "
            "density support must stay inside the grid box")


def _check_support(values):
    """Boundary-layer mass must be negligible for the truncated kernel.

    values holds one field, or a stack of fields along leading axes; every
    field of the stack is checked.
    """
    _raise_leak(_leak_share(values))


def _as_field(rho, spec=None):
    if isinstance(rho, ScalarField):
        return rho
    if isinstance(rho, Density):
        return density_to_field(rho, spec)
    raise TypeError(f"expected Density or ScalarField, got {type(rho).__name__}")


def _spectrum(values, spec):
    """Forward transform of real fields on their support box.

    values holds one field, or a stack of fields along leading axes.
    Returns (coeffs, box, engine): box, three slices, is the support box of
    values (the union over a stack) widened by one node, engine its cached
    _Engine, and coeffs equals rfftn(values[..., *box], s=engine.shape).
    The numpy.fft passes run axis by axis in pocketfft's own rfftn order,
    each padding only the axis it transforms, so the all-zero padding lines
    of the other axes are never transformed.
    """
    box = _support_box(values, pad=1)
    engine = _engine(tuple(s.stop - s.start for s in box), spec.spacing, spec.dims)
    p1, p2, p3 = engine.shape
    sub = values[(...,) + box]
    # a C-ordered first pass keeps every later array C-ordered, whatever the
    # layout of values (a grid file's is Fortran order): the kernel product
    # runs on matching layouts, and hartree sums the potential in C order
    coeffs = np.empty(sub.shape[:-1] + (p3 // 2 + 1,), dtype=complex)
    coeffs = np.fft.rfft(sub, n=p3, axis=-1, out=coeffs)
    coeffs = np.fft.fft(coeffs, n=p1, axis=-3)
    coeffs = np.fft.fft(coeffs, n=p2, axis=-2)
    return coeffs, box, engine


def _potential(values, spec):
    """Truncated-kernel potential of real fields on their support box.

    Returns (pot, box), box as _spectrum gives it and pot equal to
    irfftn(rfftn(values[..., *box], s) * kernel, s) on it; values *
    potential vanishes off the box, so the potential there is never formed.
    The numpy.fft inverse passes run in pocketfft's irfftn order, each
    cropping to the box before the next; the two complex passes keep their
    shape and write in place.  The 1/(P1 P2 P3) scale is applied once at
    the end, rounded from long double as pocketfft rounds it.
    """
    coeffs, box, engine = _spectrum(values, spec)
    p1, p2, p3 = engine.shape
    b1, b2, b3 = (s.stop - s.start for s in box)
    coeffs *= engine.kernel
    coeffs = np.fft.ifft(coeffs, axis=-3, norm="forward", out=coeffs)[..., :b1, :, :]
    coeffs = np.fft.ifft(coeffs, axis=-2, norm="forward", out=coeffs)[..., :b2, :]
    pot = np.fft.irfft(coeffs, n=p3, axis=-1, norm="forward")[..., :b3]
    pot *= np.float64(1 / np.longdouble(p1 * p2 * p3))
    return pot, box


def hartree(rho, spec=None):
    """Direct term D(rho) = (1/2) iint rho(x) rho(y)/|x-y| dx dy, >= 0.

    Spectral evaluation with the truncated kernel on the support box.
    Raises SupportError when the density leaks into the boundary layer of
    its grid; each face of the box is a grid face or a layer of zeros.
    """
    field = _as_field(rho, spec)
    pot, box = _potential(field.values, field.spec)
    _check_support(field.values[box])
    return 0.5 * field.spec.cell_volume * float(np.sum(field.values[box] * pot))


def kernel_moment(rho, kvecs, spec=None):
    """I(k) = int |rhohat(p)|^2 (1 - cos(R|p-k|))/|p-k|^2 dp for each row k.

    rho is a Density (sampled on spec, or on its default grid) or a
    ScalarField.  rhohat is the unitary-convention transform; 2*pi*I(0)
    reproduces the truncated-kernel Hartree value of the same field.

    I(k) is the mean over +-k of (1/V_pad) sum_p |A(p)|^2 K(p - k) on the
    engine's reciprocal grid, A the DFT of the box times the cell volume
    (the continuum transform up to a phase), so I is even in k and each
    +-k pair is evaluated once.  It runs on _spectrum's half-grid, where an
    interior last-axis plane stands for its mirror: at p in the mean, or at
    +N/2 on a Nyquist row (fftfreq mirrors -N/2 to itself).
    """
    kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
    if kvecs.shape[1] != 3 or not np.all(np.isfinite(kvecs)):
        raise ValueError("kvecs must be (n, 3) and finite")
    field = _as_field(rho, spec)
    coeffs, _, engine = _spectrum(field.values, field.spec)
    coeffs *= field.spec.cell_volume
    asq = np.abs(coeffs)
    del coeffs
    asq *= asq
    (p1, p2, p3), (fx, fy, fz) = engine.shape, engine.freqs
    fz, inner = fz[: p3 // 2 + 1], slice(1, (p3 + 1) // 2)
    ii, jj = np.nonzero((2 * np.arange(p1)[:, None] == p1) | (2 * np.arange(p2) == p2))
    nyquist = asq[ii, jj, inner]
    asq[..., inner] *= 2.0
    asq[ii, jj, inner] = nyquist  # their mirrors are counted at +N/2 below

    def kernel(axes, k):
        return _kernel_values(sum((q - c) ** 2 for q, c in zip(axes, k)), engine.radius)

    def weighted_sum(k):
        # (2 pi)^{-3} int |A|^2 K dp  ->  (1/V_pad) sum |A|^2 K
        weighted = kernel((fx[:, None, None], fy[None, :, None], fz), k)
        weighted *= asq
        mirrored = kernel((-fx[-ii % p1, None], -fy[-jj % p2, None], fz[inner]), k)
        return float(np.sum(weighted)) + float(np.sum(nyquist * mirrored))

    keys = [max(tuple(k), tuple(-k)) for k in kvecs]
    moments = {}
    for k in keys:
        if k not in moments:
            moments[k] = 0.5 * (weighted_sum(k) + weighted_sum(tuple(-c for c in k)))
    out = np.array([moments[k] for k in keys]) / (field.spec.cell_volume * math.prod(engine.shape))
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
    rho and each shifted field are support-checked on the basis box, which
    holds every node where rho != 0 (|Re u_m| or |Im u_m| is >= rho/sqrt 2).
    The shifted fields are formed in L2-sized blocks of _CHECK_BLOCK grid
    values, each written into one buffer reused across the call; the
    SupportError reports the largest leaking share over all of them, so its
    message does not depend on the block size.
    """
    if n_tau < 8:
        raise ValueError(f"need at least 8 Gauss nodes per axis, got {n_tau}")
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    modes = _validate_mode_coeffs(f_coeffs)
    field = _as_field(rho, spec)

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
    coeffs = np.stack(coeffs, axis=1)  # (nodes, basis fields)

    pots, box = _potential(basis, field.spec)
    _check_support(field.values[box])
    box_flat = basis[(...,) + box].reshape(len(basis), -1)
    step = max(1, _CHECK_BLOCK // box_flat.shape[1])
    buf = np.empty((min(step, len(coeffs)), box_flat.shape[1]))
    share = 0.0
    for lo in range(0, len(coeffs), step):
        block = coeffs[lo:lo + step]
        shifted = np.matmul(block, box_flat, out=buf[:len(block)])
        share = max(share, _leak_share(shifted.reshape(-1, *pots.shape[1:])))
    _raise_leak(share)
    gram = 0.5 * field.spec.cell_volume * (box_flat @ pots.reshape(len(basis), -1).T)
    lhs = float(np.sum(w_tau * np.sum((coeffs @ gram) * coeffs, axis=1)))
    mode_list = [(np.array(m, dtype=float), c) for m, c in modes.items()
                 if c != 0.0]
    kvecs = np.array([(_TWO_PI / ell) * m for m, _ in mode_list])
    moments = np.atleast_1d(kernel_moment(field, kvecs))
    rhs = _TWO_PI * float(
        sum(abs(c) ** 2 * mom for (_, c), mom in zip(mode_list, moments)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# annulus convolution

def _annulus_bounds(r, alpha):
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    if not r >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return 1.0 / (1.0 + alpha), 1.0 / (1.0 - alpha)


def annulus_conv(r, alpha):
    """Convolution of the annulus indicator {1/(1+a) < |y| < 1/(1-a)} with
    |.|^{-2}, evaluated at radius r.

    Radial reduction: 2 pi r * int s log((s+1)/|s-1|) ds over
    [1/(r(1+a)), 1/(r(1-a))], in closed form through the antiderivative
    G(s) = ((s^2-1)/2) log((s+1)/|s-1|) + s, continuous across the
    logarithmic point s = 1.  Below s = 1/2 the closed form's two terms
    cancel to 2 s^3/3 + ... (its error reaches 7e-11 relative at r = 100),
    so G there is the series 2 sum_{k>=1} s^(2k+1)/(4k^2 - 1), summed by
    Horner from the 30th term (below 1e-17 relative).
    """
    lo_r, hi_r = _annulus_bounds(r, alpha)
    if r == 0.0:
        return 8.0 * math.pi * alpha / (1.0 - alpha**2)

    def anti(s):
        if s < 0.5:
            s2, total = s * s, 0.0
            for k in range(30, 0, -1):
                total = total * s2 + 1.0 / (4 * k * k - 1)
            return 2.0 * s * s2 * total
        if s == 1.0:
            return 1.0
        # log1p keeps the log's relative accuracy as s grows (small r)
        log = math.log1p(2.0 / (s - 1.0)) if s > 1.0 else math.log((s + 1.0) / (1.0 - s))
        return 0.5 * (s * s - 1.0) * log + s

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
    vals = np.array([annulus_conv(r, alpha) for r in np.sort(r_grid)])
    sup = float(np.max(vals))
    return sup, sup / (alpha * math.log(1.0 / alpha))
