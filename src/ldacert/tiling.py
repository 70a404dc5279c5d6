"""Tetrahedral tiling of space and its mollified partition of unity.

The unit cube splits into 24 congruent tetrahedra (cube center, a face
center, two adjacent face corners).  Scaled copies tile all of space by
integer translations.  Smearing a tile indicator with a compactly
supported mollifier gives the smooth cutoffs used by the localization
machinery:

    xi  = 1_{tile} * eta_delta              (values in [0, 1])
    chi = s^3 1_{shrunk tile} * eta_delta   with s = (1 - delta/ell)^{-1}

where the shrunk tile is the full tile contracted about its own centroid
by the factor 1/s, and eta_delta is the bump of support radius delta/10.

Both cutoffs are evaluated in closed form: the convolution of an
indicator of a convex polyhedron with a radial kernel reduces to solid
angle terms plus one single integral per face edge, resolved with
precomputed radial profiles of the mollifier.  No volumetric quadrature
is involved, so point evaluation costs O(faces) and is exact to
profile-table accuracy.

Reciprocal-space helpers (tetra_fourier, reduced_sum, moment_M,
tiling_direct_error) quantify how fast the averaged tiling approximation
converges as the smearing scale shrinks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

__all__ = [
    "GeometryError",
    "Isometry",
    "Tetra",
    "TilingConfig",
    "reference_tetra",
    "centered_reference",
    "unit_cube_tetrahedra",
    "mollifier_value",
    "mollifier_hat",
    "convolved_indicator",
    "chi",
    "xi",
    "chi_values",
    "xi_values",
    "chi_grad_values",
    "chi_mass",
    "sqrt_chi_grad_norm",
    "partition_residual",
    "tetra_fourier",
    "cube_fourier",
    "reduced_sum",
    "moment_M",
    "tiling_direct_error",
    "sample_field",
]

_UNITARY = (2.0 * math.pi) ** -1.5


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric input."""


# ---------------------------------------------------------------------------
# reference geometry


def reference_tetra():
    """Vertices of the reference tetrahedron (cube-center vertex at 0).

    Rows: cube center, face center, two adjacent corners of that face.
    """
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [0.5, -0.5, -0.5],
            [0.5, 0.5, -0.5],
        ]
    )


def centered_reference():
    """Reference tetrahedron translated so its centroid sits at the origin."""
    ref = reference_tetra()
    return ref - ref.mean(axis=0)


def _signed_volume(vertices):
    d = vertices[1:] - vertices[0]
    return np.linalg.det(d) / 6.0


@dataclass(frozen=True)
class Isometry:
    """Proper rigid motion x -> R x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise GeometryError("need a 3x3 rotation and a 3-vector translation")
        if np.linalg.norm(r.T @ r - np.eye(3)) > 1e-12:
            raise GeometryError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-12:
            raise GeometryError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Tetra:
    """A tetrahedron plus the rigid motion taking the centered reference onto it."""

    vertices: np.ndarray
    isometry: Isometry

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise GeometryError("a tetrahedron has four vertices in R^3")
        if abs(_signed_volume(v)) < 1e-14:
            raise GeometryError("degenerate tetrahedron (volume below 1e-14)")
        object.__setattr__(self, "vertices", v)

    @property
    def volume(self):
        return abs(_signed_volume(self.vertices))

    @property
    def centroid(self):
        return self.vertices.mean(axis=0)

    def contains(self, points, tol=1e-12):
        """Boolean mask: which points lie inside (faces count as inside)."""
        frames = _face_frames(_vertex_key(self.vertices))
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = pts @ frames[0].T - frames[1]
        return np.all(h <= tol, axis=1)


@lru_cache(maxsize=1)
def unit_cube_tetrahedra():
    """The 24-tile decomposition of the unit cube centered at the origin.

    One tetrahedron per (face, edge-of-face) pair of C1 = (-1/2, 1/2)^3,
    spanned by the cube center, the face center and the edge endpoints.
    Each tile stores the proper rotation + translation mapping the
    centered reference tetrahedron onto it.
    """
    ref = reference_tetra()
    c_ref = ref.mean(axis=0)
    m_ref_inv = np.linalg.inv(ref[1:].T)
    tiles = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            fc = np.zeros(3)
            fc[axis] = 0.5 * sign
            a, b = [i for i in range(3) if i != axis]
            corners = []
            for sa, sb in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
                corner = fc.copy()
                corner[a] = 0.5 * sa
                corner[b] = 0.5 * sb
                corners.append(corner)
            for i in range(4):
                c1, c2 = corners[i], corners[(i + 1) % 4]
                rot = np.column_stack([fc, c1, c2]) @ m_ref_inv
                if np.linalg.det(rot) < 0.0:
                    c1, c2 = c2, c1
                    rot = np.column_stack([fc, c1, c2]) @ m_ref_inv
                verts = np.array([np.zeros(3), fc, c1, c2])
                tiles.append(Tetra(verts, Isometry(rot, rot @ c_ref)))
    return tuple(tiles)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TilingConfig:
    """Tile scale ell and smearing scale delta, with delta in (0, ell/2)."""

    ell: float
    delta: float

    def __post_init__(self):
        if not self.ell > 0:
            raise ValueError(f"tile scale must be positive, got {self.ell}")
        if not 0.0 < self.delta < 0.5 * self.ell:
            raise ValueError(
                f"smearing scale must lie in (0, ell/2), got delta={self.delta} "
                f"with ell={self.ell}"
            )
        object.__setattr__(self, "mollifier_norm", _mollifier_norm())

    @property
    def eps(self):
        return self.delta / self.ell

    @property
    def smear_radius(self):
        # eta_delta is supported in the ball of this radius
        return self.delta / 10.0


# ---------------------------------------------------------------------------
# the mollifier and its radial profiles


@lru_cache(maxsize=1)
def _mollifier_norm():
    val, _ = quad(
        lambda r: math.exp(-1.0 / (1.0 - r * r)) * r * r if r < 1.0 else 0.0,
        0.0,
        1.0,
        epsabs=1e-16,
        epsrel=1e-13,
    )
    return 1.0 / (4.0 * math.pi * val)


def mollifier_value(r):
    """Unit bump profile eta_1 at radius r (integral one, support [0, 1))."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = _mollifier_norm() * np.exp(-1.0 / (1.0 - ri * ri))
    return out if out.ndim else float(out)


_HAT_STEP = 1e-3
_HAT_SMAX = 80.0


@lru_cache(maxsize=1)
def _mollifier_hat_spline():
    s = np.arange(0.0, _HAT_SMAX + _HAT_STEP / 2, _HAT_STEP)
    x, w = leggauss(200)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    f = mollifier_value(x) * x * w
    vals = np.sin(np.outer(s, x)) @ f
    vals[1:] = 4.0 * math.pi * _UNITARY * vals[1:] / s[1:]
    vals[0] = _UNITARY  # the integral of eta_1 is one
    return CubicSpline(s, vals)


def mollifier_hat(s):
    """Unitary Fourier transform of eta_1, as a function of |k|."""
    s = np.abs(np.asarray(s, dtype=float))
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.empty(s.shape)
    near = s <= _HAT_SMAX
    out[near] = _mollifier_hat_spline()(s[near])
    for i in np.nonzero(~near)[0]:
        # Oscillatory tail: let QUADPACK handle the sin factor explicitly.
        si = s[i]
        val, _ = quad(
            lambda r: mollifier_value(r) * r,
            0.0,
            1.0,
            weight="sin",
            wvar=si,
            epsabs=1e-14,
            limit=200,
        )
        out[i] = 4.0 * math.pi * _UNITARY * val / si
    return float(out[0]) if scalar else out


@lru_cache(maxsize=1)
def _profile_splines():
    """Cumulative radial integrals of the unit bump, as cubic splines on [0,1].

    g1(r) = int_0^r eta_1(t) t^2 dt         (g1(1) = 1/(4 pi))
    k1(r) = int_r^1 eta_1(t) t dt
    j(r)  = int_r^1 g1(t) / t^2 dt
    """
    n_sub = 1200
    knots = np.linspace(0.0, 1.0, n_sub + 1)
    x, w = leggauss(8)
    mid = 0.5 * (knots[:-1] + knots[1:])
    half = 0.5 * (knots[1:] - knots[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    wts = half[:, None] * w[None, :]
    eta = mollifier_value(nodes)

    g1_steps = np.sum(eta * nodes**2 * wts, axis=1)
    g1_vals = np.concatenate([[0.0], np.cumsum(g1_steps)])

    k1_steps = np.sum(eta * nodes * wts, axis=1)
    k1_vals = np.concatenate([[0.0], np.cumsum(k1_steps[::-1])])[::-1]

    g1 = CubicSpline(
        knots, g1_vals, bc_type=((1, 0.0), (1, float(mollifier_value(1.0))))
    )
    k1 = CubicSpline(
        knots, k1_vals, bc_type=((1, 0.0), (1, -float(mollifier_value(1.0))))
    )

    # j has integrand g1(t)/t^2 -> 0 as t -> 0, evaluated off the g1 spline
    ratio = g1(nodes) / nodes**2
    j_steps = np.sum(ratio * wts, axis=1)
    j_vals = np.concatenate([[0.0], np.cumsum(j_steps[::-1])])[::-1]
    j = CubicSpline(knots, j_vals, bc_type=((1, 0.0), (1, -g1_vals[-1])))
    return g1, k1, j


def _qc_profile(r, rs):
    """Face-correction kernel Q_c(r) = int_r^rs (1/(4 pi) - G1(t)) t^{-2} dt.

    G1 is the cumulative mass of eta_{delta}; Q_c is nonnegative, supported
    on [0, rs), and behaves like 1/(4 pi r) as r -> 0.
    """
    g1, _, j = _profile_splines()
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    m = r < rs
    rm = np.maximum(r[m], 1e-300)
    out[m] = (1.0 / (4.0 * math.pi)) * (1.0 / rm - 1.0 / rs) - j(rm / rs) / rs
    return out


def _kg_profile(r, rs):
    """K_g(r) = int_r^rs eta_delta(t) t dt, the gradient-side radial profile."""
    _, k1, _ = _profile_splines()
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    m = r < rs
    out[m] = k1(r[m] / rs) / rs
    return out


# ---------------------------------------------------------------------------
# exact evaluation of indicator * mollifier for a tetrahedron


@lru_cache(maxsize=64)
def _face_frames(vertex_key):
    verts = np.array(vertex_key).reshape(4, 3)
    opposite = [(0, (1, 2, 3)), (1, (0, 3, 2)), (2, (0, 1, 3)), (3, (0, 2, 1))]
    normals = np.empty((4, 3))
    offsets = np.empty(4)
    ea = np.empty((4, 3, 3))
    eb = np.empty((4, 3, 3))
    for f, (opp, tri) in enumerate(opposite):
        a, b, c = (verts[i] for i in tri)
        n = np.cross(b - a, c - a)
        if np.dot(n, verts[opp] - a) > 0.0:
            b, c = c, b
            n = -n
        n = n / np.linalg.norm(n)
        normals[f] = n
        offsets[f] = np.dot(n, a)
        for e, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            ea[f, e] = p
            eb[f, e] = q
    edge_u = eb - ea
    edge_u /= np.linalg.norm(edge_u, axis=2, keepdims=True)
    # in-plane outward normal of each edge
    edge_m = np.cross(edge_u, normals[:, None, :])
    return normals, offsets, ea, eb, edge_u, edge_m


def _vertex_key(vertices):
    return tuple(np.asarray(vertices, dtype=float).ravel().tolist())


_GL_X, _GL_W = leggauss(24)
_NUDGE_DIR = np.array([0.2319871039203040, 0.5483715558798305, 0.8034840276971138])
_NUDGE_DIR = _NUDGE_DIR / np.linalg.norm(_NUDGE_DIR)


def _solid_angle_sum(verts, pts):
    """Sum of signed solid angles of the four outward faces (4 pi inside)."""
    opposite = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    total = np.zeros(len(pts))
    frames = _face_frames(_vertex_key(verts))
    normals = frames[0]
    for f, tri in enumerate(opposite):
        a, b, c = (verts[i] for i in tri)
        if np.dot(np.cross(b - a, c - a), normals[f]) < 0.0:
            b, c = c, b
        r1 = a - pts
        r2 = b - pts
        r3 = c - pts
        n1 = np.linalg.norm(r1, axis=1)
        n2 = np.linalg.norm(r2, axis=1)
        n3 = np.linalg.norm(r3, axis=1)
        num = np.einsum("ij,ij->i", r1, np.cross(r2, r3))
        den = (
            n1 * n2 * n3
            + np.einsum("ij,ij->i", r1, r2) * n3
            + np.einsum("ij,ij->i", r1, r3) * n2
            + np.einsum("ij,ij->i", r2, r3) * n1
        )
        total += 2.0 * np.arctan2(num, den)
    return total


def _edge_coords(pts, ea, eb, edge_u, edge_m):
    # signed in-plane distance to each edge line and endpoint abscissas
    rel_a = ea[None, :, :, :] - pts[:, None, None, :]
    rel_b = eb[None, :, :, :] - pts[:, None, None, :]
    e = np.einsum("nfes,fes->nfe", rel_a, edge_m)
    ta = np.einsum("nfes,fes->nfe", rel_a, edge_u)
    tb = np.einsum("nfes,fes->nfe", rel_b, edge_u)
    return e, ta, tb


def convolved_indicator(vertices, rs, points, want_grad=False):
    """Evaluate u = 1_T * g at points, where g is the radial bump of support rs.

    T is the tetrahedron with the given vertices and g = eta_delta with
    rs = delta/10.  Exact closed form: writing h_f for the signed outward
    distance to face plane f,

        u = (solid angle sum)/(4 pi)
            + sum_f h_f [ Q_c(|h_f|) Theta_f - sum_e sign(e) int Q_c ],

    with Theta_f the winding-angle sum of face f around the foot point
    and the edge integrals taken in the fan angle psi.  The gradient
    (returned when want_grad is set) replaces Q_c by the profile K_g and
    carries a factor -n_f.

    Conditioning: the split is exact, but the pieces grow like 1/dist
    near the vertices and edge lines of T, so the absolute error there
    behaves like machine epsilon times scale/dist (about 1e-10 at
    dist = 1e-6 scale).  Points exactly on a face plane are displaced by
    a 3e-12 scale nudge first; generic points evaluate to 1e-14.
    """
    verts = np.asarray(vertices, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = len(pts)
    normals, offsets, ea, eb, edge_u, edge_m = _face_frames(_vertex_key(verts))

    scale = float(np.max(np.abs(verts))) + rs
    tol = 1e-13 * scale

    h_all = pts @ normals.T - offsets
    u = np.zeros(n_pts)
    grad = np.zeros((n_pts, 3))

    deep = np.all(h_all <= -rs, axis=1)
    u[deep] = 1.0
    active = ~deep & ~np.any(h_all >= rs, axis=1)
    if not np.any(active):
        return (u, grad) if want_grad else u

    p = pts[active].copy()
    h = h_all[active]
    e, ta, tb = _edge_coords(p, ea, eb, edge_u, edge_m)

    degenerate = (np.abs(h) < tol).any(axis=1) | (np.abs(e) < tol).any(axis=(1, 2))
    if np.any(degenerate):
        # displacement large enough that every face-normal projection
        # clears tol (worst projection of the nudge direction is ~0.13)
        p[degenerate] += (3e-12 * scale) * _NUDGE_DIR
        h[degenerate] = p[degenerate] @ normals.T - offsets
        ed, tad, tbd = _edge_coords(p[degenerate], ea, eb, edge_u, edge_m)
        e[degenerate] = ed
        ta[degenerate] = tad
        tb[degenerate] = tbd

    omega = _solid_angle_sum(verts, p)
    corr = np.zeros(len(p))
    gvec = np.zeros((len(p), 3))
    rs2 = rs * rs

    for f in range(4):
        hf = h[:, f]
        habs = np.abs(hf)
        qh = _qc_profile(habs, rs)
        kh = _kg_profile(habs, rs) if want_grad else None
        theta = np.zeros(len(p))
        esum = np.zeros(len(p))
        gsum = np.zeros(len(p)) if want_grad else None
        for k in range(3):
            ef = e[:, f, k]
            se = np.sign(ef)
            eabs = np.abs(ef)
            theta += se * (np.arctan2(tb[:, f, k], eabs) - np.arctan2(ta[:, f, k], eabs))
            b2 = hf * hf + ef * ef
            m = (habs < rs) & (b2 < rs2) & (se != 0.0)
            if not np.any(m):
                continue
            idx = np.nonzero(m)[0]
            tc = np.sqrt(rs2 - b2[idx])
            lo = np.maximum(ta[idx, f, k], -tc)
            hi = np.minimum(tb[idx, f, k], tc)
            keep = hi > lo
            if not np.any(keep):
                continue
            idx = idx[keep]
            lo = lo[keep]
            hi = hi[keep]
            em = eabs[idx]
            b2m = b2[idx]
            e2m = em * em
            mid = np.clip(0.0, lo, hi)
            acc_q = np.zeros(len(idx))
            acc_g = np.zeros(len(idx)) if want_grad else None
            for t0, t1 in ((lo, mid), (mid, hi)):
                p0 = np.arctan(t0 / em)
                p1 = np.arctan(t1 / em)
                ctr = 0.5 * (p1 + p0)
                rad = 0.5 * (p1 - p0)
                psi = ctr[:, None] + rad[:, None] * _GL_X[None, :]
                targ = np.sqrt(b2m[:, None] + e2m[:, None] * np.tan(psi) ** 2)
                acc_q += rad * (_qc_profile(targ, rs) @ _GL_W)
                if want_grad:
                    acc_g += rad * (_kg_profile(targ, rs) @ _GL_W)
            esum[idx] += se[idx] * acc_q
            if want_grad:
                gsum[idx] += se[idx] * acc_g
        corr += hf * (qh * theta - esum)
        if want_grad:
            gvec -= (kh * theta - gsum)[:, None] * normals[f][None, :]

    u[active] = np.clip(omega / (4.0 * math.pi) + corr, 0.0, 1.0)
    if want_grad:
        grad[active] = gvec
        return u, grad
    return u


# ---------------------------------------------------------------------------
# the smooth cutoffs chi and xi


def _tile_vertices(cfg, j, shrunk):
    if not 1 <= j <= 24:
        raise ValueError(f"tile index must lie in 1..24, got {j}")
    tile = unit_cube_tetrahedra()[j - 1]
    verts = cfg.ell * tile.vertices
    if shrunk:
        center = cfg.ell * tile.centroid
        verts = center + (1.0 - cfg.eps) * (verts - center)
    return verts


def xi_values(cfg, j, points):
    """Smooth partition member xi_j at an array of points."""
    return convolved_indicator(_tile_vertices(cfg, j, False), cfg.smear_radius, points)


def chi_values(cfg, j, points):
    """Regularized tile cutoff chi_j at an array of points."""
    u = convolved_indicator(_tile_vertices(cfg, j, True), cfg.smear_radius, points)
    return u / (1.0 - cfg.eps) ** 3


def chi_grad_values(cfg, j, points):
    """chi_j and its gradient, both exact up to profile-table accuracy."""
    u, g = convolved_indicator(
        _tile_vertices(cfg, j, True), cfg.smear_radius, points, want_grad=True
    )
    s = (1.0 - cfg.eps) ** -3
    return u * s, g * s


def xi_grad_values(cfg, j, points):
    """xi_j and its gradient (no shrink, no volume normalization)."""
    return convolved_indicator(
        _tile_vertices(cfg, j, False), cfg.smear_radius, points, want_grad=True
    )


def chi(j, cfg, x):
    """Point value of the regularized cutoff of tile j (j in 1..24)."""
    return float(chi_values(cfg, j, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def xi(j, cfg, x):
    """Point value of the smooth partition member of tile j (j in 1..24)."""
    return float(xi_values(cfg, j, np.atleast_2d(np.asarray(x, dtype=float)))[0])


# ---------------------------------------------------------------------------
# tile integrals (Duffy tensor rule on a fattened copy of the tile)


def _support_box_grid(cfg, j, n):
    """Uniform midpoint grid covering the support of chi_j.

    The integrands built from chi_j are smooth and vanish with all
    derivatives on the box boundary, so the midpoint rule converges
    superalgebraically once the cells resolve the smearing layer; n is
    the node count along the longest axis (None picks that
    automatically, about 2.6 cells per smearing radius).
    """
    verts = _tile_vertices(cfg, j, True)
    pad = 1.001 * cfg.smear_radius
    lo = verts.min(axis=0) - pad
    hi = verts.max(axis=0) + pad
    ext = hi - lo
    if n is None:
        n = int(np.clip(math.ceil(2.6 * ext.max() / cfg.smear_radius), 96, 512))
    counts = np.maximum(16, np.rint(n * ext / ext.max()).astype(int))
    axes = [lo[a] + (np.arange(counts[a]) + 0.5) * (ext[a] / counts[a]) for a in range(3)]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    cell = float(np.prod(ext / counts))
    return pts, cell


def chi_mass(cfg, j, n=None):
    """Quadrature value of the integral of chi_j (exact value ell^3/24)."""
    pts, cell = _support_box_grid(cfg, j, n)
    return cell * float(np.sum(chi_values(cfg, j, pts)))


def sqrt_chi_grad_norm(cfg, j, n=None):
    """Dirichlet integral of sqrt(chi_j), i.e. int |grad sqrt(chi_j)|^2."""
    pts, cell = _support_box_grid(cfg, j, n)
    u, g = convolved_indicator(
        _tile_vertices(cfg, j, True), cfg.smear_radius, pts, want_grad=True
    )
    pos = u > 1e-150
    dens = np.einsum("ij,ij->i", g[pos], g[pos]) / (4.0 * u[pos])
    return cell * float(np.sum(dens)) / (1.0 - cfg.eps) ** 3


# ---------------------------------------------------------------------------
# partition of unity after translation averaging


_LATTICE_OFFSETS = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))


def _lattice_tile_sum(cfg, pts, use_chi):
    """Sum over all lattice translates and tiles of chi (or xi) at pts."""
    ell = cfg.ell
    base = np.round(pts / ell)
    acc = np.zeros(len(pts))
    for off in _LATTICE_OFFSETS:
        shifted = pts - ell * (base + off[None, :])
        for j in range(1, 25):
            if use_chi:
                acc += chi_values(cfg, j, shifted)
            else:
                acc += xi_values(cfg, j, shifted)
    return acc


def partition_residual(cfg, n_tau, sample_points):
    """Worst deviation from 1 of the translation-averaged chi partition.

    Averages sum_{z,j} chi_j(x - ell z - tau) over tau in the ell-cube with
    a midpoint rule of n_tau points per axis, and returns the maximum of
    |average - 1| over the sample points.
    """
    if n_tau < 8:
        raise ValueError(f"need at least 8 translation nodes per axis, got {n_tau}")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    ell = cfg.ell
    axis = (np.arange(n_tau) + 0.5) * (ell / n_tau)
    tau = np.array(list(itertools.product(axis, repeat=3)))
    shifted = (pts[:, None, :] - tau[None, :, :]).reshape(-1, 3)
    sums = _lattice_tile_sum(cfg, shifted, use_chi=True)
    averages = sums.reshape(len(pts), -1).mean(axis=1)
    return float(np.max(np.abs(averages - 1.0)))


# ---------------------------------------------------------------------------
# Fourier transforms of tetrahedra


_SEP_THRESHOLD = 0.05


def _tetra_fourier_batch(verts, kvecs):
    """Unitary Fourier transform of a tetra indicator at many wave vectors.

    Vertex-sum formula when the four vertex phases are well separated;
    otherwise the confluent form via the matrix exponential of the
    bidiagonal phase matrix (stable for nearly equal phases).
    """
    verts = np.asarray(verts, dtype=float)
    vol = abs(_signed_volume(verts))
    if vol < 1e-14:
        raise GeometryError("degenerate tetrahedron (volume below 1e-14)")
    kv = np.atleast_2d(np.asarray(kvecs, dtype=float))
    a = kv @ verts.T  # vertex phases, shape (nk, 4)
    diff = a[:, :, None] - a[:, None, :]
    od = np.abs(diff) + 4.0 * np.eye(4)[None, :, :]
    sep = od.min(axis=(1, 2))
    out = np.empty(len(kv), dtype=complex)

    main = sep >= _SEP_THRESHOLD
    if np.any(main):
        d = diff[main].astype(complex)
        d[:, np.arange(4), np.arange(4)] = 1.0
        denom = np.prod(d, axis=2)
        out[main] = -6.0j * vol * np.sum(np.exp(-1j * a[main]) / denom, axis=1)

    conf = ~main
    z = np.zeros((int(conf.sum()), 4, 4), dtype=complex)
    z[:, np.arange(4), np.arange(4)] = -1j * a[conf]
    z[:, np.arange(3), np.arange(1, 4)] = 1.0
    out[conf] = 6.0 * vol * expm(z)[:, 0, 3]
    return _UNITARY * out


def tetra_fourier(tetra, k):
    """(2 pi)^{-3/2} integral of e^{-i k.x} over the tetrahedron."""
    verts = tetra.vertices if isinstance(tetra, Tetra) else np.asarray(tetra, dtype=float)
    return complex(_tetra_fourier_batch(verts, np.asarray(k, dtype=float))[0])


def cube_fourier(k):
    """Unitary transform of the unit cube indicator (product of sincs)."""
    k = np.asarray(k, dtype=float)
    parts = np.ones(3)
    for i in range(3):
        parts[i] = 1.0 if k[i] == 0.0 else 2.0 * math.sin(0.5 * k[i]) / k[i]
    return _UNITARY * float(np.prod(parts))


def _check_reciprocal(k):
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError("wave vector must be a 3-vector")
    m = k / (2.0 * math.pi)
    mi = np.round(m)
    if np.max(np.abs(m - mi)) > 1e-9:
        raise ValueError(f"wave vector {k} is not on the 2 pi lattice")
    if np.all(mi == 0):
        raise ValueError("wave vector must be a nonzero lattice point")
    return mi.astype(int)


def reduced_sum(eps, k):
    """Fourier sum S(eps, k) of the 24 contracted tile indicators.

    Each unit tile is contracted about its own centroid by 1 - eps; the
    result is normalized by (1 - eps)^{-3} so that S(0, k) = 0 exactly at
    nonzero reciprocal lattice points.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"contraction parameter must lie in [0, 1/2), got {eps}")
    _check_reciprocal(k)
    kv = np.asarray(k, dtype=float)
    total = 0.0 + 0.0j
    for tile in unit_cube_tetrahedra():
        c = tile.centroid
        verts = c + (1.0 - eps) * (tile.vertices - c)
        total += _tetra_fourier_batch(verts, kv)[0]
    return total / (1.0 - eps) ** 3


def moment_M(k):
    """First-moment vector M(k) = int_{C1} (x - sum_j z_j 1_j(x)) e^{-i k.x} dx."""
    mi = _check_reciprocal(k)
    kv = np.asarray(k, dtype=float)
    xpart = np.zeros(3, dtype=complex)
    for axis in range(3):
        others = [b for b in range(3) if b != axis]
        n = int(mi[axis])
        if n != 0 and all(mi[b] == 0 for b in others):
            xpart[axis] = 1j * (-1.0) ** n / (2.0 * math.pi * n)
    zsum = np.zeros(3, dtype=complex)
    factor = (2.0 * math.pi) ** 1.5
    for tile in unit_cube_tetrahedra():
        zsum += tile.centroid * (factor * _tetra_fourier_batch(tile.vertices, kv)[0])
    return xpart - zsum


# ---------------------------------------------------------------------------
# direct evaluation of the tiling error in reciprocal space


def tiling_direct_error(rho, cfg, k_max, n_grid=32, detail=False):
    """Truncated reciprocal-lattice sum bounding the tiling approximation error.

    Evaluates (2 pi)^7 sum_{0 < |m|_inf <= k_max} |hat(eta_1)|^2 |S|^2 I(k/ell)
    with k = 2 pi m, the mollifier hat taken at eps |k| / 10 (the smearing
    ball has radius delta/10) and I the truncated-kernel spectral moment of
    the density.  With detail=True also returns shell sums and a geometric
    tail estimate.
    """
    if int(k_max) != k_max or k_max < 3:
        raise ValueError(f"k_max must be an integer >= 3, got {k_max}")
    k_max = int(k_max)
    from . import coulomb, field

    fld = field.density_to_field(rho, field.default_grid(rho, n=n_grid))
    sf = coulomb.spectral(fld)

    rng = np.arange(-k_max, k_max + 1)
    m = np.array([mm for mm in itertools.product(rng, repeat=3) if any(mm)])
    kv = 2.0 * math.pi * m.astype(float)
    knorm = np.linalg.norm(kv, axis=1)

    eps = cfg.eps
    hats = mollifier_hat(eps * knorm / 10.0)

    s_vals = np.zeros(len(kv), dtype=complex)
    for tile in unit_cube_tetrahedra():
        c = tile.centroid
        verts = c + (1.0 - eps) * (tile.vertices - c)
        s_vals += _tetra_fourier_batch(verts, kv)
    s_vals /= (1.0 - eps) ** 3

    moments = coulomb.kernel_moment(sf, kv / cfg.ell)
    terms = (2.0 * math.pi) ** 7 * hats**2 * np.abs(s_vals) ** 2 * moments
    total = float(np.sum(terms))
    if not detail:
        return total

    shell_idx = np.max(np.abs(m), axis=1)
    shells = {s: float(terms[shell_idx == s].sum()) for s in range(1, k_max + 1)}
    last = shells[k_max]
    prev = shells[k_max - 1]
    ratio = last / prev if prev > 0 else 0.0
    tail = last * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else last
    return total, {"shell_sums": shells, "tail_estimate": tail, "k_max": k_max}


# ---------------------------------------------------------------------------
# grid sampling (CLI support)


def sample_field(cfg, j, spec, kind="chi"):
    """Sample chi_j or xi_j on a grid, returning a ScalarField."""
    from .field import ScalarField

    if kind not in ("chi", "xi"):
        raise ValueError(f"kind must be 'chi' or 'xi', got {kind!r}")
    xs, ys, zs = spec.meshgrid()
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    if kind == "chi":
        vals = chi_values(cfg, j, pts)
    else:
        vals = xi_values(cfg, j, pts)
    return ScalarField(spec, vals.reshape(spec.dims))
