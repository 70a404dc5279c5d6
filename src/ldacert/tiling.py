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
angle terms plus one single integral per face edge, resolved with cubic
Hermite tables of the mollifier's radial profiles, built like its norm on
field's one radial rule.  No volumetric quadrature is involved, so point
evaluation costs O(faces).  Away from the edge lines it is exact to table
accuracy (about 1e-13); within a fraction of the smearing radius of an
edge line the 32-node rule of the edge integrals errs by up to 7e-5 in
the value and 3e-4 per smearing radius in the gradient (against 400
nodes).  A value depends on its point alone, since no BLAS call is made:
any grouping of the points gives the same bits.

The integrals of a smeared tile over space, chi_mass among them, are
sums over one cached quadrature of the scale-free tile (_tile_quadrature),
so they sample no grid.  Its weights are cubics in the tile's size, so all
but thg are read from four lam moments per integrand (_tile_table).

Reciprocal-space helpers (tetra_fourier, reduced_sum, moment_M,
tiling_direct_error) quantify how fast the averaged tiling approximation
converges as the smearing scale shrinks.  They transform the first tile
only: the other 23 are its images under the cube's rotations, so their
transforms are its own at the rotated wave vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import field

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


def _signed_volume(vertices):
    d = vertices[..., 1:, :] - vertices[..., :1, :]
    return np.linalg.det(d) / 6.0


@dataclass(frozen=True)
class Tetra:
    """A tetrahedron given by its four vertices."""

    vertices: np.ndarray

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

    def contains(self, points):
        """Boolean mask: which points lie inside (faces, to 1e-12, count)."""
        frames = _face_frames(_vertex_key(self.vertices))
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = pts @ frames[0].T - frames[1]
        return np.all(h <= 1e-12, axis=1)


@lru_cache(maxsize=1)
def unit_cube_tetrahedra():
    """The 24-tile decomposition of the unit cube centered at the origin.

    One tetrahedron per (face, edge-of-face) pair of C1 = (-1/2, 1/2)^3,
    spanned by the cube center, the face center and the edge endpoints,
    with the edge endpoints ordered so the vertices are positively
    oriented, like those of the reference tetrahedron (the tiling of
    Graf & Schenker, Comm. Math. Phys. 174, 1995).  The tiles are the
    orbit of the first under the 24 rotations of the cube: tile t is
    g_t applied to tile 1 vertex for vertex (_tile_symmetries).
    """
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
                if np.linalg.det(np.array([fc, c1, c2])) < 0.0:
                    c1, c2 = c2, c1
                tiles.append(Tetra(np.array([np.zeros(3), fc, c1, c2])))
    return tuple(tiles)


@lru_cache(maxsize=1)
def _tile_symmetries():
    """The (24, 3, 3) integer table of g_t, read-only: the signed
    permutation with tile t = g_t tile 1, vertex for vertex.  Only the 24
    rotations match, since every tile is positively oriented."""
    tiles = [tile.vertices for tile in unit_cube_tetrahedra()]
    table = np.zeros((24, 3, 3), dtype=int)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            g = np.zeros((3, 3), dtype=int)
            g[range(3), perm] = signs
            for t, verts in enumerate(tiles):
                if np.array_equal(tiles[0] @ g.T, verts):
                    table[t] = g
    table.flags.writeable = False
    return table


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

    @property
    def eps(self):
        return self.delta / self.ell

    @property
    def smear_radius(self):
        # eta_delta is supported in the ball of this radius
        return self.delta / 10.0


# ---------------------------------------------------------------------------
# the mollifier and its radial profiles


def _mollifier_norm():
    return 1.0 / field._bump_radial_integral("pow", 1.0, 0.0)


def mollifier_value(r):
    """Unit bump profile eta_1 at radius r (integral one, support [0, 1))."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = _mollifier_norm() * np.exp(-1.0 / (1.0 - ri * ri))
    return out if out.ndim else float(out)


def mollifier_hat(s):
    """Unitary Fourier transform of eta_1, as a function of |k|.

    4 pi (2 pi)^{-3/2} int_0^1 eta_1(r) r sin(s r) dr / s, by a 200-node
    Gauss-Legendre rule on [0, 1] divided by the rule's own mass, so that
    s -> 0 tends to the s = 0 value (2 pi)^{-3/2}, returned exactly.  The
    rule, the weighted profile and its mass are built once
    (_mollifier_rule).
    """
    s = np.abs(np.asarray(s, dtype=float))
    x, f, mass = _mollifier_rule()
    out = np.full(s.shape, _UNITARY)
    nz = s != 0.0
    out[nz] = _UNITARY * (np.sin(np.multiply.outer(s[nz], x)) @ f) / (s[nz] * mass)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1)
def _mollifier_rule():
    """mollifier_hat's nodes x on [0, 1], weighted profile f = eta_1(x) x w
    (both read-only) and the rule's mass f @ x."""
    x, w = leggauss(200)
    x = 0.5 * (x + 1.0)
    f = mollifier_value(x) * x * (0.5 * w)
    x.flags.writeable = f.flags.writeable = False
    return x, f, float(f @ x)


@lru_cache(maxsize=1)
def _profiles():
    """Radial profiles of the unit bump on [0, 1], as cubic Hermite tables of
    k1(r) = int_r^1 eta_1(t) t dt and j(r) = int_r^1 g1(t) / t^2 dt, with
    g1(r) = int_0^r eta_1(t) t^2 dt  (g1(1) = 1/(4 pi)).

    Knot values are tail sums over the cells of field's radial rule, with g1
    at its nodes from field._bump_enclosed; the slopes are exact,
    k1' = -eta_1 t and j' = -g1/t^2 (0 at t = 0).
    """
    knots, nodes, wts = field._radial_rule()
    q_knots, q_nodes = field._bump_enclosed()
    norm = _mollifier_norm()
    tail = lambda f: np.append(np.cumsum(np.sum(f * wts, axis=1)[::-1])[::-1], 0.0)
    j_slope = -norm * q_knots / np.maximum(knots, knots[1]) ** 2  # q = 0 at t = 0
    return (field._tail_interpolant(tail(mollifier_value(nodes) * nodes), -mollifier_value(knots) * knots),
            field._tail_interpolant(tail(norm * q_nodes / nodes**2), j_slope))


def _qc_profile(r, rs):
    """Face-correction kernel Q_c(r) = int_r^rs (1/(4 pi) - G1(t)) t^{-2} dt.

    G1 is the cumulative mass of eta_{delta}; Q_c is nonnegative, supported
    on [0, rs), and behaves like 1/(4 pi r) as r -> 0.
    """
    rm = np.maximum(r, 1e-300)
    return ((1.0 / (4.0 * math.pi)) * np.maximum(1.0 / rm - 1.0 / rs, 0.0)
            - _profiles()[1](rm / rs) / rs)


def _kg_profile(r, rs):
    """K_g(r) = int_r^rs eta_delta(t) t dt, the gradient-side radial profile."""
    return _profiles()[0](r / rs) / rs


@lru_cache(maxsize=1)
def _mollifier_difference_moments():
    """E|X - X'|^m for m = 2, 3, 4, 5, X and X' independent draws from eta_1.

    For |X| = a >= |X'| = b the mean of |X - X'|^m over directions is
    ((a + b)^n - (a - b)^n) / (2 a b n) with n = m + 2, the sum over odd k
    of C(n, k) a^(n-k-1) b^(k-1) / n.  The b integral up to a is
    field._bump_enclosed(k - 1) at the nodes of the radial rule, and the
    a integral is that rule, so E = (2/n) sum_k C(n, k) int p(a) a^(n-k-1)
    P_(k-1)(a) da with p the density of |X| and P_i(a) = int_0^a p(b) b^i db.
    """
    _, u, w = field._radial_rule()
    scale = 4.0 * math.pi * _mollifier_norm()
    outer = scale * np.exp(-1.0 / (1.0 - u * u)) * u * u * w  # p(a) da
    moments = []
    for m in range(2, 6):
        n = m + 2
        total = sum(math.comb(n, k) * np.sum(outer * u ** (n - k - 1)
                                             * (scale * field._bump_enclosed(k - 1)[1]))
                    for k in range(1, n + 1, 2))
        moments.append(2.0 * total / n)
    return tuple(moments)


# ---------------------------------------------------------------------------
# the covariogram of a tile


@lru_cache(maxsize=1)
def _covariogram_sphere_moments():
    """(V, s_max, S_-2, (S_0, S_1, S_2, S_3)) of tile 1 at ell = 1; all 24
    tiles are congruent.

    The covariogram of a simplex, the volume g(r w) of T intersected with
    T + r w, is V (1 - r s(w))^3 for r s(w) <= 1 (the intersection is a
    homothetic copy of T), with
    s(w) = sum_f A_f (n_f.w)_- / (3V) over the faces' areas and outward
    normals, and S_j = int_{S^2} s^j dw.

    On each of the 14 cells of the arrangement of the great circles
    n_f.w = 0 (a sign vector sigma, not all equal) s = a.w with
    a = sum_f sigma_f A_f n_f / (6V), since sum_f A_f n_f = 0.  With
    a = |a| c, the gnomonic map y = w / (c.w) takes the cell to a convex
    polygon in the plane c.y = 1, with dw = dA / |y|^3 and c.w = 1/|y|, so
    int_cell s^j dw = |a|^j int |y|^(-j-3) dA.  Fanned from the foot c, the
    radial integral is closed: edge PQ adds (c.(P x Q)) int_0^1 f(z(t)) dt
    with z = |P + t (Q - P) - c|^2 and f(z) = (1 - (1 + z)^-e) / (2 e z),
    e = (j + 1)/2, on 32 Gauss-Legendre nodes (64 nodes agree to 1e-15).
    S_0 = 4 pi is a check on the cells.

    s is the support function of the zonotope sum_f A_f/(6V) [-n_f, n_f],
    so s_max, its largest value on the sphere, is the largest |a|.
    """
    tile = unit_cube_tetrahedra()[0]
    volume = tile.volume
    normals, _, corners = _face_frames(_vertex_key(tile.vertices))[:3]
    areas = 0.5 * np.linalg.norm(
        np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1)
    x, wx = leggauss(32)
    t, wt = 0.5 * (x + 1.0), 0.5 * wx
    powers = (-2, 0, 1, 2, 3)
    sphere = dict.fromkeys(powers, 0.0)
    s_max = 0.0
    for sigma in itertools.product((1.0, -1.0), repeat=4):
        sigma = np.array(sigma)
        if abs(sigma.sum()) == 4.0:
            continue  # no direction has every n_f.w of one sign
        a = (sigma * areas) @ normals / (6.0 * volume)
        norm = np.linalg.norm(a)
        c = a / norm
        s_max = max(s_max, norm)
        # the cell's corners: +-n_f x n_g inside the other two half-spaces
        cell = {}
        for pair in itertools.combinations(range(4), 2):
            v = np.cross(normals[pair[0]], normals[pair[1]])
            side = [sigma[k] * normals[k] @ v for k in range(4) if k not in pair]
            if min(side) > 0.0 or max(side) < 0.0:
                cell[pair] = np.sign(side[0]) * v
        for f in range(4):
            ends = [v / (c @ v) for pair, v in cell.items() if f in pair]
            if not ends:
                continue
            p, q = ends
            if np.cross(c, q - p) @ (sigma[f] * normals[f]) < 0.0:
                p, q = q, p  # counterclockwise about c
            d = p - c + t[:, None] * (q - p)
            z = np.sum(d * d, axis=1)
            fan = c @ np.cross(p, q)
            for j in powers:
                e = 0.5 * (j + 1)
                sphere[j] += norm**j * fan * (wt @ (-np.expm1(-e * np.log1p(z)) / (2.0 * e * z)))
    return volume, s_max, sphere[-2], tuple(sphere[j] for j in range(4))


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


@lru_cache(maxsize=64)
def _reach_box(vertex_key, rs):
    """Axis-aligned box (lo, hi) of T' = {x : h_f(x) < rs for every face f}.

    T' is the tetrahedron with each face plane pushed out by rs, so its
    corners are where three pushed planes meet.  The convolved indicator
    is exactly 0 outside T'.
    """
    normals, offsets = _face_frames(vertex_key)[:2]
    corners = np.array([
        np.linalg.solve(normals[list(faces)], offsets[list(faces)] + rs)
        for faces in itertools.combinations(range(4), 3)])
    box = corners.min(axis=0), corners.max(axis=0)
    for bound in box:
        bound.flags.writeable = False  # cached: every caller shares it
    return box


#: the Gauss-Legendre rule of the edge integrals, on each side of the foot
_GL_X, _GL_W = leggauss(32)
_NUDGE_DIR = np.array([0.2319871039203040, 0.5483715558798305, 0.8034840276971138])
_NUDGE_DIR = _NUDGE_DIR / np.linalg.norm(_NUDGE_DIR)


def _solid_angle_sum(face_corners, pts):
    """Sum of signed solid angles of the four outward faces (4 pi inside).

    face_corners is the ea array of _face_frames: the corners (a, b, c) of
    each face in outward order.
    """
    total = np.zeros(len(pts))
    for a, b, c in face_corners:
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


def _edge_distances(pts, ea, edge_m):
    # signed in-plane distance to each of the 12 face edge lines, (n, 4, 3)
    return np.einsum("nfes,fes->nfe", ea[None, :, :, :] - pts[:, None, None, :], edge_m)


def convolved_indicator(vertices, rs, points, want_grad=False):
    """Evaluate u = 1_T * g at points, where g is the radial bump of support rs.

    T is the tetrahedron with the given vertices and g = eta_delta with
    rs = delta/10.  Exact closed form: writing h_f for the signed outward
    distance to face plane f,

        u = (solid angle sum)/(4 pi)
            + sum_f h_f [ Q_c(|h_f|) Theta_f - sum_e sign(e) int Q_c ],

    with Theta_f the winding-angle sum of face f around the foot point
    and the edge integrals taken in the fan angle psi, by the 32-node
    Gauss-Legendre rule _GL_X, _GL_W on each side of the foot of the edge.
    The gradient (returned when want_grad is set) replaces Q_c by the
    profile K_g and carries a factor -n_f.  u and its gradient vanish outside
    T' = {h_f < rs for every f}, so points outside the box of T' are set
    to 0 before any face product is taken.  A face with |h_f| >= rs adds
    an exact 0 (Q_c, K_g and its edge integrals vanish there), so each
    face's terms are computed only on the points within rs of its plane.
    Every product is elementwise or an einsum (no BLAS call), so a value
    depends on its point alone, not on the other points of the call.

    Conditioning: the split is exact, but the pieces grow like 1/dist
    near the vertices and edge lines of T, so the absolute error there
    behaves like machine epsilon times scale/dist (about 1e-10 at
    dist = 1e-6 scale).  Points exactly on a face plane are displaced by
    a 3e-12 scale nudge first; generic points evaluate to 1e-14.  Within a
    fraction of rs of an edge line the edge rule errs by up to 7e-5 in u
    and 3e-4/rs in the gradient, against 400 nodes on tile 1 with edges of
    5 to 10 rs; 13% of the active points among 200,000 random ones of T'
    are off by more than 1e-10; 96 nodes would err by 4e-6 and 2e-5/rs.
    """
    verts = np.asarray(vertices, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = len(pts)
    key = _vertex_key(verts)
    normals, offsets, ea, eb, edge_u, edge_m = _face_frames(key)

    scale = float(np.max(np.abs(verts))) + rs
    tol = 1e-13 * scale

    u = np.zeros(n_pts)
    grad = np.zeros((n_pts, 3))
    # u = 0 outside the box of T' (widened by tol against rounding)
    lo, hi = _reach_box(key, rs)
    rows = np.flatnonzero(np.all((pts >= lo - tol) & (pts <= hi + tol), axis=1))
    h_all = np.einsum("ns,fs->nf", pts[rows], normals) - offsets

    deep = np.all(h_all <= -rs, axis=1)
    u[rows[deep]] = 1.0
    active = ~deep & ~np.any(h_all >= rs, axis=1)
    if not np.any(active):
        return (u, grad) if want_grad else u

    rows = rows[active]
    p = pts[rows]
    h = h_all[active]
    # a nudge moves all of a point's values, so e is needed on every edge
    e = _edge_distances(p, ea, edge_m)

    degenerate = (np.abs(h) < tol).any(axis=1) | (np.abs(e) < tol).any(axis=(1, 2))
    if np.any(degenerate):
        # displacement large enough that every face-normal projection
        # clears tol (worst projection of the nudge direction is ~0.13)
        p[degenerate] += (3e-12 * scale) * _NUDGE_DIR
        h[degenerate] = np.einsum("ns,fs->nf", p[degenerate], normals) - offsets
        e[degenerate] = _edge_distances(p[degenerate], ea, edge_m)

    omega = _solid_angle_sum(ea, p)
    corr = np.zeros(len(p))
    gvec = np.zeros((len(p), 3))
    rs2 = rs * rs

    for f in range(4):
        # Q_c, K_g and every edge integral vanish from |h_f| = rs on, so
        # face f adds an exact 0 to the rows it leaves out
        near = np.flatnonzero(np.abs(h[:, f]) < rs)
        if not len(near):
            continue
        q = p[near]
        hf = h[near, f]
        habs = np.abs(hf)
        ta = np.einsum("nes,es->ne", ea[f] - q[:, None, :], edge_u[f])
        tb = np.einsum("nes,es->ne", eb[f] - q[:, None, :], edge_u[f])
        qh = _qc_profile(habs, rs)
        kh = _kg_profile(habs, rs) if want_grad else None
        theta = np.zeros(len(q))
        esum = np.zeros(len(q))
        gsum = np.zeros(len(q)) if want_grad else None
        for k in range(3):
            ef = e[near, f, k]
            se = np.sign(ef)
            eabs = np.abs(ef)
            theta += se * (np.arctan2(tb[:, k], eabs) - np.arctan2(ta[:, k], eabs))
            b2 = hf * hf + ef * ef
            m = (b2 < rs2) & (se != 0.0)
            if not np.any(m):
                continue
            idx = np.nonzero(m)[0]
            tc = np.sqrt(rs2 - b2[idx])
            lo = np.maximum(ta[idx, k], -tc)
            hi = np.minimum(tb[idx, k], tc)
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
                acc_q += rad * np.einsum("nk,k->n", _qc_profile(targ, rs), _GL_W)
                if want_grad:
                    acc_g += rad * np.einsum("nk,k->n", _kg_profile(targ, rs), _GL_W)
            esum[idx] += se[idx] * acc_q
            if want_grad:
                gsum[idx] += se[idx] * acc_g
        corr[near] += hf * (qh * theta - esum)
        if want_grad:
            gvec[near] -= (kh * theta - gsum)[:, None] * normals[f][None, :]

    u[rows] = np.clip(omega / (4.0 * math.pi) + corr, 0.0, 1.0)
    if want_grad:
        grad[rows] = gvec
        return u, grad
    return u


# ---------------------------------------------------------------------------
# integrals over a smeared tile, from one scale-free table

#: Gauss-Legendre orders of the tile table: h per panel on the faces and
#: strips, d on the strips, h per panel on the corners, and s and t there
_TILE_ORDERS = (12, 12, 6, 9)
#: the h panels, graded toward the outer edge of the support (h = 1)
_TILE_PANELS = (-1.0, -0.5, 0.0, 0.5, 0.8, 1.0)
#: the tile scale, in smearing radii, at which the table is evaluated
_TABLE_LAMBDA = 10.0
#: (face, multiplicity) of the faces the table evaluates
_FACE_COPIES = ((0, 1), (1, 1), (2, 2))
#: the gradient integrands divide by u; nodes with u at or below this read 0
_LIVE_U = 1e-12
#: thg carried by nodes with u at or below this must stay below 1e-4 of it
_SUPPORT_EDGE_U = 1e-10
#: nodes per block of the tile table's moment sums
_MOMENT_BLOCK = 4096
#: nodes per convolved_indicator call of the table build, which caps its
#: (n, 32) edge-rule arrays; a value depends on its node alone, so the
#: blocks change no bit
_TABLE_BLOCK = 16384


def _panel_rule(n, panels):
    """n Gauss-Legendre nodes on each panel; (nodes, weights)."""
    x, w = leggauss(n)
    a, b = np.array(panels[:-1])[:, None], np.array(panels[1:])[:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


@lru_cache(maxsize=1)
def _incenter():
    """Incenter and inradius of tile 1 at ell = 1: h_g(c) = -r_in on every face."""
    normals, offsets = _face_frames(_vertex_key(unit_cube_tetrahedra()[0].vertices))[:2]
    *center, r_in = np.linalg.solve(np.column_stack([normals, np.ones(4)]), offsets)
    return np.array(center), float(r_in)


@lru_cache(maxsize=2)
def _tile_quadrature(orders):
    """u = 1_T * eta_1 at its quadrature nodes, T tile 1 scaled to lam
    smearing radii, in units of the smearing radius: read-only arrays

        u, g, weights   u, |grad u| and the (n, 4) lam-polynomial weights

    int G(u, |grad u|) = sum_i G(u_i, g_i) (weights_i . (1, lam, lam^2,
    lam^3)) for every lam > 1/r_in (r_in the inradius of tile 1 at ell = 1,
    about 0.1306), because of this split of T' = {h_g < 1 for every face g}:

    * the inner tetrahedron {h_g <= -1}, where u = 1: volume
      V (lam - 1/r_in)^3, one node;
    * per face f the frustum y = c + (1 + h/rho)(z - c), z on face f, h in
      (-1, 1), c the incenter and rho = lam r_in; h = h_f(y), and the
      section at h is face f of T_h, the tile with every face pushed out
      by h: the unit face scaled by lam + h/r_in.  That section splits into
      a core, where every other h_g <= -1 and u is the profile phi(h); a
      strip body along each side, within (1 + h)/sin(alpha) of it (alpha
      the dihedral angle there, 45, 60 or 90 degrees), where u depends on
      h and the distance d to the side only; and a parallelogram at each
      corner, where u depends on the position relative to the corner of
      T_h only.  rho > 1 keeps the core a triangle (with sides parallel to
      the face's) and the fourth face out of every corner's reach.

    The core's area is A_f (lam + h/r_in - c_f(h))^2 and a strip body's
    length at d is linear in lam, so the weights are polynomials in lam
    and the nodes are scale-free: u and its gradient are evaluated once,
    by convolved_indicator, at _TABLE_LAMBDA.  The h rule is the orders'
    Gauss rule on each of _TILE_PANELS, split at 0 where 1_T jumps; a
    strip's d rule starts where u does (distance 1 from the edge, for
    h > 0); a corner takes a tensor rule in the parallelogram.

    Against doubled orders the default table agrees to 3e-7 relative in
    kin and tv, 1e-6 in thg (4e-6 at theta = theta_min + 0.02 of each
    variant's gate, p = 3.5 and 5.6) and 2e-8 in l2, l43 and l53, for lam
    from 20 to 400; int u is V lam^3 within 3e-9 relative.  At the nodes
    convolved_indicator's 32-node edge rule stays within 2e-7 of a
    200-node rule in every integral (a 24-node rule, which errs by up to
    1e-4 in u near edge lines, moved int u by 3e-8 relative at lam = 20).

    _tile_table derives from it, once per orders, everything a call of
    _tile_integrals reads.
    """
    n_h, n_d, n_hc, n_c = orders
    tile = unit_cube_tetrahedra()[0]
    normals, offsets, ea, eb, edge_u, edge_m = _face_frames(_vertex_key(tile.vertices))
    center, r_in = _incenter()
    lam = _TABLE_LAMBDA
    c, rho = lam * center, lam * r_in
    areas = 0.5 * np.linalg.norm(np.cross(ea[:, 1] - ea[:, 0], ea[:, 2] - ea[:, 0]), axis=1)
    hs, hw = _panel_rule(n_h, _TILE_PANELS)
    hc, hcw = _panel_rule(n_hc, _TILE_PANELS)
    x, xw = _panel_rule(n_d, (0.0, 1.0))
    s, sw = _panel_rule(n_c, (0.0, 1.0))
    s, t, st_w = s.repeat(n_c), np.tile(s, n_c), np.outer(sw, sw).ravel()

    def poly(*coefficients):
        # weight rows of coefficients of 1, lam, ..., zero-padded to lam^3
        cols = [np.ravel(a) for a in coefficients]
        return np.column_stack(cols + [np.zeros_like(cols[0])] * (4 - len(cols)))

    pts = [c[None]]
    weights = [tile.volume * np.array([[-r_in**-3, 3.0 * r_in**-2, -3.0 / r_in, 1.0]])]
    # tile 1 is symmetric under z -> -z, which swaps faces 2 and 3, so
    # face 2 counts twice and face 3 is not evaluated
    for f, copies in _FACE_COPIES:
        # side k of face f runs from corner k to corner k + 1; the face
        # across it is the one opposite the face's third corner k + 2
        across = [int(np.argmin(np.linalg.norm(tile.vertices - ea[f, (k + 2) % 3], axis=1)))
                  for k in range(3)]
        cos_a = -normals[across] @ normals[f]  # all >= 0: no dihedral angle is obtuse
        sin_a = np.sqrt(1.0 - cos_a**2)
        sides = np.linalg.norm(eb[f] - ea[f], axis=1)
        inward = -edge_m[f]
        # the face's angle at corner k, between sides k - 1 and k
        cos_b = -np.sum(edge_u[f] * np.roll(edge_u[f], 1, axis=0), axis=1)
        sin_b = np.sqrt(1.0 - cos_b**2)

        def section(h):
            # strip widths, the core's scale offset, and the corners of T_h's face
            w = (1.0 + h)[:, None] / sin_a
            return (w, h / r_in - w @ sides / (2.0 * areas[f]),
                    c + (1.0 + h / rho)[:, None, None] * (lam * ea[f] - c))

        w, offset, corners = section(hs)
        pts.append(c + (rho + hs)[:, None] * normals[f])
        weights.append(copies * hw[:, None] * areas[f] * poly(offset**2, 2.0 * offset, np.ones_like(hs)))
        for k in range(3):
            after, before = (k + 1) % 3, (k + 2) % 3
            # u > 0 only within distance 1 of the edge: d above h cot(alpha/2) - sqrt(1 - h^2)
            d_lo = np.maximum(hs * (1.0 + cos_a[k]) / sin_a[k] - np.sqrt(1.0 - hs**2), 0.0)
            span = w[:, k] - d_lo
            d = d_lo[:, None] + span[:, None] * x
            base = corners[:, k, None, :] + d[..., None] * inward[k]
            # the body at distance d ends where the strips of the other two sides begin
            ends = [(w[:, j, None] - np.sum((base - corners[:, j, None, :]) * inward[j], axis=2))
                    / (inward[j] @ edge_u[f, k]) for j in (before, after)]
            pts.append((base + (0.5 * sum(ends))[..., None] * edge_u[f, k]).reshape(-1, 3))
            wd = (copies * hw * span)[:, None] * xw
            length = offset[:, None] * sides[k] + (w[:, k, None] - d) * (
                cos_b[k] / sin_b[k] + cos_b[after] / sin_b[after])
            weights.append(poly(wd * length, wd * sides[k]))
        w, _, corners = section(hc)
        for k in range(3):
            prev = (k - 1) % 3
            along, back = w[:, prev] / sin_b[k], w[:, k] / sin_b[k]
            pts.append((corners[:, k, None, :]
                        + (along[:, None] * s)[..., None] * edge_u[f, k]
                        - (back[:, None] * t)[..., None] * edge_u[f, prev]).reshape(-1, 3))
            weights.append(poly((copies * hcw * along * back * sin_b[k])[:, None] * st_w))
    pts = np.concatenate(pts)
    u, g = np.empty(len(pts)), np.empty(len(pts))
    for start in range(0, len(pts), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        u[block], grad = convolved_indicator(lam * tile.vertices, 1.0, pts[block], want_grad=True)
        g[block] = np.sqrt(np.einsum("ij,ij->i", grad, grad))
    nodes = SimpleNamespace(u=u, g=g, weights=np.concatenate(weights))
    for a in vars(nodes).values():
        a.flags.writeable = False  # cached: every caller shares it
    return nodes


def _moment_sums(f, weights):
    """M[k][j] = sum_i f[k, i] weights[i, j] as Python integers over one
    common denominator, summed with float64 error-free transformations.

    Dekker's two-product splits each product into p + e, e exact but for
    the rounding of its last term, below 2^-80 |p|.  Within a block of
    nodes with sum |p| < 2^x, adding and subtracting c = 1.5 2^(x + 1)
    rounds each p to a multiple of q = 2^(x - 51); those add up exactly in
    float64 in any order, since every partial sum is a multiple of q below
    2^53 q.  The remainders (each below q/2) and the e add up in float64,
    and the blocks' sums add up in integers.  So each moment is within
    about 2^-80 sum_i |p| of the quadrature sum (the e's last roundings
    dominate), and it is kept exactly.
    """
    # the blocks' arrays stay in cache and are reused: fresh arrays of the
    # table's size cost more than the arithmetic
    ah, al, p, e = np.empty((4, len(f), _MOMENT_BLOCK))
    sums = []
    for column in weights.T:
        rows = np.flatnonzero(column)  # corner nodes weigh lam^0 only, strips lam^0 and lam^1
        f_j, w_j = (f, column) if len(rows) == len(column) else (f[:, rows], column[rows])
        parts = [[] for _ in f]
        for start in range(0, len(w_j), _MOMENT_BLOCK):
            a, w = f_j[:, start:start + _MOMENT_BLOCK], w_j[start:start + _MOMENT_BLOCK]
            ah_, al_, p_, e_ = (x[:, :len(w)] for x in (ah, al, p, e))
            np.multiply(a, 134217729.0, out=ah_)  # Veltkamp's split into 26-bit halves
            np.subtract(ah_, a, out=al_)
            ah_ -= al_
            np.subtract(a, ah_, out=al_)
            wh = 134217729.0 * w
            wh -= wh - w
            np.multiply(a, w, out=p_)
            np.multiply(ah_, wh, out=e_)  # e = ((ah wh - p) + ah wl) + al w
            e_ -= p_
            ah_ *= w - wh
            e_ += ah_
            al_ *= w
            e_ += al_
            c = np.ldexp(1.5, np.frexp(np.sum(np.abs(p_, out=ah_), axis=1))[1] + 1)[:, None]
            hi = np.add(p_, c, out=ah_)
            hi -= c
            p_ -= hi
            p_ += e_
            for k, pair in enumerate(zip(np.sum(hi, axis=1).tolist(), np.sum(p_, axis=1).tolist())):
                parts[k] += pair
        sums.append([[x.as_integer_ratio() for x in xs] for xs in parts])
    den = max(d for column in sums for xs in column for _, d in xs)
    return tuple(zip(*[[sum(n * (den // d) for n, d in xs) for xs in column]
                       for column in sums])), den


@lru_cache(maxsize=2)
def _tile_table(orders):
    """What a call of _tile_integrals reads, derived once per orders from
    _tile_quadrature's nodes (u, g, W):

        moments      M[k] = (sum_i f_k(i) W[i, j] for j = 0..3), integers
                     over den, for f_k = u, u^2, u^(4/3), u^(5/3), the kin
                     integrand g^2/(4u) (0 where u <= _LIVE_U) and g
        den          the common denominator of the moments
        weights      W at the nodes with u > _LIVE_U, (n_live, 4)
        ul, gl       u and g there
        edge         index, into those, of the nodes with u <= _SUPPORT_EDGE_U

    Six integrals are sum_i f_k(i) (W[i] . (1, lam, lam^2, lam^3)) =
    M[k] . (1, lam, lam^2, lam^3): a call evaluates that in integers and
    rounds once, to the double nearest the quadrature sum at exact lam
    powers, unless that sum lies within the moments' error (about 2^-80
    of their sums of |terms|) of a midpoint between doubles.  thg's
    integrand depends on (theta, p), so it keeps a sum over the live
    nodes.  The arrays are read-only and the moments are tuples: every
    caller shares them.
    """
    nodes = _tile_quadrature(orders)
    u, g = nodes.u, nodes.g
    live = np.flatnonzero(u > _LIVE_U)
    ul, gl = u[live], g[live]
    kin = np.zeros_like(u)
    kin[live] = gl**2 / (4.0 * ul)
    moments, den = _moment_sums(np.stack([u, u**2, u ** (4.0 / 3.0), u ** (5.0 / 3.0), kin, g]),
                                nodes.weights)
    table = SimpleNamespace(moments=moments, den=den, weights=nodes.weights[live],
                            ul=ul, gl=gl, edge=np.flatnonzero(ul <= _SUPPORT_EDGE_U))
    for a in (table.weights, table.ul, table.gl, table.edge):
        a.flags.writeable = False
    return table


#: the integrals of _tile_integrals read from _tile_table's moments, in its order
_MOMENT_NAMES = ("mass", "l2", "l43", "l53", "kin", "tv")


def _tile_moments(lam, orders=_TILE_ORDERS):
    """The integrals of _tile_integrals other than thg, a dict: each is
    M[k] . (1, lam, lam^2, lam^3) with _tile_table's moments M, evaluated
    in integers (lam = n/d exactly) and rounded once, so it is the double
    nearest the quadrature sum at exact lam powers.  O(1) per call."""
    if not lam * _incenter()[1] > 1.0:
        raise ValueError(f"the tile table needs lam > 1/r_in, got lam = {lam}")
    t = _tile_table(orders)
    n, d = float(lam).as_integer_ratio()
    powers = (d**3, n * d * d, n * n * d, n**3)
    den = t.den * d**3
    return {name: sum(m * x for m, x in zip(row, powers)) / den  # int / int rounds correctly
            for name, row in zip(_MOMENT_NAMES, t.moments)}


def _tile_integrals(lam, theta, p, orders=_TILE_ORDERS):
    """Integrals over space of u = 1_T * eta_1, T tile 1 scaled to lam
    smearing radii, in units of the smearing radius rs.  A dict:

        mass = int u          l2 = int u^2
        l43  = int u^(4/3)    l53 = int u^(5/3)
        kin  = int |grad u|^2 / (4 u)
        tv   = int |grad u|
        thg  = int (theta u^(theta - 1) |grad u|)^p

    so that rho0 u(x/rs) has the functionals rho0^a rs^(3 - q) I, with q
    the number of derivatives.  From _tile_table; all 24 tiles are
    congruent, so every tile of every size reads the same table.  The
    first six come from its lam moments (_tile_moments), each the double
    nearest its quadrature sum; a call forms only thg's terms, with the
    live nodes' weights at its lam, and their sum.

    kin and thg drop the nodes with u <= 1e-12, where
    convolved_indicator's roundoff (up to 6e-16 where the exact u is 0) is
    no longer small against u.  The thg integrand there is O(u^(theta p)) times a power of
    |grad u|/u: on the face profile at (theta, p) = (0.258, 5.6), near the
    classical gate, the region u < 1e-12 holds 2e-8 of the integral and
    u < 1e-10 holds 3e-6.  As theta p nears its gate and p grows, the
    integrand's peak moves out toward u = 0, so thg raises ArithmeticError
    when the nodes with u <= 1e-10 carry more than 1e-4 of it.  On the
    smallest tiles (lam = 20) that happens from p = 7 on at theta p = 4/3,
    and from p = 12 on at theta p = 2.
    """
    integrals = _tile_moments(lam, orders)
    t = _tile_table(orders)
    terms = (theta * t.ul ** (theta - 1.0) * t.gl) ** p * (t.weights @ lam ** np.arange(4.0))
    # an elementwise product and a pairwise sum: a BLAS dot of this length
    # costs milliseconds where its threads are shared
    integrals["thg"] = float(np.sum(terms))
    if np.sum(terms[t.edge]) > 1e-4 * integrals["thg"]:
        raise ArithmeticError(
            f"|grad u^{theta:g}|^{p:g} peaks too near the edge of the tile's support")
    return integrals


def _tile_distance(vertices, pts, cutoff):
    """Euclidean distance from each point of an (n, 3) array to the tetrahedron:
    0 inside, |h_f| where the foot point lies in face f, else the nearest edge.

    Only points with every h_f < cutoff get their distance; the others read
    inf.  h_f <= dist, so each of them lies at cutoff or more.
    """
    normals, offsets, ea, eb, edge_u, edge_m = _face_frames(_vertex_key(vertices))
    h = pts @ normals.T - offsets
    dist = np.where(np.all(h <= 0.0, axis=1), 0.0, np.inf)
    near = np.flatnonzero(np.all(h < cutoff, axis=1))
    q, hq, dq = pts[near], h[near], dist[near]
    measured = set()  # each edge bounds two faces; the first one measures it
    for f in range(4):
        in_face = np.ones(len(q), dtype=bool)
        for k in range(3):
            rel_a = ea[f, k] - q
            e = rel_a @ edge_m[f, k]  # >= 0 on the face's side of the edge line
            in_face &= e >= 0.0
            edge = frozenset((tuple(ea[f, k]), tuple(eb[f, k])))
            if edge not in measured:
                measured.add(edge)
                t = np.maximum(np.maximum(rel_a @ edge_u[f, k], (q - eb[f, k]) @ edge_u[f, k]), 0.0)
                dq = np.minimum(dq, np.sqrt(hq[:, f] ** 2 + e * e + t * t))
        dq[in_face] = np.minimum(dq[in_face], np.abs(hq[in_face, f]))
    dist[near] = dq
    return dist


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


def xi_grad_values(cfg, j, points):
    """xi_j and its gradient (no shrink, no volume normalization)."""
    return convolved_indicator(
        _tile_vertices(cfg, j, False), cfg.smear_radius, points, want_grad=True
    )


# ---------------------------------------------------------------------------
# tile integrals


def _chi_integral(cfg, j, name, q):
    """s^3 rs^(3 - q) times integral name of _tile_moments, q the number
    of derivatives it takes: chi_j = s^3 u(x/rs) with u = 1_T * eta_1 on
    the shrunk tile, which spans lam = (1 - eps) ell/rs > 10 smearing
    radii.  All 24 tiles are congruent, so one value serves every j."""
    if not 1 <= j <= 24:
        raise ValueError(f"tile index must lie in 1..24, got {j}")
    rs = cfg.smear_radius
    value = _tile_moments((1.0 - cfg.eps) * cfg.ell / rs)[name]
    return rs ** (3 - q) * value / (1.0 - cfg.eps) ** 3


def chi_mass(cfg, j):
    """Integral of chi_j: s^3 rs^3 int u from the tile table, the route the
    certificates take.  The exact value is ell^3/24; the table meets it
    within 2e-9 relative from lam = 30 on and within 7e-9 as delta nears
    ell/2 (lam near 10)."""
    return _chi_integral(cfg, j, "mass", 0)


def sqrt_chi_grad_norm(cfg, j):
    """Dirichlet integral of sqrt(chi_j), i.e. int |grad sqrt(chi_j)|^2:
    s^3 rs kin of _tile_moments."""
    return _chi_integral(cfg, j, "kin", 2)


# ---------------------------------------------------------------------------
# partition of unity after translation averaging


def partition_residual(cfg, n_tau, sample_points):
    """Worst deviation from 1 of the translation-averaged chi partition.

    Averages sum_{z,j} chi_j(x - ell z - tau) over tau in the ell-cube with
    a midpoint rule of n_tau points per axis, and returns the maximum of
    |average - 1| over the sample points.

    Each shifted point y counts the 24 tiles of its own cell only, at
    y - ell round(y/ell).  This is exact while eps > ~1e-11: the shrunk tile
    keeps eps ell/8 from the cell faces and the smear radius is eps ell/10,
    so the box outside which convolved_indicator returns exactly 0.0 (largest
    |coordinate| (ell/2)(1 - (3 - 2 sqrt 2) eps/10), plus its 1e-13 rounding
    margin) lies inside the open cell.  Every other cell would add 0.0, so
    the sums are the 27-cell sums bit for bit.
    """
    if n_tau < 8:
        raise ValueError(f"need at least 8 translation nodes per axis, got {n_tau}")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    ell = cfg.ell
    axis = (np.arange(n_tau) + 0.5) * (ell / n_tau)
    tau = np.array(list(itertools.product(axis, repeat=3)))
    shifted = (pts[:, None, :] - tau[None, :, :]).reshape(-1, 3)
    shifted -= ell * np.round(shifted / ell)
    sums = sum(chi_values(cfg, j, shifted) for j in range(1, 25))
    averages = sums.reshape(len(pts), -1).mean(axis=1)
    return float(np.max(np.abs(averages - 1.0)))


# ---------------------------------------------------------------------------
# Fourier transforms of tetrahedra


def _exp_divided_difference(z):
    """exp[z_0, .., z_3] for each row of an (n, 4) complex array: the [0, 3]
    entry of exp(diag(z) + superdiag(1)) (McCurdy, Ng & Parlett, Math. Comp.
    43, 1984), by a mean shift, one 2^-s scaling to 1-norm <= 1 for the
    batch, a degree-18 Taylor sum (remainder below 1/19!) and s squarings."""
    mean = z.mean(axis=1)
    w = z - mean[:, None]
    # column j of diag(w) + superdiag(1) has 1-norm |w_j| + (j > 0)
    s = math.ceil(math.log2(np.max(np.abs(w) + (np.arange(4) > 0))))
    diag, sup = w / 2.0**s, 2.0**-s
    # the Taylor sum keeps e upper triangular: t[o][:, i] holds e[i, i + o]
    t = [1.0 + diag / 18.0, np.full((len(z), 3), sup / 18.0, dtype=complex),
         np.zeros((len(z), 2), dtype=complex), np.zeros((len(z), 1), dtype=complex)]
    for j in range(17, 0, -1):
        # a @ e for the bidiagonal a = diag(diag) + superdiag(sup), in the
        # order matmul sums: the diagonal term, then the one from below
        ae = [diag[:, :4 - o] * t[o] for o in range(4)]
        for o in range(1, 4):
            ae[o] += sup * t[o - 1][:, 1:]
        t = [float(o == 0) + ae[o] / j for o in range(4)]  # I + a e / j
    e = np.zeros((len(z), 4, 4), dtype=complex)
    for o in range(4):
        e[:, np.arange(4 - o), np.arange(o, 4)] = t[o]
    for _ in range(s):
        e = e @ e
    return np.exp(mean) * e[:, 0, 3]


def _tetra_fourier_batch(verts, kvecs):
    """Unitary Fourier transform of a tetra indicator (verts (4, 3)) or of a
    stack of them (verts (..., 4, 3)) at n wave vectors, shape (..., n).  By
    Hermite-Genocchi it is 6 vol exp[z_0, .., z_3] with z_j = -i k.v_j, one
    rule for every row, coinciding phases included."""
    verts = np.asarray(verts, dtype=float)
    vol = np.abs(_signed_volume(verts))
    if np.any(vol < 1e-14):
        raise GeometryError("degenerate tetrahedron (volume below 1e-14)")
    kv = np.atleast_2d(np.asarray(kvecs, dtype=float))
    if not np.all(np.isfinite(kv)):
        raise ValueError("wave vectors must be finite")
    z = -1j * (kv @ np.swapaxes(verts, -1, -2))  # vertex phases, shape (..., n, 4)
    dd = _exp_divided_difference(z.reshape(-1, 4)).reshape(z.shape[:-1])
    return (6.0 * _UNITARY) * vol[..., None] * dd


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
    """Integer lattice index of a wave vector, or of each row of an (n, 3)
    array of them."""
    k = np.asarray(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != 3:
        raise ValueError("wave vector must be a 3-vector")
    m = k / (2.0 * math.pi)
    mi = np.round(m)
    if not np.max(np.abs(m - mi)) <= 1e-9:  # NaN and inf fail too
        raise ValueError(f"wave vector {k} is not on the 2 pi lattice")
    if np.any(np.all(mi == 0, axis=-1)):
        raise ValueError("wave vector must be a nonzero lattice point")
    return mi.astype(int)


def _orbit_transforms(verts, m):
    """Transforms of the 24 images g_t verts (_tile_symmetries) at the
    lattice wave vectors 2 pi m, m an (n, 3) or (3,) integer array; shape
    (24, n).  The image by g_t at k is verts itself at g_t^T k, so one
    _tetra_fourier_batch call at the distinct rotated indices serves all
    24: on a set the rotations map to itself, n rows in place of 24 n."""
    m = np.atleast_2d(m) @ _tile_symmetries()  # row t, i holds g_t^T m_i
    top = int(np.max(np.abs(m)))
    # one int64 code per index, exact for |m| up to 10^6 (numpy raises beyond)
    dims = (2 * top + 1,) * 3
    codes, inverse = np.unique(np.ravel_multi_index(np.moveaxis(m + top, -1, 0), dims),
                               return_inverse=True)
    unique = np.stack(np.unravel_index(codes, dims), axis=-1) - top
    return _tetra_fourier_batch(verts, 2.0 * math.pi * unique)[inverse.reshape(m.shape[:2])]


def reduced_sum(eps, k):
    """Fourier sum S(eps, k) of the 24 contracted tile indicators.

    Each unit tile is contracted about its own centroid by 1 - eps; the
    result is normalized by (1 - eps)^{-3} so that S(0, k) = 0 exactly at
    nonzero reciprocal lattice points.  k is one wave vector, or an (n, 3)
    array of them for an array of n sums, each taken at its lattice point.
    The contraction commutes with the rotations of the cube, so contracted
    tile t is g_t applied to contracted tile 1, and every tile's phases come
    from tile 1's at the rotated wave vectors (_orbit_transforms): at most
    24 rows for one k, and one row per k on a set closed under the rotations.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"contraction parameter must lie in [0, 1/2), got {eps}")
    m = _check_reciprocal(k)
    tile = unit_cube_tetrahedra()[0].vertices
    c = tile.mean(axis=0)
    total = _orbit_transforms(c + (1.0 - eps) * (tile - c), m).sum(axis=0)
    total /= (1.0 - eps) ** 3
    return total if m.ndim == 2 else total[0]


def moment_M(k):
    """First-moment vector M(k) = int_{C1} (x - sum_j z_j 1_j(x)) e^{-i k.x} dx."""
    mi = _check_reciprocal(k)
    xpart = np.zeros(3, dtype=complex)
    for axis in range(3):
        others = [b for b in range(3) if b != axis]
        n = int(mi[axis])
        if n != 0 and all(mi[b] == 0 for b in others):
            xpart[axis] = 1j * (-1.0) ** n / (2.0 * math.pi * n)
    tiles = np.array([tile.vertices for tile in unit_cube_tetrahedra()])
    ft = (2.0 * math.pi) ** 1.5 * _orbit_transforms(tiles[0], mi)[:, 0]
    return xpart - tiles.mean(axis=1).T @ ft


# ---------------------------------------------------------------------------
# direct evaluation of the tiling error in reciprocal space


def tiling_direct_error(rho, cfg, k_max, n_grid=32, detail=False):
    """Truncated reciprocal-lattice sum bounding the tiling approximation error.

    Evaluates (2 pi)^7 sum_{0 < |m|_inf <= k_max} |hat(eta_1)|^2 |S|^2 I(k/ell)
    with k = 2 pi m, the mollifier hat taken at eps |k| / 10 (the smearing
    ball has radius delta/10) and I the spectral moment of the density,
    rho.kernel_moment: the Dawson form for a gaussian, else the
    truncated-kernel grid route on default_grid(rho, n_grid).  The set of m
    is closed under the cube's rotations, so reduced_sum transforms the
    contracted first tile once per m and no other tile.  With detail=True
    also returns shell sums and a geometric tail estimate.
    """
    if int(k_max) != k_max or k_max < 3:
        raise ValueError(f"k_max must be an integer >= 3, got {k_max}")
    k_max = int(k_max)
    rng = np.arange(-k_max, k_max + 1)
    m = np.array([mm for mm in itertools.product(rng, repeat=3) if any(mm)])
    kv = 2.0 * math.pi * m.astype(float)
    knorm = np.linalg.norm(kv, axis=1)

    eps = cfg.eps
    hats = mollifier_hat(eps * knorm / 10.0)

    s_vals = reduced_sum(eps, kv)
    moments = rho.kernel_moment(kv / cfg.ell, n_grid)
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
# grid sampling


def _tile_nodes(verts, rs, spec):
    """The nodes of a grid inside T', the tile with each face pushed out by rs.

    They are found column by column: over each (x, y) node of the box of
    T' (widened by 2 cells and clipped to the grid) the four conditions
    n_f.x < o_f + rs, each loosened by 1e-9 of the tile scale against
    rounding, bound z to one interval.  The convolved indicator and its
    gradient are 0 at every other node, as a pointwise evaluation gives.

    Returns the box slices, the indices (ix, iy, iz) of the nodes within
    the box in C order, and the nodes' (n, 3) coordinates.
    """
    key = _vertex_key(verts)
    lo, hi = _reach_box(key, rs)
    box = tuple(
        slice(max(math.floor((lo[a] - spec.origin[a]) / spec.spacing[a]) - 2, 0),
              max(math.ceil((hi[a] - spec.origin[a]) / spec.spacing[a]) + 3, 0))
        for a in range(3))
    xs, ys, zs = (ax[s] for ax, s in zip(spec.axes(), box))

    normals, offsets = _face_frames(key)[:2]
    reach = offsets + rs + 1e-9 * (float(np.max(np.abs(verts))) + rs)
    z_lo = np.full((len(xs), len(ys)), -np.inf)
    z_hi = np.full((len(xs), len(ys)), np.inf)
    for n, r in zip(normals, reach):
        bound = r - n[0] * xs[:, None] - n[1] * ys[None, :]  # n_z z < bound
        if n[2] > 0.0:
            z_hi = np.minimum(z_hi, bound / n[2])
        elif n[2] < 0.0:
            z_lo = np.maximum(z_lo, bound / n[2])
        else:
            z_hi[bound <= 0.0] = -np.inf
    start = np.searchsorted(zs, z_lo.ravel(), "left")
    count = np.maximum(np.searchsorted(zs, z_hi.ravel(), "right") - start, 0)
    col = np.repeat(np.arange(len(count)), count)
    iz = np.arange(len(col)) - np.repeat(np.cumsum(count) - count - start, count)
    ix, iy = np.divmod(col, len(ys))
    return box, (ix, iy, iz), np.stack([xs[ix], ys[iy], zs[iz]], axis=1)


def sample_field(cfg, j, spec, kind="chi"):
    """Sample chi_j or xi_j on a grid, returning a ScalarField.

    Only the nodes _tile_nodes finds inside T' are evaluated; every other
    node is 0.
    """
    if kind not in ("chi", "xi"):
        raise ValueError(f"kind must be 'chi' or 'xi', got {kind!r}")
    box, idx, pts = _tile_nodes(_tile_vertices(cfg, j, kind == "chi"), cfg.smear_radius, spec)
    values = np.zeros(spec.dims)
    values[box][idx] = chi_values(cfg, j, pts) if kind == "chi" else xi_values(cfg, j, pts)
    return field.ScalarField(spec, values)
