import hashlib
import itertools
import math

import numpy as np
import pytest

from ldacert import field, tiling


def test_24_volumes():
    tiles = tiling.unit_cube_tetrahedra()
    assert len(tiles) == 24
    for t in tiles:
        assert t.volume == pytest.approx(1.0 / 24.0, abs=1e-14)


def test_exact_cover():
    rng = np.random.default_rng(321)
    pts = rng.uniform(-0.5, 0.5, size=(4000, 3))
    counts = np.zeros(len(pts), dtype=int)
    for t in tiling.unit_cube_tetrahedra():
        counts += t.contains(pts)
    assert np.mean(counts == 1) >= 0.999


def test_config_gates():
    with pytest.raises(ValueError):
        tiling.TilingConfig(4.0, 2.0)  # delta = ell/2 is out
    with pytest.raises(ValueError):
        tiling.TilingConfig(4.0, 0.0)
    cfg = tiling.TilingConfig(4.0, 1.0)
    assert cfg.eps == pytest.approx(0.25)
    assert cfg.smear_radius == pytest.approx(0.1)


def test_tile_index_gate():
    cfg = tiling.TilingConfig(4.0, 1.0)
    pts = np.zeros((1, 3))
    with pytest.raises(ValueError):
        tiling.xi_values(cfg, 0, pts)
    with pytest.raises(ValueError):
        tiling.xi_values(cfg, 25, pts)


def test_xi_partition_of_unity():
    """Points > delta/10 inside the cell see only its own 24 tiles."""
    cfg = tiling.TilingConfig(4.0, 1.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.8, 1.8, size=(50, 3))
    total = np.zeros(len(pts))
    for j in range(1, 25):
        total += tiling.xi_values(cfg, j, pts)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_chi_tau_average_normalization():
    # int chi_j = ell^3/24 (the tau-average normalization)
    cfg = tiling.TilingConfig(4.0, 1.0)
    mass = tiling.chi_mass(cfg, 1)
    assert mass == pytest.approx(4.0**3 / 24.0, rel=1e-4)


def test_sqrt_chi_gradient_scaling():
    """int |grad sqrt(chi)|^2 = K ell^2/delta with K self-similar at fixed eps."""
    a = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(4.0, 0.5), 1)
    b = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(8.0, 1.0), 1)
    assert b == pytest.approx(2.0 * a, rel=1e-9)
    for ell, delta in ((4.0, 0.5), (4.0, 1.0), (6.0, 0.5)):
        v = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(ell, delta), 1)
        assert 7.0 < v * delta / ell**2 < 10.0


@pytest.mark.parametrize("ell,delta", [(4.0, 1.0), (4.0, 0.1), (6.0, 0.5), (10.0, 4.9)])
def test_chi_mass_is_the_tile_volume(ell, delta):
    """int chi_j = ell^3/24, from the tile table; (10, 4.9) lies near
    delta = ell/2, where the shrunk tile spans lam = 10.4 smearing radii."""
    cfg = tiling.TilingConfig(ell, delta)
    assert tiling.chi_mass(cfg, 1) == pytest.approx(ell**3 / 24.0, rel=1e-8)
    # chi_mass and sqrt_chi_grad_norm read the certificates' mass and kin, bit for bit
    rs, shrink = cfg.smear_radius, (1.0 - cfg.eps) ** 3
    integrals = tiling._tile_integrals((1.0 - cfg.eps) * ell / rs, 0.5, 4.0)
    assert tiling.chi_mass(cfg, 1) == rs**3 * integrals["mass"] / shrink
    assert tiling.sqrt_chi_grad_norm(cfg, 1) == rs * integrals["kin"] / shrink
    for j in (0, 25):
        with pytest.raises(ValueError):
            tiling.chi_mass(cfg, j)


def test_mollifier_mass():
    from scipy.integrate import quad

    val, _ = quad(lambda r: 4.0 * math.pi * r**2 * tiling.mollifier_value(r),
                  0.0, 1.0, epsabs=1e-13)
    assert val == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("s", [1e-3, 0.5, 2.0, 5.0, 20.0, 79.0, 81.0, 200.0, 400.0])
def test_mollifier_hat_matches_quadpack(s):
    """The Gauss-rule transform against QUADPACK's sin-weighted rule."""
    from scipy.integrate import quad

    val, _ = quad(lambda r: tiling.mollifier_value(r) * r, 0.0, 1.0,
                  weight="sin", wvar=s, epsabs=1e-14, limit=200)
    ref = 4.0 * math.pi * (2.0 * math.pi) ** -1.5 * val / s
    assert tiling.mollifier_hat(s) == pytest.approx(ref, rel=0.0, abs=1e-15)


def test_mollifier_hat_contract():
    assert tiling.mollifier_hat(0.0) == (2.0 * math.pi) ** -1.5
    s = np.array([[0.0, 0.3], [2.5, 90.0]])
    got = tiling.mollifier_hat(s)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    assert np.array_equal(tiling.mollifier_hat(-s), got)
    assert type(tiling.mollifier_hat(2.5)) is float
    assert tiling.mollifier_hat(-2.5) == tiling.mollifier_hat(2.5)
    assert abs(tiling.mollifier_hat(1e-8) / tiling.mollifier_hat(0.0) - 1.0) <= 1e-15


def test_mollifier_hat_keeps_its_rule():
    """The cached rule gives the bits of a rule built at the call."""
    x, w = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (x + 1.0)
    f = tiling.mollifier_value(x) * x * (0.5 * w)
    s = np.concatenate([[1e-8, 1e-3], np.linspace(0.1, 500.0, 301)])
    want = tiling._UNITARY * (np.sin(np.multiply.outer(s, x)) @ f) / (s * (f @ x))
    assert np.array_equal(tiling.mollifier_hat(s), want)
    rule = tiling._mollifier_rule()
    assert rule[2] == f @ x
    for arr in rule[:2]:
        assert not arr.flags.writeable


def test_tetra_fourier_volume_at_zero():
    ref = tiling.unit_cube_tetrahedra()[0]
    got = tiling.tetra_fourier(ref.vertices, np.zeros(3))
    assert got == pytest.approx((2.0 * math.pi) ** -1.5 / 24.0, rel=1e-12)
    with pytest.raises(ValueError, match="finite"):
        tiling.tetra_fourier(ref.vertices, [np.nan, 0.0, 0.0])


def _hermite_genocchi(a, n=32):
    """exp[z_0, .., z_3] at z_j = -i a_j for each row of a, as the simplex
    integral of exp(sum_j t_j z_j): a Duffy-collapsed n^3 Gauss-Legendre
    rule, t = (1 - u, u(1 - v), uv(1 - w), uvw) with Jacobian u^2 v."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V, W = np.meshgrid(x, x, x, indexing="ij")
    t = np.stack([1.0 - U, U * (1.0 - V), U * V * (1.0 - W), U * V * W], axis=-1)
    wt = (w[:, None, None] * w[None, :, None] * w[None, None, :] * U * U * V).ravel()
    phase = a @ t.reshape(-1, 4).T
    return np.cos(phase) @ wt - 1j * (np.sin(phase) @ wt)


@pytest.mark.parametrize("k_max,eps", [(3, 0.15), (3, 0.1), (4, 0.1), (4, 0.025)])
def test_tetra_fourier_matches_hermite_genocchi(k_max, eps):
    """Contracted tiles of a lattice sum against an independent simplex
    quadrature, on a seeded sample of the rows: phases that coincide
    exactly, phases within 0.05 of each other (on these lattices only
    rounding apart), the widest phase spreads and well separated phases."""
    m = np.array([mm for mm in itertools.product(range(-k_max, k_max + 1), repeat=3)
                  if any(mm)])
    kv = 2.0 * math.pi * m
    tiles = np.array([t.vertices for t in tiling.unit_cube_tetrahedra()])
    c = tiles.mean(axis=1, keepdims=True)
    verts = c + (1.0 - eps) * (tiles - c)
    vol = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / 6.0
    dd = (tiling._tetra_fourier_batch(verts, kv) / (6.0 * tiling._UNITARY * vol[:, None])).ravel()
    a = np.einsum("nd,tvd->tnv", kv, verts).reshape(-1, 4)

    gap = np.min(np.abs(a[:, :, None] - a[:, None, :]) + 4.0 * np.eye(4), axis=(1, 2))
    if (k_max, eps) == (3, 0.15):
        assert np.count_nonzero(gap < 0.05) == 4944
    rng = np.random.default_rng(k_max * 1000 + round(1000 * eps))
    rows = np.unique(np.concatenate([
        rng.choice(np.flatnonzero(gap == 0.0), 30, replace=False),
        rng.choice(np.flatnonzero((gap > 0.0) & (gap < 0.05)), 30, replace=False),
        rng.choice(np.flatnonzero(gap >= 0.05), 20, replace=False),
        np.argsort(np.ptp(a, axis=1))[-10:],
    ]))
    err = np.abs(dd[rows] - _hermite_genocchi(a[rows]))
    assert err.max() <= 1e-15, (rows[np.argmax(err)], err.max())


def _exp_divided_difference_matmul(z):
    # the reference: the Taylor sum as (n, 4, 4) matmuls by the bidiagonal a
    mean = z.mean(axis=1)
    w = z - mean[:, None]
    s = math.ceil(math.log2(np.max(np.abs(w) + (np.arange(4) > 0))))
    a = np.zeros((len(z), 4, 4), dtype=complex)
    a[:, np.arange(4), np.arange(4)] = w / 2.0**s
    a[:, np.arange(3), np.arange(1, 4)] = 2.0**-s
    e = np.eye(4) + a / 18.0
    for j in range(17, 0, -1):
        e = np.eye(4) + (a @ e) / j
    for _ in range(s):
        e = e @ e
    return np.exp(mean) * e[:, 0, 3]


@pytest.mark.parametrize("k_max,eps", [(3, 0.15), (4, 0.025)])
def test_exp_divided_difference_equals_matmul_taylor_sum(k_max, eps):
    """The elementwise Taylor sum adds the same two products in the same
    order as the matmul, so every row of a lattice sum is bit-identical."""
    m = np.array([mm for mm in itertools.product(range(-k_max, k_max + 1), repeat=3)
                  if any(mm)])
    tiles = np.array([t.vertices for t in tiling.unit_cube_tetrahedra()])
    c = tiles.mean(axis=1, keepdims=True)
    verts = c + (1.0 - eps) * (tiles - c)
    z = -1j * np.einsum("nd,tvd->tnv", 2.0 * math.pi * m, verts).reshape(-1, 4)
    np.testing.assert_array_equal(tiling._exp_divided_difference(z),
                                  _exp_divided_difference_matmul(z))


def test_exp_divided_difference_across_phase_gaps():
    """Rows with one pair of phases at gaps from 1e-9 to 0.5, just either
    side of 0.05 included, against the simplex quadrature."""
    rng = np.random.default_rng(2024)
    gaps = np.repeat([1e-9, 1e-4, 0.01, 0.049, 0.0499, 0.05, 0.0501, 0.051, 0.1, 0.5], 4)
    a = rng.uniform(-15.0, 15.0, size=(len(gaps), 4))
    a[:, 1] = a[:, 0] + gaps
    got = tiling._exp_divided_difference(-1j * a)
    assert np.abs(got - _hermite_genocchi(a)).max() <= 1e-15


def test_tetra_fourier_quadrature_oracle():
    """Duffy-collapsed 48^3 Gauss-Legendre quadrature of the same integral."""
    x, w = np.polynomial.legendre.leggauss(48)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V, W = np.meshgrid(x, x, x, indexing="ij")
    WT = w[:, None, None] * w[None, :, None] * w[None, None, :]
    A, B, C = U, U * V, U * V * W
    jac = U * U * V
    verts = tiling.unit_cube_tetrahedra()[0].vertices
    e1, e2, e3 = verts[1] - verts[0], verts[2] - verts[1], verts[3] - verts[2]
    P = (verts[0][None, None, None, :] + np.multiply.outer(A, e1)
         + np.multiply.outer(B, e2) + np.multiply.outer(C, e3))
    vol_jac = abs(np.linalg.det(np.stack([e1, e2, e3]).T))
    rng = np.random.default_rng(11)
    for _ in range(3):
        k = rng.normal(size=3) * 3.0
        oracle = (np.sum(np.exp(-1j * (P @ k)) * jac * WT) * vol_jac
                  * (2.0 * math.pi) ** -1.5)
        got = tiling.tetra_fourier(verts, k)
        assert abs(got - oracle) <= 1e-8 * abs(oracle)


def test_tetra_fourier_isometry_equivariance():
    verts = tiling.unit_cube_tetrahedra()[0].vertices
    rng = np.random.default_rng(3)
    k = rng.normal(size=3) * 2.0
    # 90-degree rotation about z plus a shift
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    a = np.array([0.3, -0.7, 1.1])
    lhs = tiling.tetra_fourier(verts @ R.T + a, k)
    rhs = np.exp(-1j * float(k @ a)) * tiling.tetra_fourier(verts, R.T @ k)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_tetra_fourier_vertex_relabeling():
    verts = tiling.unit_cube_tetrahedra()[0].vertices
    k = np.array([1.3, -2.1, 0.4])
    base = tiling.tetra_fourier(verts, k)
    assert tiling.tetra_fourier(verts[::-1], k) == pytest.approx(base, rel=1e-12)


def test_cube_fourier_lattice_zeros():
    for m in [(1, 0, 0), (1, 1, 1), (2, 1, 0)]:
        k = 2.0 * math.pi * np.asarray(m, dtype=float)
        assert abs(tiling.cube_fourier(k)) <= 1e-10


def test_reduced_sum_vanishes_at_zero_contraction():
    k = 2.0 * math.pi * np.array([1.0, 0.0, 0.0])
    assert abs(tiling.reduced_sum(0.0, k)) <= 1e-10
    with pytest.raises(ValueError):
        tiling.reduced_sum(0.5, k)
    with pytest.raises(ValueError):
        tiling.reduced_sum(0.1, np.zeros(3))
    with pytest.raises(ValueError):
        tiling.reduced_sum(0.1, np.array([np.nan, 0.0, 0.0]))


def test_reduced_sum_of_rows():
    ks = 2.0 * math.pi * np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, -1.0, 1.0]])
    rows = tiling.reduced_sum(0.1, ks)
    assert rows.shape == (3,)
    np.testing.assert_allclose(rows, [tiling.reduced_sum(0.1, k) for k in ks],
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        tiling.reduced_sum(0.1, np.vstack([ks, np.zeros(3)]))


def _lattice(k_max):
    """The wave vectors 2 pi m with 0 < |m|_inf <= k_max."""
    rng = np.arange(-k_max, k_max + 1)
    m = np.array([mm for mm in itertools.product(rng, repeat=3) if any(mm)])
    return 2.0 * math.pi * m.astype(float)


def _contracted_tiles(eps):
    tiles = np.array([t.vertices for t in tiling.unit_cube_tetrahedra()])
    c = tiles.mean(axis=1, keepdims=True)
    return c + (1.0 - eps) * (tiles - c)


def _reduced_sum_of_every_tile(eps, kv):
    """S(eps, k) with each of the 24 contracted tiles transformed."""
    return tiling._tetra_fourier_batch(_contracted_tiles(eps), kv).sum(axis=0) / (1.0 - eps) ** 3


def test_tile_symmetries_map_tile_1_onto_every_tile():
    table = tiling._tile_symmetries()
    assert table.shape == (24, 3, 3) and table.dtype.kind == "i"
    assert not table.flags.writeable
    assert len({g.tobytes() for g in table}) == 24
    tiles = np.array([t.vertices for t in tiling.unit_cube_tetrahedra()])
    for t, g in enumerate(table):
        assert np.array_equal(g @ g.T, np.eye(3, dtype=int))
        assert (tiles[0] @ g.T).tobytes() == tiles[t].tobytes()
    for eps in (0.0, 0.05, 0.15, 0.3, 0.49):
        shrunk = _contracted_tiles(eps)
        for t, g in enumerate(table):
            assert (shrunk[0] @ g.T).tobytes() == shrunk[t].tobytes()


def _not_closed_subset():
    kv = _lattice(3)
    sub = kv[np.random.default_rng(3).choice(len(kv), 20, replace=False)]
    m = np.round(sub / (2.0 * math.pi)).astype(int)
    orbit = {tuple(r) for r in (m @ tiling._tile_symmetries()).reshape(-1, 3)}
    assert len(orbit) > len(sub)
    return sub


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.49])
def test_reduced_sum_matches_every_tile_transform(eps):
    for kv in (_lattice(3), _lattice(4), _not_closed_subset()):
        got = tiling.reduced_sum(eps, kv)
        assert got.shape == (len(kv),)
        np.testing.assert_allclose(got, _reduced_sum_of_every_tile(eps, kv), rtol=0, atol=1e-16)
    for m in [(1, 0, 0), (0, -2, 1), (3, 1, -2), (4, 4, 4)]:
        k = 2.0 * math.pi * np.array(m, dtype=float)
        got = tiling.reduced_sum(eps, k)
        assert np.ndim(got) == 0
        assert abs(got - _reduced_sum_of_every_tile(eps, k)[0]) <= 1e-16


def test_orbit_transforms_are_each_tiles_transform():
    """Row t is tile t's own transform, which moment_M weighs by its centroid
    (the sum over the 24 rows would not tell g_t from its inverse)."""
    kv = _not_closed_subset()
    m = np.round(kv / (2.0 * math.pi)).astype(int)
    for eps in (0.0, 0.2):
        shrunk = _contracted_tiles(eps)
        got = tiling._orbit_transforms(shrunk[0], m)
        np.testing.assert_allclose(got, tiling._tetra_fourier_batch(shrunk, kv), rtol=0, atol=1e-16)


def test_reduced_sum_transforms_one_row_per_orbit_vector(monkeypatch):
    rows = []
    batch = tiling._tetra_fourier_batch

    def spy(verts, kvecs):
        rows.append(np.shape(kvecs))
        return batch(verts, kvecs)

    monkeypatch.setattr(tiling, "_tetra_fourier_batch", spy)
    tiling.reduced_sum(0.1, _lattice(3))
    assert rows == [(342, 3)]


@pytest.mark.parametrize("delta", [0.4, 0.2, 0.1])
def test_direct_error_matches_every_tile_transform(delta, monkeypatch):
    rho = field.Density.gaussian(1.0, 1.0)
    cfg = tiling.TilingConfig(4.0, delta)
    got = tiling.tiling_direct_error(rho, cfg, 4)
    monkeypatch.setattr(tiling, "reduced_sum", _reduced_sum_of_every_tile)
    want = tiling.tiling_direct_error(rho, cfg, 4)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_reduced_sum_linear_rate():
    k = 2.0 * math.pi * np.array([1.0, 0.0, 0.0])
    vals = [abs(tiling.reduced_sum(e, k)) for e in (0.2, 0.1, 0.05)]
    r1, r2 = vals[0] / vals[1], vals[1] / vals[2]
    assert 1.5 < r1 < 2.5 and 1.5 < r2 < 2.5


def test_reduced_sum_derivative_matches_moment():
    """(2pi)^{3/2} S(eps, k)/eps -> i k.M(k) as eps -> 0."""
    m = np.array([0.0, 0.0, 3.0])
    k = 2.0 * math.pi * m
    kM = 1j * complex(np.dot(k, tiling.moment_M(k)))
    fd = (2.0 * math.pi) ** 1.5 * tiling.reduced_sum(1e-4, k) / 1e-4
    assert abs(fd - kM) <= 1e-3 * abs(kM)


def test_reduced_sum_fitted_constant_stability():
    """Fitted constant of |S|^2 <= C(eps^4 + eps^2 |k|^2 |M|^2).

    Factor-2 stability holds on the |m|_inf <= 2 lattice; on richer
    lattices the max-over-k switches mode family near eps ~ 0.04 and the
    fitted constant steps (see the project notes), so only boundedness is
    asserted there.
    """
    ms = [m for m in itertools.product(range(-2, 3), repeat=3) if any(m)]
    mnorm = {}
    for m in ms:
        k = 2.0 * math.pi * np.asarray(m, dtype=float)
        M = tiling.moment_M(k)
        mnorm[m] = float(np.vdot(M, M).real)
    fitted = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        best = 0.0
        for m in ms:
            k = 2.0 * math.pi * np.asarray(m, dtype=float)
            den = eps**4 + eps**2 * float(k @ k) * mnorm[m]
            best = max(best, abs(tiling.reduced_sum(eps, k)) ** 2 / den)
        fitted.append(best)
    for a, b in zip(fitted, fitted[1:]):
        assert max(a / b, b / a) <= 2.0
    assert max(fitted) < 0.05


def test_partition_residual_coarse_tau_rule():
    """A fixed 16-node tau rule (step 5 rs, rs = delta/10) leaves an
    aliasing residual of 6.0e-2 at these scales.  n_tau = 64 and 128 reach
    roundoff because every shrunk tile vertex then lies on the tau lattice,
    not because the step (1.25 rs at 64) resolves rs; 96 nodes, the first
    rule to resolve rs, leave 1.0e-5.  The 1e-4 claim for n_tau = 16 is
    kept as stated and fails honestly."""
    cfg = tiling.TilingConfig(4.0, 0.5)
    rng = np.random.default_rng(99)
    pts = rng.uniform(-2.0, 2.0, size=(6, 3))
    res = tiling.partition_residual(cfg, 16, pts)
    assert res <= 1e-4


def test_partition_residual_gate():
    cfg = tiling.TilingConfig(4.0, 1.0)
    with pytest.raises(ValueError):
        tiling.partition_residual(cfg, 4, np.zeros((1, 3)))


@pytest.mark.parametrize("j", [1, 10, 24])
def test_tile_distance_of_face_edge_and_vertex_points(j):
    """Points pushed out by t along a face normal, along the bisector of an
    edge's two face normals, or along the sum of a vertex's three face
    normals lie at distance t; inside points at distance 0."""
    verts = 4.0 * tiling.unit_cube_tetrahedra()[j - 1].vertices
    normals = []
    for i in range(4):
        a, b, c = (verts[k] for k in range(4) if k != i)
        n = np.cross(b - a, c - a)
        normals.append(n * np.sign(np.dot(n, a - verts[i])) / np.linalg.norm(n))
    normals = np.array(normals)  # outward normal of the face opposite vertex i
    pts, want = [], []
    for t in (1e-3, 0.3, 2.0):
        for i in range(4):
            pts.append(np.delete(verts, i, axis=0).mean(axis=0) + t * normals[i])
            d = np.delete(normals, i, axis=0).sum(axis=0)
            pts.append(verts[i] + t * d / np.linalg.norm(d))
            want += [t, t]
        for a, b in itertools.combinations(range(4), 2):
            d = np.delete(normals, [a, b], axis=0).sum(axis=0)
            pts.append(0.5 * (verts[a] + verts[b]) + t * d / np.linalg.norm(d))
            want.append(t)
    inner = verts.mean(axis=0) + 0.9 * (verts - verts.mean(axis=0))
    got = tiling._tile_distance(verts, np.concatenate([np.array(pts), inner]), 2.5)
    np.testing.assert_allclose(got[:-4], want, rtol=1e-12)
    assert np.all(got[-4:] == 0.0)
    # at cutoff 1 every point nearer than 1 keeps its bits; a point at t = 2
    # keeps them too or reads inf, and those along a face normal read inf
    cut = tiling._tile_distance(verts, np.concatenate([np.array(pts), inner]), 1.0)
    near = got < 1.0
    np.testing.assert_array_equal(cut[near], got[near])
    assert np.all((cut[~near] == got[~near]) | (cut[~near] == np.inf))
    assert np.all(cut[28 + 2 * np.arange(4)] == np.inf)  # t = 2 (14 points per t), faces


def _chi_sum_27_cells(cfg, pts):
    """Sum of chi_j over the 24 tiles of the 27 lattice cells around each
    point's own cell, cells outer and tiles inner."""
    base = np.round(pts / cfg.ell)
    acc = np.zeros(len(pts))
    for off in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        for j in range(1, 25):
            acc += tiling.chi_values(cfg, j, pts - cfg.ell * (base + np.array(off)))
    return acc


@pytest.mark.parametrize("ell,delta", [(4.0, 1.0), (4.0, 0.5), (2.0, 0.999), (1.0, 0.4999),
                                       (3.0, 0.03), (7.5, 3.7), (4.0, 4e-6)])
def test_partition_sum_is_the_own_cell_sum(ell, delta):
    """The 24 tiles of a point's own cell give the 27-cell chi sum bit for
    bit, at random points and on (or jittered about) cell faces, edges and
    corners; partition_residual keeps the 27-cell value."""
    cfg = tiling.TilingConfig(ell, delta)
    rng = np.random.default_rng(19)
    half = 0.5 * ell
    lattice = half * rng.integers(-3, 4, size=(60, 3))  # faces, edges, corners
    pts = np.concatenate([rng.uniform(-1.5 * ell, 1.5 * ell, size=(60, 3)), lattice,
                          lattice + rng.normal(scale=1e-9 * ell, size=lattice.shape),
                          lattice + rng.uniform(-0.05, 0.05, size=lattice.shape) * delta])
    local = pts - ell * np.round(pts / ell)
    own = sum(tiling.chi_values(cfg, j, local) for j in range(1, 25))
    assert np.array_equal(own, _chi_sum_27_cells(cfg, pts))

    x = rng.uniform(-ell, ell, size=(1, 3))
    axis = (np.arange(8) + 0.5) * (ell / 8)
    shifted = x - np.array(list(itertools.product(axis, repeat=3)))
    want = float(np.max(np.abs(_chi_sum_27_cells(cfg, shifted).mean() - 1.0)))
    assert tiling.partition_residual(cfg, 8, x) == want


def test_direct_error_gates_and_zero():
    cfg = tiling.TilingConfig(4.0, 0.4)
    zero = field.Density.gaussian(1.0, 0.0)
    assert tiling.tiling_direct_error(zero, cfg, 3, n_grid=16) == 0.0
    with pytest.raises(ValueError):
        tiling.tiling_direct_error(zero, cfg, 2)


def test_direct_error_detail():
    """detail=True returns the total, its shell sums, a geometric tail
    estimate from the last two shells and k_max."""
    rho = field.Density.gaussian(1.0, 1.0)
    cfg = tiling.TilingConfig(4.0, 0.4)
    for k_max in (3, 4):
        total, info = tiling.tiling_direct_error(rho, cfg, k_max, detail=True)
        assert total == tiling.tiling_direct_error(rho, cfg, k_max)
        shells = info["shell_sums"]
        assert sorted(shells) == list(range(1, k_max + 1)) and info["k_max"] == k_max
        assert math.fsum(shells.values()) == pytest.approx(total, rel=1e-13)
        last, prev = shells[k_max], shells[k_max - 1]
        r = last / prev
        assert 0.0 < r < 1.0
        assert info["tail_estimate"] == last * r / (1.0 - r)


def test_direct_error_monotone_in_delta():
    rho = field.Density.gaussian(1.0, 1.0)
    e_coarse = tiling.tiling_direct_error(rho, tiling.TilingConfig(4.0, 0.4),
                                          3, n_grid=16)
    e_fine = tiling.tiling_direct_error(rho, tiling.TilingConfig(4.0, 0.2),
                                        3, n_grid=16)
    assert 0.0 < e_fine < e_coarse


def test_sample_field_matches_pointwise():
    cfg = tiling.TilingConfig(4.0, 1.0)
    spec = field.GridSpec((9, 9, 9), (0.5, 0.5, 0.5), (-2.0, -2.0, -2.0))
    f = tiling.sample_field(cfg, 1, spec, kind="chi")
    X, Y, Z = spec.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    np.testing.assert_allclose(f.values.ravel(),
                               tiling.chi_values(cfg, 1, pts), atol=1e-12)
    with pytest.raises(ValueError):
        tiling.sample_field(cfg, 1, spec, kind="zeta")


# ell = 2 grids: one cuts through each of these tiles, one misses them, one
# puts nodes on the face planes and edge lines of every xi and chi tile
# (multiples of 1/16), and two coarse ones hold one or two nodes of T'
SAMPLE_GRIDS = {
    "clipping": field.GridSpec((23, 19, 21), (0.083, 0.091, 0.077), (-0.9, -1.1, -0.8)),
    "apart": field.GridSpec((6, 7, 5), (0.1, 0.1, 0.1), (9.0, 9.0, 9.0)),
    "planes": field.GridSpec((41, 41, 41), (0.0625,) * 3, (-1.25,) * 3),
    "coarse_a": field.GridSpec((4, 4, 4), (0.711,) * 3, (-0.359, -0.298, -0.778)),
    "coarse_b": field.GridSpec((4, 4, 4), (0.755,) * 3, (-0.604, -0.553, -0.143)),
}
# nonzero nodes of the coarse grids where T' holds one or two nodes
SAMPLE_NONZERO = {("coarse_a", 1, "xi"): 1, ("coarse_a", 7, "chi"): 1,
                  ("coarse_a", 24, "chi"): 1, ("coarse_b", 7, "chi"): 1,
                  ("coarse_b", 7, "xi"): 2}


@pytest.mark.parametrize("grid", SAMPLE_GRIDS)
@pytest.mark.parametrize("kind", ["chi", "xi"])
@pytest.mark.parametrize("j", [1, 7, 24])
def test_sample_field_equals_every_node_evaluation(j, kind, grid):
    """sample_field evaluates only the column nodes of T', and a lone one
    among the box nodes; every value equals the all-node evaluation."""
    cfg = tiling.TilingConfig(2.0, 0.5)
    spec = SAMPLE_GRIDS[grid]
    pts = np.stack([a.ravel() for a in spec.meshgrid()], axis=1)
    values = tiling.chi_values if kind == "chi" else tiling.xi_values
    want = values(cfg, j, pts).reshape(spec.dims)
    got = tiling.sample_field(cfg, j, spec, kind=kind).values
    np.testing.assert_array_equal(got, want)
    if grid in ("clipping", "planes"):
        assert got.any()
    elif grid == "apart":
        assert not got.any()
    elif (grid, j, kind) in SAMPLE_NONZERO:
        assert np.count_nonzero(got) == SAMPLE_NONZERO[grid, j, kind]


def _reach_box_case():
    cfg = tiling.TilingConfig(2.0, 0.5)
    verts = tiling._tile_vertices(cfg, 7, False)
    rs = cfg.smear_radius
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, size=(40000, 3))
    return verts, rs, pts


def test_reach_box_bounds_the_pushed_tile():
    verts, rs, pts = _reach_box_case()
    key = tiling._vertex_key(verts)
    lo, hi = tiling._reach_box(key, rs)
    normals, offsets = tiling._face_frames(key)[:2]
    inside = np.all(pts @ normals.T - offsets < rs, axis=1)
    assert np.all((pts[inside] >= lo) & (pts[inside] <= hi))
    # T' holds the tile widened by the ball of radius rs, and its corners
    # stay within a few rs of the tile's own
    assert np.all(lo <= verts.min(axis=0) - rs + 1e-15)
    assert np.all(hi >= verts.max(axis=0) + rs - 1e-15)
    assert np.all(lo >= verts.min(axis=0) - 5 * rs)
    assert np.all(hi <= verts.max(axis=0) + 5 * rs)


def test_edge_rule_near_edge_lines(monkeypatch):
    """Within rs/2 of the edge lines of tile 1 at 10 smearing radii, the
    32-node edge rule stays within 7e-5 in u and 3e-4/rs in grad u of the
    same function on 400 nodes (24 nodes err by 8.7e-5 and 4.0e-4/rs on
    these points)."""
    verts = 10.0 * tiling.unit_cube_tetrahedra()[0].vertices
    rng = np.random.default_rng(0)
    pts = []
    for a, b in itertools.combinations(range(4), 2):
        d = verts[b] - verts[a]
        off = rng.normal(size=(600, 3))
        off -= np.outer(off @ d / (d @ d), d)
        off *= rng.uniform(0.0, 0.5, size=(600, 1)) / np.linalg.norm(off, axis=1, keepdims=True)
        pts.append(verts[a] + rng.uniform(0.0, 1.0, size=(600, 1)) * d + off)
    pts = np.concatenate(pts)
    u, g = tiling.convolved_indicator(verts, 1.0, pts, want_grad=True)
    x, w = np.polynomial.legendre.leggauss(400)
    monkeypatch.setattr(tiling, "_GL_X", x)
    monkeypatch.setattr(tiling, "_GL_W", w)
    u_ref, g_ref = tiling.convolved_indicator(verts, 1.0, pts, want_grad=True)
    assert np.max(np.abs(u - u_ref)) <= 7e-5
    assert np.max(np.linalg.norm(g - g_ref, axis=1)) <= 3e-4


def test_convolved_indicator_prefilter_keeps_every_value():
    verts, rs, pts = _reach_box_case()
    lo, hi = tiling._reach_box(tiling._vertex_key(verts), rs)
    u, g = tiling.convolved_indicator(verts, rs, pts, want_grad=True)
    inbox = np.all((pts >= lo) & (pts <= hi), axis=1)
    assert not u[~inbox].any() and not g[~inbox].any()
    # the points outside the box were never active
    u_in, g_in = tiling.convolved_indicator(verts, rs, pts[inbox], want_grad=True)
    np.testing.assert_array_equal(u_in, u[inbox])
    np.testing.assert_array_equal(g_in, g[inbox])


def test_convolved_indicator_lone_box_point_keeps_its_value():
    # One in-box point among far points gets the value it has beside
    # in-box points that are not active: a box corner lies outside T'.
    verts, rs, pts = _reach_box_case()
    lo, _ = tiling._reach_box(tiling._vertex_key(verts), rs)
    u = tiling.convolved_indicator(verts, rs, pts)
    corner = np.tile(lo, (3, 1))
    assert not tiling.convolved_indicator(verts, rs, corner).any()
    far = np.full((3, 3), 50.0)
    for i in np.flatnonzero((u > 0.0) & (u < 1.0))[:300]:
        alone = tiling.convolved_indicator(verts, rs, np.vstack([pts[i], far]))
        beside = tiling.convolved_indicator(verts, rs, np.vstack([pts[i], corner]))
        assert alone[0] == beside[0]


def test_convolved_indicator_value_depends_on_its_point_alone():
    """u and grad u at 2,400 points of T' (tile 1, ell 2, rs 0.05): random
    points, points on the face planes (which take the nudge) and points
    within rs/2 of the edge lines.  One call, one-point calls, random
    chunkings and a permuted call give the same bits."""
    cfg = tiling.TilingConfig(2.0, 0.5)
    verts = tiling._tile_vertices(cfg, 1, False)
    rs = cfg.smear_radius
    lo, hi = tiling._reach_box(tiling._vertex_key(verts), rs)
    rng = np.random.default_rng(37)
    pts = [rng.uniform(lo, hi, size=(1200, 3))]
    for face in itertools.combinations(range(4), 3):
        pts.append(rng.dirichlet([1.0, 1.0, 1.0], size=150) @ verts[list(face)])
    for a, b in itertools.combinations(range(4), 2):
        d = verts[b] - verts[a]
        off = rng.normal(size=(100, 3))
        off -= np.outer(off @ d / (d @ d), d)
        off *= rng.uniform(0.0, 0.5 * rs, size=(100, 1)) / np.linalg.norm(off, axis=1, keepdims=True)
        pts.append(verts[a] + rng.uniform(0.0, 1.0, size=(100, 1)) * d + off)
    pts = np.concatenate(pts)
    u, g = tiling.convolved_indicator(verts, rs, pts, want_grad=True)
    assert np.count_nonzero((u > 0.0) & (u < 1.0)) > 1000

    def chunked(bounds):
        parts = [tiling.convolved_indicator(verts, rs, pts[a:b], want_grad=True)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    splits = [np.arange(len(pts) + 1)]
    for _ in range(2):
        cuts = np.cumsum(rng.integers(1, 65, size=len(pts)))
        splits.append(np.concatenate([[0], cuts[cuts < len(pts)], [len(pts)]]))
    for bounds in splits:
        uc, gc = chunked(bounds)
        np.testing.assert_array_equal(uc, u)
        np.testing.assert_array_equal(gc, g)
    perm = rng.permutation(len(pts))
    up, gp = tiling.convolved_indicator(verts, rs, pts[perm], want_grad=True)
    np.testing.assert_array_equal(up, u[perm])
    np.testing.assert_array_equal(gp, g[perm])


# sha256 of raw float64 bytes, as computed with every face term taken on
# every active point: smeared_tetra(1.7, 4, 1.98) sampled on its 170^3
# default grid, and xi_j with its gradient (tiles 1 and 7, ell 4, delta 1)
# at the points below
TETRA_SAMPLE_SHA256 = "2364e0753a018fd181fa20810ae9595bbc274e04aed75c2b20de4a9d03206567"
XI_GRAD_SHA256 = "b7ac65c2d266629e5b345060a774ef6123bb5eb50d505f75c4b255461d72ccef"


def test_smeared_tetra_sample_digest():
    rho = field.Density.smeared_tetra(1.7, 4.0, 1.98)
    spec = field.default_grid(rho)
    assert spec.dims == (170, 170, 170)
    digest = hashlib.sha256(rho.sample(spec).values.tobytes()).hexdigest()
    assert digest == TETRA_SAMPLE_SHA256


def test_xi_grad_values_digest():
    """Random points, points on every face plane and edge line of the tile
    (convex and affine combinations of its vertices), the vertices, and
    lattice points (multiples of 1/4), many of them on face planes."""
    cfg = tiling.TilingConfig(4.0, 1.0)
    rng = np.random.default_rng(20)
    digest = hashlib.sha256()
    for j in (1, 7):
        verts = tiling._tile_vertices(cfg, j, False)
        pts = [rng.uniform(-2.3, 2.3, size=(12000, 3)), verts,
               0.25 * rng.integers(-9, 10, size=(1500, 3))]
        for face in itertools.combinations(range(4), 3):
            pts.append(rng.dirichlet([1.0, 1.0, 1.0], size=600) @ verts[list(face)])
        for a, b in itertools.combinations(range(4), 2):
            t = rng.uniform(-0.3, 1.3, size=(300, 1))
            pts.append(verts[a] + t * (verts[b] - verts[a]))
        u, g = tiling.xi_grad_values(cfg, j, np.concatenate(pts))
        digest.update(u.tobytes())
        digest.update(g.tobytes())
    assert digest.hexdigest() == XI_GRAD_SHA256
