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
    mass = tiling.chi_mass(cfg, 1, n=128)
    assert mass == pytest.approx(4.0**3 / 24.0, rel=1e-4)


def test_sqrt_chi_gradient_scaling():
    """int |grad sqrt(chi)|^2 = K ell^2/delta with K self-similar at fixed eps."""
    a = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(4.0, 0.5), 1)
    b = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(8.0, 1.0), 1)
    assert b == pytest.approx(2.0 * a, rel=1e-9)
    for ell, delta in ((4.0, 0.5), (4.0, 1.0), (6.0, 0.5)):
        v = tiling.sqrt_chi_grad_norm(tiling.TilingConfig(ell, delta), 1)
        assert 7.0 < v * delta / ell**2 < 10.0


def test_mollifier_mass():
    from scipy.integrate import quad

    val, _ = quad(lambda r: 4.0 * math.pi * r**2 * tiling.mollifier_value(r),
                  0.0, 1.0, epsabs=1e-13)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_tetra_fourier_volume_at_zero():
    ref = tiling.unit_cube_tetrahedra()[0]
    got = tiling.tetra_fourier(ref.vertices, np.zeros(3))
    assert got == pytest.approx((2.0 * math.pi) ** -1.5 / 24.0, rel=1e-12)


def test_tetra_fourier_confluent_rows_match_per_row_expm():
    """The stacked matrix exponential equals one expm call per confluent row,
    bit for bit, on the contracted tiles of a k_max = 3, eps = 0.15 sum."""
    from scipy.linalg import expm

    eps = 0.15
    m = np.array([mm for mm in itertools.product(range(-3, 4), repeat=3) if any(mm)])
    kv = 2.0 * math.pi * m
    n_confluent = 0
    for tile in tiling.unit_cube_tetrahedra():
        verts = tile.centroid + (1.0 - eps) * (tile.vertices - tile.centroid)
        got = tiling._tetra_fourier_batch(verts, kv)
        vol = abs(tiling._signed_volume(verts))
        for i, a in enumerate(kv @ verts.T):
            gaps = np.abs(a[:, None] - a[None, :]) + 4.0 * np.eye(4)
            if gaps.min() >= tiling._SEP_THRESHOLD:
                continue
            n_confluent += 1
            z = np.diag(-1j * a) + np.diag(np.ones(3), 1)
            assert got[i] == tiling._UNITARY * (6.0 * vol * expm(z)[0, 3]), (tile, i)
    assert n_confluent == 4944


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
    """The averaged-cutoff identity is exact once the tau step resolves the
    smearing radius delta/10 (n_tau = 64 here reaches 4e-16), but a fixed
    16-node rule leaves an aliasing residual of 6.0e-2 at these scales.  The
    1e-4 claim for n_tau = 16 is kept as stated and fails honestly."""
    cfg = tiling.TilingConfig(4.0, 0.5)
    rng = np.random.default_rng(99)
    pts = rng.uniform(-2.0, 2.0, size=(6, 3))
    res = tiling.partition_residual(cfg, 16, pts)
    assert res <= 1e-4


def test_partition_residual_gate():
    cfg = tiling.TilingConfig(4.0, 1.0)
    with pytest.raises(ValueError):
        tiling.partition_residual(cfg, 4, np.zeros((1, 3)))


def test_direct_error_gates_and_zero():
    cfg = tiling.TilingConfig(4.0, 0.4)
    zero = field.Density.gaussian(1.0, 0.0)
    assert tiling.tiling_direct_error(zero, cfg, 3, n_grid=16) == 0.0
    with pytest.raises(ValueError):
        tiling.tiling_direct_error(zero, cfg, 2)


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
