import itertools
import math

import numpy as np
import pytest
import scipy.fft

from ldacert import coulomb, field


def test_hartree_gaussian():
    rho = field.Density.gaussian(1.0, 1.0)
    got = coulomb.hartree(rho, field.default_grid(rho, 64))
    want = field.gaussian_hartree(1.0, 1.0)
    assert got == pytest.approx(want, rel=5e-3)


def test_hartree_mass_squared_scaling():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 32)
    d1 = coulomb.hartree(rho, spec)
    d3 = coulomb.hartree(rho.scaled(3.0), spec)
    assert d3 == pytest.approx(9.0 * d1, rel=1e-10)


def test_support_check_raises():
    # half-width 2 sigma leaves visible mass on the box boundary
    rho = field.Density.gaussian(1.0, 1.0)
    tight = field.GridSpec((32, 32, 32), (4.0 / 31,) * 3, (-2.0, -2.0, -2.0))
    with pytest.raises(field.SupportError):
        coulomb.hartree(rho, tight)


def test_kernel_moment_zero_matches_hartree():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 32)
    num = coulomb.hartree(rho, spec)
    mom = coulomb.kernel_moment(rho, np.zeros((1, 3)), spec)
    assert 2.0 * math.pi * float(np.real(mom)) == pytest.approx(num, rel=1e-10)


def _truncated_kernel(psq, radius):
    out = np.full_like(psq, 0.5 * radius**2)
    nz = psq > 0.0
    out[nz] = (1.0 - np.cos(radius * np.sqrt(psq[nz]))) / psq[nz]
    return out


def _padded_geometry(spec):
    shape = tuple(2 * n for n in spec.dims)
    fx, fy, fz = (2.0 * math.pi * np.fft.fftfreq(n, d=h)
                  for n, h in zip(shape, spec.spacing))
    return shape, fx, fy, fz, float(np.linalg.norm(spec.box_lengths))


def _hartree_reference(fld):
    """Full complex FFT of the hand-padded field, kernel built in place."""
    shape, fx, fy, fz, radius = _padded_geometry(fld.spec)
    n1, n2, n3 = fld.spec.dims
    padded = np.zeros(shape)
    padded[:n1, :n2, :n3] = fld.values
    psq = fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz[None, None, :] ** 2
    kernel = 4.0 * math.pi * _truncated_kernel(psq, radius)
    pot = np.fft.ifftn(np.fft.fftn(padded) * kernel).real[:n1, :n2, :n3]
    return 0.5 * fld.spec.cell_volume * float(np.sum(fld.values * pot))


@pytest.mark.parametrize("rho", [field.Density.gaussian(1.0, 1.0),
                                 field.Density.compact_bump(1.0, 1.3)],
                         ids=["gaussian", "compact_bump"])
def test_hartree_matches_complex_fft_reference(rho):
    fld = field.density_to_field(rho, field.default_grid(rho, 32))
    assert coulomb.hartree(fld) == pytest.approx(_hartree_reference(fld), rel=1e-13)


def test_hartree_builds_kernel_once_per_grid(monkeypatch):
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 24)
    builds = []

    def counting(psq, radius):
        builds.append(psq.shape)
        return kernel_values(psq, radius)

    kernel_values = coulomb._kernel_values
    monkeypatch.setattr(coulomb, "_kernel_values", counting)
    coulomb._engine.cache_clear()
    values = []
    for workers in ("1", "2", "1"):
        monkeypatch.setenv("LDA_CERT_THREADS", workers)
        values.append(coulomb.hartree(rho, spec))
    # the non-negative-frequency octant of the padded reciprocal grid
    assert builds == [(25, 25, 25)]
    assert values[0] == values[1] == values[2]


def _potential_reference(values, spec):
    """The unpruned transform: rfftn of the whole padded box, kernel,
    irfftn of the whole padded box, crop."""
    engine = coulomb._engine(spec)
    n1, n2, n3 = spec.dims
    coeffs = scipy.fft.rfftn(values, s=engine.shape, axes=(-3, -2, -1)) * engine.kernel
    return scipy.fft.irfftn(coeffs, s=engine.shape, axes=(-3, -2, -1))[..., :n1, :n2, :n3]


@pytest.mark.parametrize("dims", [(17, 24, 9), (16, 16, 16), (15, 15, 15)])
@pytest.mark.parametrize("stack", [(), (2,)], ids=["single", "stacked"])
def test_potential_equals_unpruned_transform(dims, stack):
    spec = field.GridSpec(dims, (0.11, 0.07, 0.13), (-1.0, -0.8, -0.6))
    values = np.random.default_rng(sum(dims)).uniform(size=stack + dims)
    got = coulomb._potential(values, spec)
    assert got.shape == values.shape
    np.testing.assert_array_equal(got, _potential_reference(values, spec))


def _sparse_values(dims, stack, blocks, seed):
    """Random values on the given index blocks of each stack member, 0
    elsewhere; blocks holds one tuple of slices per member."""
    rng = np.random.default_rng(seed)
    values = np.zeros(stack + dims)
    for member, block in zip(np.ndindex(stack), blocks):
        values[member + block] = rng.uniform(0.1, 1.0, size=values[member + block].shape)
    return values


SPARSE_CASES = {
    # a sub-box at an interior offset
    "interior": ((), [np.s_[3:9, 5:14, 2:7]]),
    # touching the x = 0 and x = n1 - 1 faces, y and z in between
    "opposite_faces": ((), [np.s_[[0, -1], 4:9, 1:5]]),
    "one_node": ((), [np.s_[5:6, 7:8, 3:4]]),
    "stack": ((3,), [np.s_[1:4, 2:5, :], np.s_[8:11, 9:13, 1:3], np.s_[6:7, 2:3, 4:5]]),
}


@pytest.mark.parametrize("dims", [(17, 24, 9), (11, 15, 13), (16, 16, 16)])
@pytest.mark.parametrize("case", SPARSE_CASES)
def test_pruned_potential_equals_unpruned_on_the_support(dims, case):
    stack, blocks = SPARSE_CASES[case]
    spec = field.GridSpec(dims, (0.11, 0.07, 0.13), (-1.0, -0.8, -0.6))
    values = _sparse_values(dims, stack, blocks, seed=sum(dims))
    got = coulomb._potential(values, spec)
    want = _potential_reference(values, spec)
    assert got.shape == values.shape

    # the x and y extent of the nonzero values over the stack; z lines stay whole
    nonzero = np.any(values != 0, axis=tuple(range(len(stack))))
    xs, ys, _ = np.nonzero(nonzero)
    box = np.s_[xs.min():xs.max() + 1, ys.min():ys.max() + 1, :]
    np.testing.assert_array_equal(got[..., box[0], box[1], :], want[..., box[0], box[1], :])
    outside = np.ones(dims, dtype=bool)
    outside[box] = False
    assert not np.any(got[..., outside])
    np.testing.assert_array_equal(values * got, values * want)


def test_hartree_of_zero_field_is_zero():
    spec = field.GridSpec((12, 10, 9), (0.2, 0.2, 0.2))
    assert coulomb.hartree(field.ScalarField(spec, np.zeros(spec.dims))) == 0.0


def _direct_half_grid_kernel(freqs, radius):
    """The kernel evaluated at every point of the rfftn half-grid."""
    fx, fy, fz = freqs
    fz_half = fz[: len(fz) // 2 + 1]
    psq = fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz_half[None, None, :] ** 2
    return 4.0 * math.pi * coulomb._kernel_values(psq, radius)


@pytest.mark.parametrize("shape", [(8, 12, 10), (9, 15, 7), (10, 7, 11)],
                         ids=["even", "odd", "mixed"])
def test_mirrored_kernel_equals_direct_evaluation(shape):
    freqs = [2.0 * math.pi * np.fft.fftfreq(n, d=h) for n, h in zip(shape, (0.3, 0.2, 0.25))]
    np.testing.assert_array_equal(coulomb._half_grid_kernel(freqs, 1.7),
                                  _direct_half_grid_kernel(freqs, 1.7))


def test_engine_kernel_equals_direct_evaluation():
    engine = coulomb._Engine(field.GridSpec((9, 12, 7), (0.3, 0.2, 0.25)))
    np.testing.assert_array_equal(engine.kernel,
                                  _direct_half_grid_kernel(engine.freqs, engine.radius))


def test_kernel_moment_pairs_match_unpaired_reference():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 32)
    fld = field.density_to_field(rho, spec)
    m = np.array([mm for mm in itertools.product((-1, 0, 1), repeat=3) if any(mm)])
    kvecs = (2.0 * math.pi / 4.0) * m
    got = coulomb.kernel_moment(fld, kvecs)

    shape, fx, fy, fz, radius = _padded_geometry(spec)
    asq = np.abs(scipy.fft.fftn(fld.values, s=shape) * spec.cell_volume) ** 2
    vol_pad = spec.cell_volume * float(np.prod(shape))
    for k, value in zip(kvecs, got):
        psq = ((fx[:, None, None] - k[0]) ** 2 + (fy[None, :, None] - k[1]) ** 2
               + (fz[None, None, :] - k[2]) ** 2)
        want = float(np.sum(asq * _truncated_kernel(psq, radius))) / vol_pad
        assert value == pytest.approx(want, rel=1e-14), k


@pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
def test_annulus_quadrature_vs_antiderivative(alpha):
    for r in (0.0, 0.4, 1.0 / (1.0 + alpha), 1.0, 1.0 / (1.0 - alpha), 2.5, 7.0):
        a = coulomb.annulus_conv(r, alpha)
        b = coulomb.annulus_conv_exact(r, alpha)
        assert a == pytest.approx(b, rel=1e-9), f"r={r}"


def test_annulus_center_value():
    alpha = 0.3
    want = 8.0 * math.pi * alpha / (1.0 - alpha**2)
    assert coulomb.annulus_conv(0.0, alpha) == pytest.approx(want, rel=1e-13)


def test_annulus_gates():
    with pytest.raises(ValueError):
        coulomb.annulus_conv(1.0, 0.6)
    with pytest.raises(ValueError):
        coulomb.annulus_conv(-0.5, 0.25)


def test_annulus_sup_grid_contract():
    with pytest.raises(ValueError):
        coulomb.annulus_sup(0.25, np.linspace(0.0, 4.0, 100))  # too short


def test_periodic_identity_one_mode():
    rho = field.Density.gaussian(1.0, 1.0)
    coeffs = {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j}
    lhs, rhs = coulomb.periodic_localization_identity(
        rho, coeffs, ell=16.0, spec=field.default_grid(rho, 32))
    assert lhs == pytest.approx(rhs, rel=1e-2)


def test_periodic_identity_rejects_non_hermitian():
    rho = field.Density.gaussian(1.0, 1.0)
    with pytest.raises(ValueError):
        coulomb.periodic_localization_identity(
            rho, {(1, 0, 0): 1.0 + 0.5j}, ell=16.0,
            spec=field.default_grid(rho, 24))


def _periodic_identity_lhs_reference(rho, f_coeffs, ell, spec, n_tau):
    """The lhs by brute force: one hartree call per Gauss node on the
    shifted field Re(sum_m c_m e^{2i pi m.(x - tau)/ell}) rho(x)."""
    fld = field.density_to_field(rho, spec)
    nodes, weights = np.polynomial.legendre.leggauss(n_tau)
    tau_ax = 0.5 * ell * (nodes + 1.0)
    w_ax = 0.5 * weights
    xg, yg, zg = spec.meshgrid()
    lhs = 0.0
    for (t1, w1), (t2, w2), (t3, w3) in itertools.product(zip(tau_ax, w_ax), repeat=3):
        f_vals = np.zeros(spec.dims, dtype=complex)
        for m, c in f_coeffs.items():
            phase = (2.0 * math.pi / ell) * (
                m[0] * (xg - t1) + m[1] * (yg - t2) + m[2] * (zg - t3))
            f_vals += c * np.exp(1j * phase)
        shifted = field.ScalarField(spec, f_vals.real * fld.values)
        lhs += w1 * w2 * w3 * coulomb.hartree(shifted)
    return lhs


def test_periodic_identity_matches_brute_force_average():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 16)
    coeffs = {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j,
              (2, -1, 1): 0.1 - 0.25j, (-2, 1, -1): 0.1 + 0.25j}
    lhs, rhs = coulomb.periodic_localization_identity(rho, coeffs, ell=12.0, spec=spec, n_tau=9)
    want = _periodic_identity_lhs_reference(rho, coeffs, 12.0, spec, 9)
    assert lhs == pytest.approx(want, rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-2)


def test_periodic_identity_checks_every_shifted_field():
    # The unshifted density keeps 3.1e-7 of its mass on the boundary layer,
    # under the 1e-6 limit; f(x - tau) = 1 - cos(2 pi (x - tau)/ell) nearly
    # vanishes at the centre for the first node and lifts the x faces, so a
    # shifted field holds 2.4e-6 there.
    rho = field.Density.gaussian(1.0, 1.0)
    half = 5.5
    spec = field.GridSpec((24, 24, 24), (2.0 * half / 23,) * 3, (-half,) * 3)
    coulomb.hartree(rho, spec)
    coeffs = {(0, 0, 0): 1.0, (1, 0, 0): -0.5, (-1, 0, 0): -0.5}
    with pytest.raises(field.SupportError):
        coulomb.periodic_localization_identity(rho, coeffs, ell=4.0 * half, spec=spec)
