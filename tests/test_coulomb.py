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
    d3 = coulomb.hartree(field.Density.gaussian(1.0, 3.0), spec)
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


def _support_slices(values):
    """The bounding box of the nonzero values (a union over a stack),
    widened by one node and clipped to the grid."""
    nonzero = np.any(values != 0, axis=tuple(range(values.ndim - 3)))
    return tuple(slice(max(int(idx.min()) - 1, 0), min(int(idx.max()) + 2, n))
                 for idx, n in zip(np.nonzero(nonzero), nonzero.shape))


def _box_geometry(fld):
    """Support box, radius = its diagonal, and each axis padded to the
    smallest 5-smooth length P with P >= b - 1 + R/h, at most 2n."""
    box = _support_slices(fld.values)
    sizes = [s.stop - s.start for s in box]
    radius = float(np.linalg.norm([h * (b - 1) for b, h in zip(sizes, fld.spec.spacing)]))
    shape = tuple(min(scipy.fft.next_fast_len(math.ceil(b - 1 + radius / h), real=True), 2 * n)
                  for b, h, n in zip(sizes, fld.spec.spacing, fld.spec.dims))
    fx, fy, fz = (2.0 * math.pi * np.fft.fftfreq(n, d=h)
                  for n, h in zip(shape, fld.spec.spacing))
    return box, (shape, fx, fy, fz, radius)


def _hartree_reference(fld, box, geometry):
    """Full complex FFT of the hand-padded box values, kernel built in place."""
    shape, fx, fy, fz, radius = geometry
    sub = fld.values[box]
    n1, n2, n3 = sub.shape
    padded = np.zeros(shape)
    padded[:n1, :n2, :n3] = sub
    psq = fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz[None, None, :] ** 2
    kernel = 4.0 * math.pi * _truncated_kernel(psq, radius)
    pot = np.fft.ifftn(np.fft.fftn(padded) * kernel).real[:n1, :n2, :n3]
    return 0.5 * fld.spec.cell_volume * float(np.sum(sub * pot))


def _gaussian_case():
    # a field nonzero on every node keeps the whole-grid geometry: padded to
    # 2n, kernel truncated at the grid diagonal
    rho = field.Density.gaussian(1.0, 1.0)
    fld = field.density_to_field(rho, field.default_grid(rho, 32))
    return fld, tuple(slice(0, n) for n in fld.spec.dims), _padded_geometry(fld.spec)


def _bump_case():
    rho = field.Density.compact_bump(1.0, 1.3)
    fld = field.density_to_field(rho, field.default_grid(rho, 32))
    return (fld, *_box_geometry(fld))


def _wide_bump_case():
    # the support box spans about half of each axis, so P stays below 2n
    rho = field.Density.compact_bump(1.0, 1.3)
    spec = field.GridSpec((40, 40, 40), (4.2 / 39,) * 3, (-2.1, -2.1, -2.1))
    fld = field.density_to_field(rho, spec)
    box, geometry = _box_geometry(fld)
    assert all(p < 2 * n for p, n in zip(geometry[0], spec.dims))
    return fld, box, geometry


@pytest.mark.parametrize("case", [_gaussian_case, _bump_case, _wide_bump_case],
                         ids=["gaussian", "compact_bump", "wide_compact_bump"])
def test_hartree_matches_complex_fft_reference(case):
    fld, box, geometry = case()
    assert coulomb.hartree(fld) == pytest.approx(_hartree_reference(fld, box, geometry), rel=1e-13)


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
    values = [coulomb.hartree(rho, spec) for _ in range(3)]
    # the non-negative-frequency octant of the padded reciprocal grid
    assert builds == [(25, 25, 25)]
    assert values[0] == values[1] == values[2]
    # the engine is keyed on the support box: the same box reuses it, a
    # smaller box on the same grid builds its own, once
    coulomb.hartree(field.Density.gaussian(1.0, 3.0), spec)
    assert len(builds) == 1
    bump = field.Density.compact_bump(1.5, 1.0)
    coulomb.hartree(bump, spec)
    coulomb.hartree(field.Density.compact_bump(1.5, 2.0), spec)
    assert len(builds) == 2 and builds[1] != builds[0]


def _potential_reference(values, spec):
    """The unpruned transform on the support box: rfftn of the whole padded
    box, kernel, irfftn of the whole padded box, crop."""
    box = _support_slices(values)
    sub = values[(...,) + box]
    engine = coulomb._engine(sub.shape[-3:], spec.spacing, spec.dims)
    n1, n2, n3 = sub.shape[-3:]
    coeffs = scipy.fft.rfftn(sub, s=engine.shape, axes=(-3, -2, -1)) * engine.kernel
    pot = scipy.fft.irfftn(coeffs, s=engine.shape, axes=(-3, -2, -1))[..., :n1, :n2, :n3]
    return pot, box


@pytest.mark.parametrize("dims", [(17, 24, 9), (16, 16, 16), (15, 15, 15)])
@pytest.mark.parametrize("stack", [(), (2,)], ids=["single", "stacked"])
def test_potential_equals_unpruned_transform(dims, stack):
    spec = field.GridSpec(dims, (0.11, 0.07, 0.13), (-1.0, -0.8, -0.6))
    values = np.random.default_rng(sum(dims)).uniform(size=stack + dims)
    got, box = coulomb._potential(values, spec)
    want, want_box = _potential_reference(values, spec)
    # nonzero on every node: the box is the whole grid
    assert box == want_box == tuple(slice(0, n) for n in dims)
    assert got.shape == values.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_hartree_sums_in_the_order_of_the_full_transform(seed):
    # Fortran-ordered values, as read_grid returns a file's samples.  The
    # potential comes out C-ordered, as the full irfftn gives it, so
    # values * potential is summed in that order; with a Fortran-ordered
    # potential the product, and its sum, would run in Fortran order, and
    # the value of seed 4 would move by one ulp
    dims = (32, 32, 32)
    spec = field.GridSpec(dims, (0.11, 0.07, 0.13), (-1.0, -0.8, -0.6))
    values = np.zeros(dims, order="F")
    values[1:-1, 1:-1, 1:-1] = np.random.default_rng(seed).uniform(size=(30, 30, 30))
    fld = field.ScalarField(spec, values)
    pot, box = _potential_reference(fld.values, spec)
    assert coulomb.hartree(fld) == 0.5 * spec.cell_volume * float(np.sum(fld.values[box] * pot))


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
    got, box = coulomb._potential(values, spec)
    want, want_box = _potential_reference(values, spec)
    assert box == want_box
    assert got.shape == values[(...,) + box].shape
    np.testing.assert_array_equal(got, want)

    # the box holds every nonzero value
    outside = np.ones(dims, dtype=bool)
    outside[box] = False
    assert not np.any(values[..., outside])


def test_hartree_checks_support_on_the_box(monkeypatch):
    values = _sparse_values((17, 24, 9), (), [np.s_[3:9, 5:14, 2:7]], seed=3)
    spec = field.GridSpec((17, 24, 9), (0.11, 0.07, 0.13))
    seen = []
    monkeypatch.setattr(coulomb, "_check_support", lambda vals: seen.append(vals.shape))
    coulomb.hartree(field.ScalarField(spec, values))
    assert seen == [values[_support_slices(values)].shape] == [(8, 11, 7)]


def test_support_check_on_the_box_reports_the_grid_share():
    # mass on the x = 0 face only; the values are dyadic, so every sum is
    # exact and the share is 6/18 in any summation order
    values = np.zeros((16, 16, 16))
    values[0:2, 5:8, 4:6] = 1.0
    values[2:4, 5:8, 4:6] = 0.5
    spec = field.GridSpec((16, 16, 16), (0.1, 0.1, 0.1))
    share = 6.0 / values.sum()
    msg = (f"boundary cells hold {share:.3e} of the mass; "
           "density support must stay inside the grid box")
    with pytest.raises(field.SupportError) as err:
        coulomb.hartree(field.ScalarField(spec, values))
    assert str(err.value) == msg == ("boundary cells hold 3.333e-01 of the mass; "
                                     "density support must stay inside the grid box")


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
    # a box of 4 x 6 x 3 nodes on a 9 x 12 x 7 grid
    engine = coulomb._Engine((4, 6, 3), (0.3, 0.2, 0.25), (9, 12, 7))
    np.testing.assert_array_equal(engine.kernel,
                                  _direct_half_grid_kernel(engine.freqs, engine.radius))


@pytest.mark.parametrize("box_dims", [(9, 12, 7), (4, 6, 3), (2, 2, 2), (9, 2, 7)])
def test_engine_geometry(box_dims):
    spacing, dims = (0.3, 0.2, 0.25), (9, 12, 7)
    engine = coulomb._Engine(box_dims, spacing, dims)
    radius = math.sqrt(sum((h * (b - 1)) ** 2 for b, h in zip(box_dims, spacing)))
    assert engine.radius == pytest.approx(radius, rel=1e-15)
    for p, b, h, n in zip(engine.shape, box_dims, spacing, dims):
        if p < 2 * n:
            # alias-free: the box plus the radius fits, and P is the smallest
            # 5-smooth length that fits
            assert p * h >= (b - 1) * h + engine.radius
            assert scipy.fft.next_fast_len(p, real=True) == p
            assert all(scipy.fft.next_fast_len(q, real=True) != q
                       for q in range(math.ceil(b - 1 + engine.radius / h), p))
        else:
            assert p == 2 * n
    if box_dims == dims:
        # the whole grid keeps the whole-grid geometry
        assert engine.shape == tuple(2 * n for n in dims)
        assert engine.radius == float(np.linalg.norm(field.GridSpec(dims, spacing).box_lengths))


def test_fast_len_is_the_real_input_fast_length():
    assert [coulomb._fast_len(n) for n in range(1, 3000)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 3000)]


def _moment_reference(fld, box, geometry, kvecs):
    """I(k) as the mean over +-k of the full complex DFT sum
    (1/V_pad) sum_p |A(p)|^2 K(p - k), A the cell-volume-scaled fftn of
    the box values zero-padded to the engine shape."""
    shape, fx, fy, fz, radius = geometry
    spec = fld.spec
    asq = np.abs(scipy.fft.fftn(fld.values[box], s=shape) * spec.cell_volume) ** 2
    vol_pad = spec.cell_volume * float(np.prod(shape))

    def dft_sum(k):
        psq = ((fx[:, None, None] - k[0]) ** 2 + (fy[None, :, None] - k[1]) ** 2
               + (fz[None, None, :] - k[2]) ** 2)
        return float(np.sum(asq * _truncated_kernel(psq, radius))) / vol_pad

    return np.array([0.5 * (dft_sum(k) + dft_sum(-k)) for k in kvecs])


def test_kernel_moment_pairs_match_unpaired_reference():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 32)
    fld = field.density_to_field(rho, spec)
    m = np.array([mm for mm in itertools.product((-1, 0, 1), repeat=3) if any(mm)])
    kvecs = (2.0 * math.pi / 4.0) * m
    got = coulomb.kernel_moment(fld, kvecs)
    want = _moment_reference(fld, tuple(slice(0, n) for n in spec.dims),
                             _padded_geometry(spec), kvecs)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _smeared_tile_32():
    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    return field.density_to_field(rho, field.default_grid(rho, 32))


def _sparse_field(dims, case):
    stack, blocks = SPARSE_CASES[case]
    spec = field.GridSpec(dims, (0.11, 0.07, 0.13), (-1.0, -0.8, -0.6))
    return lambda: field.ScalarField(spec, _sparse_values(dims, stack, blocks, seed=sum(dims)))


# engine shapes (40, 40, 48), (22, 27, 16) and (6, 8, 5): the Nyquist rows
# of even x and y axes, an odd y axis and an odd last axis
@pytest.mark.parametrize("make", [_smeared_tile_32, _sparse_field((11, 15, 13), "opposite_faces"),
                                  _sparse_field((17, 24, 9), "one_node")],
                         ids=["smeared_tile", "mixed_parity", "odd_last_axis"])
def test_kernel_moments_are_the_pm_k_mean(make):
    # The DFT sums at k and -k differ through the Nyquist planes, by up to
    # 3.2e-5 relative on the smeared tile; I(k) is their mean.
    fld = make()
    m = np.array(list(itertools.product(range(-3, 4), repeat=3)), dtype=float)
    kvecs = (2.0 * math.pi / 4.0) * m
    # evaluate each +-k pair of the reference once
    rep = np.array([k for k in kvecs if tuple(k) >= tuple(-k)])
    want = dict(zip(map(tuple, rep), _moment_reference(fld, *_box_geometry(fld), rep)))
    want = np.array([want[max(tuple(k), tuple(-k))] for k in kvecs])
    got = coulomb.kernel_moment(fld, kvecs)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(got, coulomb.kernel_moment(fld, -kvecs))


def test_kernel_moment_takes_no_complex_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_moment called numpy.fft.fftn")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 16)
    mom = coulomb.kernel_moment(rho, np.zeros(3), spec)
    assert 2.0 * math.pi * mom == pytest.approx(coulomb.hartree(rho, spec), rel=1e-10)


@pytest.mark.parametrize("kvec", [(math.nan, 0.0, 0.0), (0.0, math.inf, 1.0)])
@pytest.mark.parametrize("route", ["closed_form", "grid"])
def test_kernel_moment_rejects_non_finite_wave_vectors(kvec, route):
    rho = field.Density.gaussian(1.0, 1.0)
    if route == "grid":
        rho = field.Density.grid(field.density_to_field(rho, field.default_grid(rho, 16)))
    with pytest.raises(ValueError, match="finite"):
        rho.kernel_moment([kvec, (1.0, 0.0, 0.0)])


def _annulus_quad(r, alpha):
    """2 pi r int s log((s+1)/|s-1|) ds over [1/(r(1+a)), 1/(r(1-a))] by
    QUADPACK, told where the log point s = 1 sits; 8 pi a/(1 - a^2) at r = 0."""
    from scipy.integrate import quad

    lo, hi = 1.0 / (1.0 + alpha), 1.0 / (1.0 - alpha)
    if r == 0.0:
        return 8.0 * math.pi * alpha / (1.0 - alpha**2)
    p, q = lo / r, hi / r
    val, _ = quad(lambda s: s * math.log((s + 1.0) / abs(s - 1.0)) if s != 1.0 else 0.0,
                  p, q, points=[1.0] if p < 1.0 < q else None,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * math.pi * r * val


@pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
def test_annulus_quadrature_vs_antiderivative(alpha):
    for r in (0.0, 0.4, 1.0 / (1.0 + alpha), 1.0, 1.0 / (1.0 - alpha), 2.5, 7.0):
        assert coulomb.annulus_conv(r, alpha) == pytest.approx(_annulus_quad(r, alpha),
                                                               rel=1e-12), f"r={r}"


@pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
def test_annulus_matches_mpmath_to_large_radius(alpha):
    """annulus_conv against its antiderivative at 40 digits, for r from 1/2
    to 1e4 and on both sides of r = 2/(1 +- a), where one bound crosses
    s = 1/2 into the series.  The bound is 2e-15, not 1e-15: the rounded
    arguments s = 1/(r (1 +- a)) enter G(hi) - G(lo), which amplifies
    them, and on 600 log-spaced r in [1, 1e4] at alpha = 0.1 the errors'
    median is 3.5e-16 and their maximum 1.9e-15.  The closed form alone
    erred by 7e-11 at r = 100."""
    import mpmath as mp

    def reference(r):
        r, a = mp.mpf(r), mp.mpf(alpha)
        anti = lambda s: (s * s - 1) / 2 * mp.log((s + 1) / abs(s - 1)) + s
        return 2 * mp.pi * r * (anti(1 / (r * (1 - a))) - anti(1 / (r * (1 + a))))

    switch = [2.0 / (1.0 + side * alpha) * (1.0 + t) for side in (1, -1) for t in (-1e-3, 1e-3)]
    with mp.workdps(40):
        for r in list(np.geomspace(0.5, 1e4, 60)) + switch:
            want = reference(float(r))
            assert abs(coulomb.annulus_conv(float(r), alpha) / want - 1) <= 2e-15, f"r={r}"


@pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
def test_annulus_matches_mpmath_at_small_radius(alpha):
    """Small r puts both bounds s = 1/(r (1 +- a)) far above 1, where
    (s + 1)/(s - 1) nears 1: the log is taken as log1p(2/(s - 1))."""
    import mpmath as mp

    def reference(r):
        r, a = mp.mpf(r), mp.mpf(alpha)
        anti = lambda s: (s * s - 1) / 2 * mp.log((s + 1) / abs(s - 1)) + s
        return 2 * mp.pi * r * (anti(1 / (r * (1 - a))) - anti(1 / (r * (1 + a))))

    with mp.workdps(40):
        for r in np.geomspace(0.01, 0.5, 60):
            want = reference(float(r))
            assert abs(coulomb.annulus_conv(float(r), alpha) / want - 1) <= 3e-15, f"r={r}"


def test_annulus_center_value():
    alpha = 0.3
    want = 8.0 * math.pi * alpha / (1.0 - alpha**2)
    assert coulomb.annulus_conv(0.0, alpha) == pytest.approx(want, rel=1e-13)


def test_annulus_gates():
    with pytest.raises(ValueError):
        coulomb.annulus_conv(1.0, 0.6)
    with pytest.raises(ValueError):
        coulomb.annulus_conv(-0.5, 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        coulomb.annulus_conv(-5.0, 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        coulomb.annulus_sup(0.25, np.arange(-1.0, 8.005, 0.01))


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


def test_periodic_identity_on_a_support_box():
    # the Gram matrix reads only the box columns of a compactly supported field
    rho = field.Density.compact_bump(1.0, 1.3)
    spec = field.GridSpec((20, 20, 20), (4.0 / 19,) * 3, (-2.0, -2.0, -2.0))
    coeffs = {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j}
    box = _support_slices(field.density_to_field(rho, spec).values)
    assert all(s.stop - s.start < n for s, n in zip(box, spec.dims))
    lhs, rhs = coulomb.periodic_localization_identity(rho, coeffs, ell=8.0, spec=spec)
    want = _periodic_identity_lhs_reference(rho, coeffs, 8.0, spec, 8)
    assert lhs == pytest.approx(want, rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-2)


def test_periodic_identity_checks_support_on_the_box(monkeypatch):
    # rho and its 8^3 shifted fields (one +-m pair: two basis fields) are
    # checked on the pad-1 support box, never on the whole 20^3 grid: rho
    # first, then the shifted fields in blocks of at most _CHECK_BLOCK values
    rho = field.Density.compact_bump(1.0, 1.3)
    spec = field.GridSpec((20, 20, 20), (4.0 / 19,) * 3, (-2.0, -2.0, -2.0))
    box = _support_slices(field.density_to_field(rho, spec).values)
    dims = tuple(s.stop - s.start for s in box)
    assert dims != spec.dims
    for block in (1, 8000, 1 << 16, 1 << 21):
        seen = []
        monkeypatch.setattr(coulomb, "_CHECK_BLOCK", block)
        monkeypatch.setattr(coulomb, "_leak_share", lambda vals: seen.append(vals.shape) or 0.0)
        coulomb.periodic_localization_identity(
            rho, {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j}, ell=8.0, spec=spec)
        assert seen[0] == dims
        blocks = seen[1:]
        assert all(shape[1:] == dims for shape in blocks)
        assert max(shape[0] for shape in blocks) <= max(1, block // math.prod(dims))
        assert sum(shape[0] for shape in blocks) == 8**3


def _leaking_identity_case():
    """The geometry of test_periodic_identity_checks_every_shifted_field,
    with f(x) = 1 - cos(2 pi x/ell + 1/2): the first shifted field that
    leaks holds 1.2e-6 on the boundary layer, a later one 2.3e-6."""
    rho = field.Density.gaussian(1.0, 1.0)
    half = 5.5
    spec = field.GridSpec((24, 24, 24), (2.0 * half / 23,) * 3, (-half,) * 3)
    c = -0.5 * complex(math.cos(0.5), math.sin(0.5))
    coeffs = {(0, 0, 0): 1.0, (1, 0, 0): c, (-1, 0, 0): c.conjugate()}
    return rho, spec, coeffs, 4.0 * half


def _largest_leak_share(rho, spec, f_coeffs, ell, n_tau=8):
    """The largest boundary share over the shifted fields f(. - tau) rho,
    each formed and summed on its own on the support box of rho."""
    fld = field.density_to_field(rho, spec)
    box = _support_slices(fld.values)
    nodes, _ = np.polynomial.legendre.leggauss(n_tau)
    tau_ax = 0.5 * ell * (nodes + 1.0)
    xg, yg, zg = spec.meshgrid()
    worst = 0.0
    for t1, t2, t3 in itertools.product(tau_ax, repeat=3):
        f_vals = np.zeros(spec.dims, dtype=complex)
        for m, c in f_coeffs.items():
            phase = (2.0 * math.pi / ell) * (
                m[0] * (xg - t1) + m[1] * (yg - t2) + m[2] * (zg - t3))
            f_vals += c * np.exp(1j * phase)
        vals = np.abs(f_vals.real * fld.values)[box]
        boundary = sum(float(face.sum()) for ax in range(3)
                       for face in (np.take(vals, 0, axis=ax), np.take(vals, -1, axis=ax)))
        if boundary > 1e-6 * vals.sum():
            worst = max(worst, boundary / float(vals.sum()))
    return worst


def test_periodic_identity_leak_message_ignores_the_block_size(monkeypatch):
    # the SupportError names the largest share over all 8^3 shifted fields,
    # not over the first leaking block
    rho, spec, coeffs, ell = _leaking_identity_case()
    share = _largest_leak_share(rho, spec, coeffs, ell)
    assert share > 1e-6
    want = (f"boundary cells hold {share:.3e} of the mass; "
            "density support must stay inside the grid box")
    for block in (1, 8000, 1 << 16, 1 << 21):
        monkeypatch.setattr(coulomb, "_CHECK_BLOCK", block)
        with pytest.raises(field.SupportError) as err:
            coulomb.periodic_localization_identity(rho, coeffs, ell=ell, spec=spec)
        assert str(err.value) == want, f"block={block}"


def test_periodic_identity_values_ignore_the_block_size(monkeypatch):
    rho = field.Density.compact_bump(1.0, 1.3)
    spec = field.GridSpec((20, 20, 20), (4.0 / 19,) * 3, (-2.0, -2.0, -2.0))
    coeffs = {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j,
              (0, 1, -1): 0.1 - 0.05j, (0, -1, 1): 0.1 + 0.05j}
    got = set()
    for block in (1, 8000, 1 << 16, 1 << 21):
        monkeypatch.setattr(coulomb, "_CHECK_BLOCK", block)
        got.add(coulomb.periodic_localization_identity(rho, coeffs, ell=8.0, spec=spec))
    assert len(got) == 1


def _overpadded_hartree(fld, shape, radius):
    """D by Parseval, (V/2N) sum_p |rhohat(p)|^2 K(p), with the support box
    zero-padded to shape and the kernel truncated at radius.  The sum runs
    over the rfft half-grid in slabs of z frequencies, each interior plane
    counted twice for its mirror, so an over-padded grid fits in memory."""
    p1, p2, p3 = shape
    fx, fy, fz = (2.0 * math.pi * np.fft.fftfreq(n, d=h)
                  for n, h in zip(shape, fld.spec.spacing))
    half = scipy.fft.rfft(fld.values[_support_slices(fld.values)], n=p3, axis=-1)
    weight = np.full(half.shape[-1], 2.0)
    weight[0] = 1.0
    if p3 % 2 == 0:
        weight[-1] = 1.0
    total = 0.0
    for lo in range(0, half.shape[-1], 8):
        coeffs = scipy.fft.fft(scipy.fft.fft(half[..., lo:lo + 8], n=p2, axis=1), n=p1, axis=0)
        psq = (fx[:, None, None] ** 2 + fy[None, :, None] ** 2
               + fz[None, None, lo:lo + coeffs.shape[-1]] ** 2)
        total += float(np.sum(weight[lo:lo + 8] * np.abs(coeffs) ** 2
                              * (4.0 * math.pi) * _truncated_kernel(psq, radius)))
    return 0.5 * fld.spec.cell_volume * total / (p1 * p2 * p3)


@pytest.fixture(scope="module")
def smeared_tile():
    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    return field.density_to_field(rho, rho.default_grid())


def test_smeared_tile_hartree_is_alias_free(smeared_tile):
    fld = smeared_tile
    _, box, engine = coulomb._spectrum(fld.values, fld.spec)
    assert all(p < 2 * n for p, n in zip(engine.shape, fld.spec.dims))
    got = coulomb.hartree(fld)
    # twice the zero padding and 1.3 times the radius: alias-free by a wide
    # margin, and a longer truncation radius changes nothing once it
    # exceeds every distance in the box
    sizes = [s.stop - s.start for s in box]
    want = _overpadded_hartree(fld, tuple(b + 2 * (p - b) for b, p in zip(sizes, engine.shape)),
                               1.3 * engine.radius)
    # the whole-grid geometry (2n, grid diagonal) gave 0.13507946949173616,
    # 0.33% high
    assert got == pytest.approx(want, rel=1e-10)


def test_smeared_tile_kernel_moment_zero_matches_hartree(smeared_tile):
    mom = coulomb.kernel_moment(smeared_tile, np.zeros(3))
    assert 2.0 * math.pi * mom == pytest.approx(coulomb.hartree(smeared_tile), rel=1e-10)
