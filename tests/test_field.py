import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ldacert import field, tiling

GAUSS_EXACT = {
    "mass": 1.0,
    "l2": 0.02244839026564582,
    "l43": 0.2591206121035017,
    "l53": 0.07396853328737997,
    "kin": 0.75,
    "tv": 1.5957691216057308,
    "thg": 0.005261341468510738,
}


def test_gaussian_closed_forms(gauss_F):
    for name, want in GAUSS_EXACT.items():
        assert getattr(gauss_F, name) == pytest.approx(want, rel=1e-12), name
    assert gauss_F.theta == 0.5 and gauss_F.p == 4.0
    assert gauss_F.hartree is None


def test_gaussian_kin_formula():
    # kin = 3/(4 sigma^2), independent of mass normalization
    for sigma, mass in ((0.5, 1.0), (2.0, 3.0)):
        F = field.functionals(field.Density.gaussian(sigma, mass))
        assert F.kin == pytest.approx(mass * 0.75 / sigma**2, rel=1e-12)


@pytest.mark.parametrize("sigma,mass", [(1e-41, 1.0), (1e-38, 1.0), (1e40, 1.0), (1e45, 1.0),
                                        (1e154, 1e-20)])
def test_gaussian_thg_keeps_its_range(sigma, mass):
    """At (theta, p) = (0.5, 4) one factor of the closed-form product
    overflows or underflows long before thg does.  Against mpmath: 1e-13
    relative where thg is a normal double, two subnormal steps below that
    (sigma 1e45), and 0 where it underflows (sigma 1e154)."""
    import mpmath as mp

    with mp.workdps(40):
        s, m = mp.mpf(sigma), mp.mpf(mass)
        amp = m * (2 * mp.pi * s**2) ** -1.5
        want = float((0.5 / s**2) ** 4 * amp**2 * 2 * mp.pi * mp.gamma(3.5) * (s**2) ** 3.5)
    got = field.functionals(field.Density.gaussian(sigma, mass)).thg
    assert abs(got - want) <= max(1e-13 * want, 2 * math.ulp(0.0))
    assert (got == 0.0) == (sigma == 1e154)


@pytest.mark.parametrize("c", [0.3, 2.0, 17.5])
def test_amplitude_power_scaling(c):
    base = field.functionals(field.Density.gaussian(1.0, 1.0))
    scaled = field.functionals(field.Density.gaussian(1.0, c))
    assert scaled.mass == pytest.approx(c * base.mass, rel=1e-10)
    assert scaled.l2 == pytest.approx(c**2 * base.l2, rel=1e-10)
    assert scaled.l43 == pytest.approx(c ** (4.0 / 3.0) * base.l43, rel=1e-10)
    assert scaled.l53 == pytest.approx(c ** (5.0 / 3.0) * base.l53, rel=1e-10)


def test_dilation_scaling_matches_closed_form():
    """scale_functionals must agree with functionals of the dilated density.

    The dilation rho(x / N^{1/3}) of a gaussian is the gaussian with
    sigma -> sigma N^{1/3} and mass -> N mass.
    """
    N = 640.0
    want = field.scale_functionals(
        field.functionals(field.Density.gaussian(1.0, 1.0)), N)
    got = field.functionals(field.Density.gaussian(N ** (1.0 / 3.0), N))
    for name in ("mass", "l2", "l43", "l53", "kin", "tv", "thg"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-10)


def test_scale_functionals_powers(gauss_F):
    N = 8.0
    S = field.scale_functionals(gauss_F, N)
    assert S.mass == pytest.approx(N * gauss_F.mass)
    assert S.kin == pytest.approx(N ** (1.0 / 3.0) * gauss_F.kin)
    assert S.tv == pytest.approx(N ** (2.0 / 3.0) * gauss_F.tv)
    assert S.thg == pytest.approx(N ** (1.0 - 4.0 / 3.0) * gauss_F.thg)
    with pytest.raises(ValueError):
        field.scale_functionals(gauss_F, 0.0)


def test_compact_bump_mass_and_support():
    rho = field.Density.compact_bump(1.5, 2.0)
    F = field.functionals(rho)
    assert F.mass == pytest.approx(2.0, rel=1e-9)
    spec = field.GridSpec((3, 3, 3), (1.0, 1.0, 1.0), (-1.0, -1.0, -1.0))
    vals = field.density_to_field(rho, spec).values
    assert vals.min() >= 0.0


# sha256 of the compact-bump functionals (repr) and samples (20^3 default
# grid, raw float64) below, as the seven-integral table computed them on
# the composite Gauss-Legendre radial rule
BUMP_FUNCTIONALS_SHA256 = "88929ce8d1b1f37b3c12bb28bd38cdce0be8fd807ea67124e8269a7fa718ec52"
BUMP_SAMPLES_SHA256 = "959b8df95f274a5bfe12aaacf3ac9c5e838037e93a383fc9fd233715c4eeef5c"


def test_compact_bump_integrals_cached_one_by_one():
    field._bump_radial_integral.cache_clear()
    reprs, samples = hashlib.sha256(), hashlib.sha256()
    for radius in (0.5, 1.0, 1.3, 2.5):
        rho = field.Density.compact_bump(radius, 1.7)
        samples.update(rho.sample(field.default_grid(rho, 20)).values.tobytes())
        for theta, p in ((0.5, 4.0), (0.3, 7.0), (0.7, 3.5)):
            reprs.update(repr(field.functionals(rho, theta, p)).encode())
    assert reprs.hexdigest() == BUMP_FUNCTIONALS_SHA256
    assert samples.hexdigest() == BUMP_SAMPLES_SHA256
    # sampling and the functionals share the norm; each new (theta, p)
    # adds only its thg quadrature to the five fixed ones
    assert field._bump_radial_integral.cache_info().misses == 1 + 5 + 3


# the seven integrals of the default functionals, as (kind, a, b), then thg
# at the ends and the middle of the accepted p*theta range [4/3, 1 + p/2];
# at p = 40 the factor (2 a u s^2)^b alone overflows
_BUMP_INTEGRALS = [
    ("pow", 1.0, 0.0), ("pow", 2.0, 0.0), ("pow", 4.0 / 3.0, 0.0),
    ("pow", 5.0 / 3.0, 0.0), ("grad", 0.5, 2.0), ("grad", 1.0, 1.0), ("grad", 0.5, 4.0),
] + [("grad", pt / p, p) for p in (3.01, 4.0, 6.0, 10.0, 20.0, 40.0)
     for pt in (4.0 / 3.0, 2.0, 1.0 + p / 2.0)] + [
    # beyond b = 40: a peak just over one cell wide, and two wide ones
    ("grad", 4.0 / 129.0, 43.0), ("grad", 41.0 / 80.0, 80.0), ("grad", 151.0 / 300.0, 300.0),
]


@pytest.mark.parametrize("kind,a,b", _BUMP_INTEGRALS)
def test_bump_radial_integral_matches_mpmath(kind, a, b, bump_reference):
    got = field._bump_radial_integral(kind, a, b)
    assert abs(got / bump_reference(kind, a, b) - 1) <= (1e-14 if b <= 40 else 1e-13)


@pytest.mark.parametrize("a,b,error", [
    (4.0 / 132.0, 44.0, ArithmeticError),  # p*theta = 4/3: peak just under one cell
    (1.0 / 60.0, 80.0, ArithmeticError),
    (1.3334 / 1000.0, 1000.0, ArithmeticError),
    (0.2, 500.0, OverflowError),  # resolved, but about 1e+400
])
def test_bump_radial_integral_refuses_what_it_cannot_resolve(a, b, error):
    with pytest.raises(error):
        field._bump_radial_integral("grad", a, b)


def test_bump_unit_hartree_matches_mpmath():
    # D_1 of the unit bump to 20 digits, by mpmath in the field-energy form
    assert abs(field._bump_unit_hartree() - 0.80802881693733463505) <= 1e-15


def test_smeared_tetra_mass():
    # the smeared tile has the same volume as the sharp one: rho0 ell^3/24
    F = field.functionals(field.Density.smeared_tetra(1.0, 6.0, 1.5))
    assert F.mass == pytest.approx(6.0**3 / 24.0, rel=1e-4)


def test_smeared_tile_functionals_match_exact_gradient_grid_sums():
    """The table route against a midpoint sum on 400^3 nodes of (1, 2, 0.5)
    with the closed-form gradient of convolved_indicator.  The sums on
    400^3, 500^3 and 600^3 spread by 0.015 in kin (54.567 to 54.582), and
    give tv 3.56086, 3.56077, 3.56077 and l2 0.29828960, 0.29828955,
    0.29828951."""
    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    F = field.functionals(rho)
    cfg = tiling.TilingConfig(rho.ell, rho.delta)
    spec = field.default_grid(rho, 400)
    _, _, pts = tiling._tile_nodes(tiling._tile_vertices(cfg, 1, False), cfg.smear_radius, spec)
    u, g = tiling.xi_grad_values(cfg, 1, pts)
    g2 = np.einsum("ij,ij->i", g, g)
    live = u > 0.0
    cell = spec.cell_volume
    assert F.kin == pytest.approx(cell * np.sum(g2[live] / (4.0 * u[live])), rel=5e-4)
    assert F.tv == pytest.approx(cell * np.sum(np.sqrt(g2)), rel=5e-5)
    assert F.l2 == pytest.approx(cell * np.sum(u * u), rel=1e-6)
    assert F.mass == rho.ell**3 / 24.0


# the (ell, delta) pairs of the tile reference tests: TETRA, a tile three
# times larger, delta near ell/2 (lam = 20.2, the smallest tiles), and
# ell/delta = 40
TILE_PAIRS = [(2.0, 0.5), (6.0, 1.5), (4.0, 1.98), (20.0, 0.5)]
DOUBLED = tuple(2 * n for n in tiling._TILE_ORDERS)


@pytest.mark.parametrize("ell,delta", TILE_PAIRS)
def test_smeared_tile_table_against_doubled_orders(ell, delta):
    lam = ell / (delta / 10.0)
    for theta, p in ((0.5, 4.0), (0.5, 2.0)):
        got = tiling._tile_integrals(lam, theta, p)
        want = tiling._tile_integrals(lam, theta, p, DOUBLED)
        for name in ("kin", "tv", "thg"):
            assert got[name] == pytest.approx(want[name], rel=1e-5), name
        for name in ("l2", "l43", "l53"):
            assert got[name] == pytest.approx(want[name], rel=1e-7), name


def _tile_integrals_from_nodes(lam, theta, p, orders):
    """_tile_integrals formed per call from the quadrature's u, |grad u| and
    weights alone, every sum a float64 sum over the nodes."""
    if not lam * tiling._incenter()[1] > 1.0:
        raise ValueError(f"the tile table needs lam > 1/r_in, got lam = {lam}")
    nodes = tiling._tile_quadrature(orders)
    u, g, weights = nodes.u, nodes.g, nodes.weights
    w = weights @ lam ** np.arange(4.0)
    live = u > tiling._LIVE_U
    ul, gl, wl = u[live], g[live], w[live]
    terms = (theta * ul ** (theta - 1.0) * gl) ** p * wl
    thg = float(np.sum(terms))
    if np.sum(terms[ul <= tiling._SUPPORT_EDGE_U]) > 1e-4 * thg:
        raise ArithmeticError(
            f"|grad u^{theta:g}|^{p:g} peaks too near the edge of the tile's support")
    return {
        "mass": float(np.sum(u * w)),
        "l2": float(np.sum(u**2 * w)),
        "l43": float(np.sum(u ** (4.0 / 3.0) * w)),
        "l53": float(np.sum(u ** (5.0 / 3.0) * w)),
        "kin": float(np.sum(gl**2 / (4.0 * ul) * wl)),
        "tv": float(np.sum(g * w)),
        "thg": thg,
    }


def _exact_dot(a, b):
    """sum_i a_i b_i exactly, as a Fraction: each double is a 53-bit integer
    times a power of 2, so the sum is one Python integer over a power of 2."""
    nz = (a != 0.0) & (b != 0.0)
    (ma, ea), (mb, eb) = np.frexp(a[nz]), np.frexp(b[nz])
    ia, ib = ((m * 2.0**53).astype(np.int64).tolist() for m in (ma, mb))
    ex = (ea + eb).tolist()
    lo = min(ex, default=0)
    total = sum((x * y) << (e - lo) for x, y, e in zip(ia, ib, ex))
    return Fraction(total) * Fraction(2) ** (lo - 106)


@functools.lru_cache(maxsize=None)
def _exact_moments(orders):
    """The moments sum_i f_k(i) weights[i, j] of the six lam-polynomial
    integrands, exactly, from the same per-node doubles as the per-node route."""
    nodes = tiling._tile_quadrature(orders)
    u, g, weights = nodes.u, nodes.g, nodes.weights
    live = u > tiling._LIVE_U
    kin = np.zeros_like(u)
    kin[live] = g[live] ** 2 / (4.0 * u[live])
    rows = (u, u**2, u ** (4.0 / 3.0), u ** (5.0 / 3.0), kin, g)
    return [[_exact_dot(f, np.ascontiguousarray(weights[:, j])) for j in range(4)] for f in rows]


def _exact_integrals(lam, orders):
    """The six lam-polynomial integrals of the quadrature at exact powers of lam."""
    powers = [Fraction(lam) ** j for j in range(4)]
    return {name: sum(m * x for m, x in zip(row, powers))
            for name, row in zip(tiling._MOMENT_NAMES, _exact_moments(orders))}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _check_against_nodes(lam, theta, p, orders):
    """thg and every raise equal the per-node route's; each other value is
    the double nearest the exact quadrature sum, so it lies at least as
    close to it as the per-node float64 sum.  True if the call raised."""
    got = _outcome(tiling._tile_integrals, lam, theta, p, orders)
    want = _outcome(_tile_integrals_from_nodes, lam, theta, p, orders)
    if isinstance(want, tuple):
        assert got == want, (lam, theta, p)
        return True
    assert isinstance(got, dict) and got["thg"] == want["thg"], (lam, theta, p)
    for name, ref in _exact_integrals(lam, orders).items():
        assert got[name] == float(ref), (name, lam)
        assert abs(Fraction(got[name]) - ref) <= abs(Fraction(want[name]) - ref), (name, lam)
    return False


def test_tile_integrals_keep_thg_and_round_the_other_sums_nearest():
    """240 draws: lam log-uniform from just above 1/r_in to 1e6, (theta, p)
    inside the gate of a random variant."""
    rng = np.random.default_rng(7)
    gate = 1.0 / tiling._incenter()[1]
    draws = [(gate * (1.0 + 1e-9), 0.5, 4.0), (1e6, 0.5, 4.0)]
    for _ in range(240):
        lam = float(np.exp(rng.uniform(math.log(gate * (1.0 + 1e-9)), math.log(1e6))))
        p = float(rng.uniform(3.5, 12.0))
        if rng.random() < 0.5:  # classical: theta p >= 4/3
            theta = float(rng.uniform(4.0 / 3.0 / p, 1.0))
        else:  # quantum and xc: 2 <= theta p <= 1 + p/2
            theta = float(rng.uniform(2.0 / p, (1.0 + p / 2.0) / p))
        draws.append((lam, theta, p))
    raised = sum(_check_against_nodes(*draw, tiling._TILE_ORDERS) for draw in draws)
    assert raised < len(draws) // 2  # most draws compare values, not messages
    assert not _check_against_nodes(*draws[0], DOUBLED)
    assert _check_against_nodes(gate, 0.5, 4.0, tiling._TILE_ORDERS)


@pytest.mark.parametrize("theta_p,p,passes", [(4.0 / 3.0, 6.0, True), (2.0, 11.0, True),
                                              (4.0 / 3.0, 7.0, False), (2.0, 12.0, False)])
def test_tile_integrals_keep_the_edge_check_at_the_gate_corners(theta_p, p, passes):
    assert _check_against_nodes(20.0, theta_p / p, p, tiling._TILE_ORDERS) != passes


@pytest.mark.parametrize("orders", [tiling._TILE_ORDERS, DOUBLED], ids=["default", "doubled"])
def test_tile_table_is_one_read_only_cached_value(orders):
    nodes = tiling._tile_quadrature(orders)
    table = tiling._tile_table(orders)
    tiling._tile_integrals(20.0, 0.5, 4.0, orders)
    assert tiling._tile_table(orders) is table and tiling._tile_quadrature(orders) is nodes
    assert set(vars(nodes)) == {"u", "g", "weights"}
    assert set(vars(table)) == {"moments", "den", "weights", "ul", "gl", "edge"}
    arrays = [*vars(nodes).values(), table.weights, table.ul, table.gl, table.edge]
    for a in arrays:
        assert isinstance(a, np.ndarray) and not a.flags.writeable
    assert [[type(m) for m in row] for row in table.moments] == [[int] * 4] * 6
    live = nodes.u > tiling._LIVE_U
    assert np.array_equal(table.weights, nodes.weights[live]) and table.weights.flags.c_contiguous
    assert len(table.ul) == len(table.gl) == len(table.weights) < len(nodes.u)
    assert np.all(table.ul[table.edge] <= tiling._SUPPORT_EDGE_U)


def test_tile_quadrature_blocks_keep_every_bit(monkeypatch):
    """The table evaluates its nodes in blocks of _TABLE_BLOCK; u and
    |grad u| equal those of one call over every node."""
    nodes = tiling._tile_quadrature(tiling._TILE_ORDERS)
    assert len(nodes.u) > tiling._TABLE_BLOCK  # two blocks or more
    monkeypatch.setattr(tiling, "_TABLE_BLOCK", len(nodes.u))
    whole = tiling._tile_quadrature.__wrapped__(tiling._TILE_ORDERS)
    np.testing.assert_array_equal(nodes.u, whole.u)
    np.testing.assert_array_equal(nodes.g, whole.g)
    np.testing.assert_array_equal(nodes.weights, whole.weights)


@pytest.mark.parametrize("ell,delta", TILE_PAIRS)
def test_smeared_tile_table_mass_is_the_tile_volume(ell, delta):
    # int (u - 1_T) = 0: the table's integral of u is the volume V lam^3
    lam = ell / (delta / 10.0)
    volume = tiling.unit_cube_tetrahedra()[0].volume * lam**3
    assert tiling._tile_integrals(lam, 0.5, 4.0)["mass"] == pytest.approx(volume, rel=1e-8)


@pytest.mark.parametrize("p", [3.5, 5.6])
@pytest.mark.parametrize("theta_p", [2.0, 4.0 / 3.0], ids=["quantum_xc", "classical"])
def test_smeared_tile_thg_converges_at_the_gate_corners(theta_p, p):
    """theta = theta_min + 0.02, the lowest theta a certificate of each
    variant draws in the benchmark; the grid route is 51% low there."""
    theta = theta_p / p + 0.02
    for ell, delta in TILE_PAIRS:
        lam = ell / (delta / 10.0)
        got = tiling._tile_integrals(lam, theta, p)["thg"]
        want = tiling._tile_integrals(lam, theta, p, DOUBLED)["thg"]
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-4)


def test_smeared_tile_thg_raises_where_its_peak_nears_the_support_edge():
    # a classical certificate's parameters, near its gate theta p = 4/3
    rho = field.Density.smeared_tetra(1.0, 4.0, 1.98)
    with pytest.raises(ArithmeticError, match="edge of the tile's support"):
        field.functionals(rho, theta=0.17, p=8.0)
    assert field.functionals(rho, theta=0.27, p=5.0).thg > 0.0


def test_gaussian_hartree_value():
    assert field.gaussian_hartree(1.0, 1.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
    assert field.gaussian_hartree(2.0, 3.0) == pytest.approx(
        9.0 / (2.0 * math.sqrt(math.pi) * 2.0), rel=1e-14)


def test_gaussian_coulomb_terms_are_closed_forms():
    for sigma, mass in ((1.0, 1.0), (1.3, 0.7)):
        rho = field.Density.gaussian(sigma, mass)
        D = field.gaussian_hartree(sigma, mass)
        assert rho.hartree() == pytest.approx(D, rel=1e-15)
        # the Dawson form at k = 0 is D / (2 pi)
        assert 2.0 * math.pi * rho.kernel_moment(np.zeros(3)) == pytest.approx(D, rel=1e-15)


def test_gaussian_dawson_moments_match_the_grid_route():
    from ldacert import coulomb

    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 32)
    for direction in ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 2.0, 0.0)):
        unit = np.asarray(direction) / np.linalg.norm(direction)
        kvecs = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.2])[:, None] * unit
        # the grid route aliases at a few 1e-5 on 32^3 (ROADMAP item 4)
        np.testing.assert_allclose(coulomb.kernel_moment(rho, kvecs, spec),
                                   rho.kernel_moment(kvecs), rtol=1e-4, atol=0.0)
    with pytest.raises(ValueError, match="kvecs"):
        rho.kernel_moment(np.zeros((2, 2)))


def test_dawson_matches_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    # log-spaced over [1e-8, 200], plus both sides of the Taylor/Rybicki switch
    x = np.concatenate([np.geomspace(1e-8, 200.0, 1000),
                        0.2 + np.linspace(-0.01, 0.01, 51)])
    want = np.array([float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(v) ** 2) * mp.erfi(v))
                     for v in x])
    got = field._dawson(x)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(field._dawson(-x), -got)


def _gridded_gaussian():
    rho = field.Density.gaussian(1.0, 1.0)
    return field.Density.grid(field.density_to_field(rho, field.default_grid(rho, 24)))


@pytest.mark.parametrize("make,hartree_rel", [
    (lambda: field.Density.smeared_tetra(1.0, 2.0, 0.5), 5e-5),
    (_gridded_gaussian, 0.0),
], ids=["smeared_tetra", "grid"])
def test_grid_families_take_the_base_grid_route(make, hartree_rel):
    """kernel_moment of a grid family is the grid term of its samples on
    default_grid(rho, n), bit for bit, and so are the functionals and
    hartree of a grid density.  The tile's functionals come from its table
    (test_smeared_tile_functionals_match_exact_gradient_grid_sums) and its
    hartree is its closed form, 4.3e-5 below the grid term of its default
    samples."""
    from ldacert import coulomb

    rho = make()
    samples = field.density_to_field(rho, field.default_grid(rho))
    if isinstance(rho, field.GridDensity):
        assert field.functionals(rho) == field._grid_functionals(samples, 0.5, 4.0)
    assert rho.hartree() == pytest.approx(coulomb.hartree(samples), rel=hartree_rel, abs=0.0)
    kvecs = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, -2.0]])
    coarse = field.density_to_field(rho, field.default_grid(rho, 32))
    np.testing.assert_array_equal(rho.kernel_moment(kvecs, 32),
                                  coulomb.kernel_moment(coarse, kvecs))


def _bump_hartree_reference(radius, mass):
    """D = (1/2) int rho phi 4 pi r^2 dr with the shell-theorem potential
    phi(r) = Q(r)/r + int_r^R 4 pi s rho(s) ds, by nested quad."""
    from scipy.integrate import quad

    tol = dict(epsabs=1e-15, epsrel=1e-13, limit=200)

    def shape(r):
        u2 = (r / radius) ** 2
        return math.exp(-1.0 / (1.0 - u2)) if u2 < 1.0 else 0.0

    c = mass / quad(lambda r: 4.0 * math.pi * r * r * shape(r), 0.0, radius, **tol)[0]

    def phi(r):
        inner = quad(lambda s: 4.0 * math.pi * s * s * shape(s), 0.0, r, **tol)[0]
        outer = quad(lambda s: 4.0 * math.pi * s * shape(s), r, radius, **tol)[0]
        return c * (inner / r + outer)

    return 0.5 * quad(lambda r: 4.0 * math.pi * r * r * c * shape(r) * phi(r),
                      0.0, radius, **tol)[0]


def test_compact_bump_hartree_matches_radial_reference():
    unit = field.Density.compact_bump(1.0, 1.0).hartree()
    assert unit == pytest.approx(_bump_hartree_reference(1.0, 1.0), rel=1e-13)
    for radius, mass in ((1.3, 1.0), (0.8, 2.5), (2.2, 0.7)):
        got = field.Density.compact_bump(radius, mass).hartree()
        assert got == pytest.approx(mass**2 / radius * unit, rel=1e-15)
        assert got == pytest.approx(_bump_hartree_reference(radius, mass), rel=1e-13)
    assert field.Density.compact_bump(1.0, 0.0).hartree() == 0.0


def _tile_faces():
    # outward unit normals and areas of tile 1 at ell = 1, from its vertices
    v = tiling.unit_cube_tetrahedra()[0].vertices
    normals, areas = [], []
    for opp in range(4):
        a, b, c = (v[i] for i in range(4) if i != opp)
        n = np.cross(b - a, c - a)
        n *= -np.sign(n @ (v[opp] - a))
        normals.append(n / np.linalg.norm(n))
        areas.append(0.5 * np.linalg.norm(n))
    return np.array(normals), np.array(areas)


def _direct_term_by_edge_sums():
    """D(1_T) of the unit tile, (V/40) int s^-2 dw, by the closed edge sum.

    On the cell of sign vector sigma, s = a.w; with a = |a| c the gnomonic
    image of the cell in the plane c.y = 1 is a polygon, and int_cell
    (c.w)^-2 dw = int dA/|y| = sum_edges d (asinh(t2/r) - asinh(t1/r))
    - Omega: d is the signed distance of the foot c to the edge line, t1
    and t2 the ends along it, r = sqrt(1 + d^2), Omega the cell's solid
    angle (van Oosterom-Strackee triangles).
    """
    normals, areas = _tile_faces()
    volume = 1.0 / 24.0
    pts = [s * np.cross(normals[f], normals[g]) for f, g in itertools.combinations(range(4), 2)
           for s in (1.0, -1.0)]
    pts = [p / np.linalg.norm(p) for p in pts]
    total = 0.0
    for sigma in itertools.product((1.0, -1.0), repeat=4):
        sigma = np.array(sigma)
        corners = [p for p in pts if np.all(sigma * (normals @ p) > -1e-12)]
        if len(corners) < 3:
            continue
        a = -(areas * (sigma < 0)) @ normals / (3.0 * volume)
        c = a / np.linalg.norm(a)
        e1 = np.cross(c, corners[0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(c, e1)
        ys = [p / (c @ p) for p in corners]
        mid = np.mean(ys, axis=0)
        ys.sort(key=lambda y: math.atan2((y - mid) @ e2, (y - mid) @ e1))
        phi = 0.0
        omega = 0.0
        for i, y in enumerate(ys):
            z = ys[(i + 1) % len(ys)]
            u = (z - y) / np.linalg.norm(z - y)
            d = (y - c) @ np.cross(u, c)  # > 0 when c lies left of the edge
            r = math.sqrt(1.0 + d * d)
            phi += d * (math.asinh((z - c) @ u / r) - math.asinh((y - c) @ u / r))
            if 0 < i < len(ys) - 1:
                p, q, o = (w / np.linalg.norm(w) for w in (ys[0], y, z))
                omega += 2.0 * math.atan2(abs(p @ np.cross(q, o)), 1.0 + p @ q + q @ o + o @ p)
        total += (phi - omega) / (a @ a)
    return volume / 40.0 * total


def test_smeared_tile_direct_term_matches_the_closed_edge_sum():
    volume, _, direct, sphere = tiling._covariogram_sphere_moments()
    assert volume / 40.0 * direct == pytest.approx(_direct_term_by_edge_sums(), rel=1e-12)
    assert sphere[0] == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_mollifier_difference_moments_match_single_radial_sums():
    # E|X-X'|^2 = 2 E|X|^2 and E|X-X'|^4 = 2 E|X|^4 + (10/3) (E|X|^2)^2
    # for independent radial X, X'; odd m against a product rule on a >= b
    _, u, w = field._radial_rule()
    p = 4.0 * math.pi * tiling.mollifier_value(u) * u * u
    mu2, mu4 = np.sum(p * u**2 * w), np.sum(p * u**4 * w)
    got = dict(zip(range(2, 6), tiling._mollifier_difference_moments()))
    assert got[2] == pytest.approx(2.0 * mu2, rel=1e-14)
    assert got[4] == pytest.approx(2.0 * mu4 + 10.0 / 3.0 * mu2**2, rel=1e-14)
    x, wx = np.polynomial.legendre.leggauss(64)
    t, wt = 0.5 * (x + 1.0), 0.5 * wx
    a, wa = u.ravel()[:, None], w.ravel()[:, None]
    b = a * t  # b = a t on [0, a]
    pa = 4.0 * math.pi * tiling.mollifier_value(a) * a * a
    pb = 4.0 * math.pi * tiling.mollifier_value(b) * b * b
    for m in (3, 5):
        mean = ((a + b) ** (m + 2) - (a - b) ** (m + 2)) / (2.0 * a * b * (m + 2))
        want = 2.0 * np.sum(pa * wa * a * (pb * mean) @ wt)
        assert got[m] == pytest.approx(want, rel=1e-12)


def test_smeared_tetra_hartree_scales_as_rho0_squared_ell_to_the_fifth():
    unit = field.Density.smeared_tetra(1.0, 2.0, 0.5).hartree() / 2.0**5
    for rho0, ell, delta in ((3.0, 4.0, 1.0), (0.5, 6.0, 1.5), (2.0, 0.5, 0.125)):
        got = field.Density.smeared_tetra(rho0, ell, delta).hartree()
        assert got / (rho0**2 * ell**5) == pytest.approx(unit, rel=1e-14)


def test_smeared_tetra_hartree_lies_within_the_grid_route_spread():
    from ldacert import coulomb

    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    closed = rho.hartree()
    grid = {n: coulomb.hartree(field.density_to_field(rho, field.default_grid(rho, n)))
            for n in (128, 192)}
    assert abs(closed - grid[192]) <= abs(grid[128] - grid[192])


def test_smeared_tetra_covariogram_expansion_holds_as_delta_nears_half_ell():
    # g(r w) = V (1 - r s)^3 must hold for r < 2 rs: 2 rs s_max <= 1, with
    # s_max (unit tile) checked against s on 200,000 random directions
    _, s_max, _, _ = tiling._covariogram_sphere_moments()
    normals, areas = _tile_faces()
    w = np.random.default_rng(9).normal(size=(200_000, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s = np.maximum(-(w @ normals.T), 0.0) @ areas / (3.0 / 24.0)
    assert s_max * (1.0 - 1e-3) <= s.max() <= s_max * (1.0 + 1e-14)
    for ell in (1.0, 2.0, 7.0):
        rs = tiling.TilingConfig(ell, math.nextafter(ell / 2.0, 0.0)).smear_radius
        assert 2.0 * rs * s_max / ell <= 0.2829


def test_grid_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    spec = field.GridSpec((4, 5, 6), (0.5, 0.25, 0.125), (-1.0, 0.0, 2.0))
    f = field.ScalarField(spec=spec, values=rng.uniform(size=(4, 5, 6)))
    path = tmp_path / "a.grid"
    field.write_grid(f, path)
    g = field.read_grid(path)
    assert g.spec == spec
    np.testing.assert_array_equal(g.values, f.values)
    # a second write of the reread field is byte-identical
    path2 = tmp_path / "b.grid"
    field.write_grid(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def _wide_exponent_field(dims):
    rng = np.random.default_rng(11)
    values = rng.uniform(size=dims) * 10.0 ** rng.integers(-300, 300, size=dims)
    values.flat[0] = 0.0
    values.flat[-1] = 5e-324
    return field.ScalarField(field.GridSpec(dims, (0.1, 0.2, 0.3), (-1.5, 0.25, 3.0)), values)


def _header(version, spec):
    return "LDA-GRID %s %d %d %d %.17g %.17g %.17g %.17g %.17g %.17g\n" % (
        version, *spec.dims, *spec.spacing, *spec.origin)


@pytest.mark.parametrize("dims", [(4, 4, 4), (3, 5, 7)], ids=["full-rows", "short-last-row"])
def test_read_grid_reads_per_value_v1_text(tmp_path, dims):
    # v1 files are no longer written but are still read, bit for bit
    f = _wide_exponent_field(dims)
    flat = f.values.ravel(order="F")
    rows = [" ".join("%.17g" % v for v in flat[i:i + 8]) + "\n" for i in range(0, flat.size, 8)]
    path = tmp_path / "a.grid"
    path.write_text(_header("v1", f.spec) + "".join(rows))
    g = field.read_grid(path)
    assert g.spec == f.spec
    assert g.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("dims", [(4, 4, 4), (3, 5, 7)], ids=["full-rows", "short-last-row"])
def test_write_grid_v2_layout(tmp_path, dims):
    f = _wide_exponent_field(dims)
    path = tmp_path / "a.grid"
    field.write_grid(f, path)
    assert path.read_bytes() == (_header("v2", f.spec).encode()
                                 + f.values.ravel("F").astype("<f8").tobytes())
    g = field.read_grid(path)
    assert g.spec == f.spec
    assert g.values.tobytes() == f.values.tobytes()
    assert g.values.dtype == np.float64 and g.values.flags.writeable


def _v2_bytes(spec, payload, header=None):
    return (header or _header("v2", spec)).encode() + np.asarray(payload, "<f8").tobytes()


_SPEC = field.GridSpec((2, 3, 4), (0.5, 0.5, 0.5))
_GOOD = np.linspace(0.0, 1.0, 24)


@pytest.mark.parametrize("data", [
    _v2_bytes(_SPEC, _GOOD[:-1]),
    _v2_bytes(_SPEC, _GOOD)[:-3],
    _v2_bytes(_SPEC, _GOOD) + b"\n",
    _v2_bytes(_SPEC, np.r_[_GOOD, 0.0]),
    _v2_bytes(_SPEC, np.r_[_GOOD[:-1], np.nan]),
    _v2_bytes(_SPEC, np.r_[np.inf, _GOOD[1:]]),
    _v2_bytes(_SPEC, _GOOD, "LDA-GRID v2 2 3 4 0.5 0.5 0.5 0 0\n"),
], ids=["short", "short-bytes", "long-bytes", "long", "nan", "inf", "short-header"])
def test_read_grid_rejects_bad_v2(tmp_path, data):
    # non-finite header fields are covered by test_read_grid_rejects_bad_header
    path = tmp_path / "bad.grid"
    path.write_bytes(_v2_bytes(_SPEC, _GOOD))
    assert field.read_grid(path).values.ravel("F").tolist() == _GOOD.tolist()
    path.write_bytes(data)
    with pytest.raises(field.GridFormatError):
        field.read_grid(path)


def test_read_grid_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.grid"
    p.write_text("NOT-A-GRID v9 1 1 1\n0.0\n")
    with pytest.raises(field.GridFormatError):
        field.read_grid(p)
    for version, values in (("v1", b"0 " * 8 + b"\n"), ("v2", bytes(64))):
        for header in ("2 2 2 inf 1 1 0 0 0", "2 2 2 1 1 1 0 -inf 0"):
            p.write_bytes(f"LDA-GRID {version} {header}\n".encode() + values)
            with pytest.raises(field.GridFormatError, match="finite"):
                field.read_grid(p)


def test_grid_density_spec_mismatch():
    rho = field.Density.gaussian(1.0, 1.0)
    spec = field.default_grid(rho, 24)
    grid_rho = field.Density.grid(field.density_to_field(rho, spec))
    other = field.GridSpec((8, 8, 8), (1.0, 1.0, 1.0), (-4.0, -4.0, -4.0))
    with pytest.raises(ValueError):
        field.density_to_field(grid_rho, other)


def test_integrate_constant():
    spec = field.GridSpec((10, 10, 10), (0.1, 0.1, 0.1), (0.0, 0.0, 0.0))
    f = field.ScalarField(spec=spec, values=np.ones((10, 10, 10)))
    assert field.integrate(f) == pytest.approx(1.0, rel=1e-12)


def test_sobolev_ratio_preconditions():
    spec = field.GridSpec((25, 25, 25), (0.05, 0.05, 0.05), (-0.6, -0.6, -0.6))
    X, Y, Z = spec.meshgrid()
    u = field.ScalarField(spec=spec, values=X)  # vanishes on the x=0 plane
    r = field.sobolev_ratio(u, 4.0, 1.0)
    assert r > 0.0
    with pytest.raises(ValueError):
        field.sobolev_ratio(u, 3.0, 1.0)
    ones = field.ScalarField(spec=spec, values=np.ones(spec.dims))
    with pytest.raises(field.PreconditionError):
        field.sobolev_ratio(ones, 4.0, 1.0)


def test_sobolev_ratio_zero_field():
    spec = field.GridSpec((25, 25, 25), (0.05, 0.05, 0.05), (-0.6, -0.6, -0.6))
    z = field.ScalarField(spec=spec, values=np.zeros(spec.dims))
    assert field.sobolev_ratio(z, 4.0, 1.0) == 0.0



def _whole_grid_functionals(fld, theta, p):
    """Every integrand computed on the whole grid."""
    rho = fld.values
    vol = fld.spec.cell_volume
    positive = rho > 0

    def power_grad_integral(expo, q):
        g = np.gradient(rho**expo, *fld.spec.spacing)
        mag2 = g[0] ** 2 + g[1] ** 2 + g[2] ** 2
        mag2[~positive] = 0.0
        return vol * field._compensated_total(mag2 ** (q / 2.0))

    gx, gy, gz = np.gradient(rho, *fld.spec.spacing)
    return field.FunctionalSet(
        mass=vol * field._compensated_total(rho),
        l2=vol * field._compensated_total(rho**2),
        l43=vol * field._compensated_total(rho ** (4.0 / 3.0)),
        l53=vol * field._compensated_total(rho ** (5.0 / 3.0)),
        kin=power_grad_integral(0.5, 2.0),
        tv=vol * field._compensated_total(np.sqrt(gx**2 + gy**2 + gz**2)),
        thg=power_grad_integral(theta, p),
        theta=theta,
        p=p,
    )


SUPPORTS = {
    "sub_box": np.s_[7:19, 4:13, 9:30],
    # touches the x = 0, y = n2 - 1 and both z faces
    "grid_faces": np.s_[:6, 12:, :],
}


@pytest.mark.parametrize("theta, p", [(0.5, 4.0), (0.4, 3.5)])
@pytest.mark.parametrize("support", SUPPORTS)
def test_grid_functionals_equal_whole_grid_evaluation(support, theta, p):
    spec = field.GridSpec((26, 17, 41), (0.09, 0.12, 0.07), (-1.0, -1.0, -1.4))
    rng = np.random.default_rng(41)
    values = np.zeros(spec.dims)
    block = values[SUPPORTS[support]]
    # vacuum nodes inside the support exercise the gradient override
    block[...] = rng.uniform(0.0, 2.0, size=block.shape) * (rng.uniform(size=block.shape) > 0.2)
    fld = field.ScalarField(spec, values)
    assert field._grid_functionals(fld, theta, p) == _whole_grid_functionals(fld, theta, p)


def _chunk_loop_total(values):
    """One np.sum per 4096-node chunk, Neumaier across: the loop that
    _compensated_total vectorises."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    s = c = 0.0
    for start in range(0, flat.size, 4096):
        x = float(np.sum(flat[start:start + 4096]))
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


def test_compensated_total_equals_chunk_loop():
    rng = np.random.default_rng(7)
    cube = rng.normal(size=(40, 41, 43)) * 10.0 ** rng.uniform(-12, 12, size=(40, 41, 43))
    for values in (cube, cube[::2, 3:, ::3], cube.transpose(2, 0, 1), cube[0, 0, :5],
                   cube.astype(np.float32), np.zeros(0), np.float64(2.5), np.zeros(3 * 4096)):
        assert field._compensated_total(values) == _chunk_loop_total(values)
