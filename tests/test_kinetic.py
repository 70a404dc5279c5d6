import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ldacert import field, kinetic


def _quad_over_lobes(env, f):
    lo, hi = env.support
    mid = lo + env.eps
    return sum(quad(f, a, b, epsabs=1e-13)[0] for a, b in ((lo, mid), (mid, hi)))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_basic_envelope_mass_and_fisher(eps):
    env = kinetic.eta_basic(eps)
    assert _quad_over_lobes(env, env.value) == pytest.approx(1.0, abs=1e-10)
    fisher0 = _quad_over_lobes(env, lambda t: env.derivative(t) ** 2 / env.value(t))
    assert fisher0 == pytest.approx(12.0 / eps**2, rel=1e-8)


def test_envelope_gates():
    with pytest.raises(ValueError):
        kinetic.eta_basic(1.0)
    with pytest.raises(ValueError):
        kinetic.eta_basic(0.0)
    # a shift large enough to push the support across t = 0
    with pytest.raises(ValueError):
        kinetic.eta_shifted(0.9, 1.2)


def test_moments_fields():
    eps = 0.25
    m = kinetic.moments(kinetic.eta_basic(eps))
    assert m.m0 == 1.0
    assert m.fisher0 == pytest.approx(12.0 / eps**2)
    # t^2-weighted fisher of the basic envelope: int 4c t^2 over the support
    want = (2.0 / eps**3) * ((1.0 + 2.0 * eps) ** 3 - 1.0)
    assert m.fisher == pytest.approx(want, rel=1e-10)
    assert m.minv > 0.0 and m.m2d > 1.0


def test_solve_b_inverse_moment():
    for eps in (0.5, 0.2, 0.05):
        b = kinetic.solve_b(eps)
        env = kinetic.eta_shifted(eps, b)
        minv = _quad_over_lobes(env, lambda t: env.value(t) / t)
        assert minv == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        kinetic.solve_b(0.6)


def test_solve_b_series():
    eps = 0.1
    series = 1.0 - eps / 10.0 - 3.0 * eps**3 / 350.0
    assert abs(kinetic.solve_b(eps) - series) <= 5.0 * eps**4


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9, 0.999])
def test_remark_b_margins(eps):
    b = kinetic.remark_b(eps)
    m = kinetic.moments(kinetic.eta_shifted(eps, b))
    assert m.minv <= 1.0
    assert m.m2d <= 1.0 + eps**2 / 15.0
    assert m.fisher <= 19.0 / eps**2


def test_t_upper_basics(gauss_F):
    v1 = kinetic.t_upper(gauss_F, 0.1)
    v2 = kinetic.t_upper(gauss_F, 0.2)
    assert v1 > 0.0 and v2 > 0.0
    assert math.isfinite(v1) and math.isfinite(v2)
    with pytest.raises(ValueError):
        kinetic.t_upper(gauss_F, 0.0)


def test_lower_bounds_order(gauss_F):
    lt = kinetic.t_lower_lt(gauss_F)
    ho = kinetic.t_lower_ho(gauss_F)
    nam = kinetic.t_lower_nam(gauss_F, 0.3)
    assert ho == pytest.approx(gauss_F.kin)
    lo, hi, _ = kinetic.kinetic_band(gauss_F)
    assert lo <= hi
    assert max(lt, ho, nam) <= hi
    assert lo >= max(lt, ho) - 1e-12


def test_kinetic_band_zero_density():
    F = field.FunctionalSet(mass=0, l2=0, l43=0, l53=0, kin=0, tv=0, thg=0,
                            theta=0.5, p=4.0)
    assert kinetic.kinetic_band(F) == (0.0, 0.0, None)


def test_kinetic_band_rejects_q_below_one(gauss_F):
    with pytest.raises(ValueError, match="at least 1"):
        kinetic.kinetic_band(gauss_F, q=0)
    with pytest.raises(ValueError, match="at least 1"):
        kinetic.t_lower_lt(gauss_F, q=0.5)


def _quad_fisher(env):
    # the two-lobe quad route moments() took for fisher before its closed form
    lo, hi = env.support
    mid = lo + env.eps
    return sum(quad(lambda t: 4.0 * env.c * t**2, a, b, epsabs=1e-13, epsrel=1e-11)[0]
               for a, b in ((lo, mid), (mid, hi)))


@pytest.mark.parametrize("eps", [0.999, 0.5, 0.1, 0.01])
def test_fisher_closed_form_matches_quad(eps):
    shifts = [0.0, kinetic.remark_b(eps)] + ([kinetic.solve_b(eps)] if eps <= 0.5 else [])
    for b in shifts:
        env = kinetic.eta_shifted(eps, b)
        assert kinetic.moments(env).fisher == pytest.approx(_quad_fisher(env), rel=1e-12)


def _scan_band(F, q):
    # the 200-point log scans on [1e-4, 1] kinetic_band used before its
    # closed forms: Nam's lower bound, and both upper variants
    grid = np.logspace(-4.0, 0.0, 200)
    nam = max(kinetic.t_lower_nam(F, e, q) for e in grid[grid < 1.0])
    lower = max(kinetic.t_lower_lt(F, q), kinetic.t_lower_ho(F), nam)
    upper = min(min(kinetic.t_upper(F, e, q, "general"),
                    kinetic.t_upper(F, e, q, "3d-small-eps")) for e in grid)
    return lower, upper


def test_kinetic_band_closed_forms_match_scans():
    rng = np.random.default_rng(20261018)
    grid = np.logspace(-4.0, 0.0, 200)
    interior = 0
    for _ in range(500):
        l53, kin = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        q = int(rng.integers(1, 3))
        F = field.FunctionalSet(mass=1.0, l2=1.0, l43=1.0, l53=float(l53),
                                kin=float(kin), tv=1.0, thg=1.0, theta=0.5, p=4.0)
        a = kinetic.t_lower_lt(F, q)
        lower, upper, eps_upper = kinetic.kinetic_band(F, q)
        # Nam's bound never reaches Lieb-Thirring
        assert all(kinetic.t_lower_nam(F, e, q) < a for e in grid[grid < 1.0])
        # the general variant is at least a + 2 sqrt(48 a kin) and at least
        # a + 192 kin on (0, 1]; the 3d-small-eps minimum is below both
        floor = max(a + 2.0 * math.sqrt(48.0 * a * F.kin), a + 192.0 * F.kin)
        assert all(kinetic.t_upper(F, e, q, "general") >= floor * (1.0 - 1e-15)
                   for e in grid)
        assert upper <= floor
        assert upper == kinetic.t_upper(F, eps_upper, q, "3d-small-eps")
        scan_lower, scan_upper = _scan_band(F, q)
        assert lower == scan_lower
        assert upper <= scan_upper
        assert upper == pytest.approx(scan_upper, rel=2e-4)
        interior += eps_upper < 1.0
    assert 0 < interior < 500


def test_kinetic_band_without_gradient(gauss_F):
    # kin = 0: the upper bound is its infimum a, approached as eps -> 0
    F = dataclasses.replace(gauss_F, kin=0.0)
    a = kinetic.t_lower_lt(F)
    assert kinetic.kinetic_band(F) == (a, a, 0.0)
