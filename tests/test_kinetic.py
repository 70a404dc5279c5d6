import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import ldacert
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


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1e-4])
def test_solve_b_pins_the_inverse_moment_at_roundoff(eps):
    b = kinetic.solve_b(eps)
    assert abs(kinetic._minv_closed(eps, 1.0 - eps * b) - 1.0) <= 2e-15


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


def _m2d_reference(env):
    """int t^{2/3} eta at 40 digits, at the envelope's own float a and eps.

    The lobes are c (t - a)^2 and c (top - t)^2, top = a + 2 eps, and
    P(k, t) = 3/11 t^{11/3} - 3/4 k t^{8/3} + 3/5 k^2 t^{5/3} is an
    antiderivative of (t - k)^2 t^{2/3}.
    """
    import mpmath as mp

    with mp.workdps(40):
        a, eps = mp.mpf(env.a), mp.mpf(env.eps)
        mid, top = a + eps, a + 2 * eps

        def P(k, t):
            return 3 * mp.cbrt(t) ** 5 * (t * t / 11 - k * t / 4 + k * k / 5)

        return 3 / (2 * eps**3) * (P(a, mid) - P(a, a) + P(top, top) - P(top, mid))


@pytest.mark.parametrize("eps", [0.999999, 0.999, 0.9, 0.5, 0.1, 0.01, 1e-3, 1e-4])
def test_m2d_matches_mpmath(eps):
    # the two-lobe quad moments() used before was up to 3.6e-12 off at eps = 1e-4
    shifts = [0.0, kinetic.remark_b(eps)] + ([kinetic.solve_b(eps)] if eps <= 0.5 else [])
    envs = [kinetic.eta_shifted(eps, b) for b in shifts]
    if eps == 0.9:
        envs.append(kinetic.eta_shifted(0.9, 1.1))  # a = 0.01
    for env in envs:
        want = _m2d_reference(env)
        assert abs(kinetic.moments(env).m2d - want) <= 1e-14 * want, (env.eps, env.b)


_SCIPY_PROBE = """
import sys
from ldacert import bounds, field, kinetic
F = field.FunctionalSet(mass=1.0, l2=0.1, l43=0.8, l53=0.7, kin=0.75, tv=1.2,
                        thg=3.0, theta=0.5, p=4.0)
b = kinetic.solve_b(0.1)
kinetic.moments(kinetic.eta_shifted(0.1, b))
kinetic.kinetic_band(F)
bounds.energy_upper_min(F)
print(" ".join(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_kinetic_loads_no_scipy():
    # one bisection and closed or exact moments: no root finder or
    # quadrature from scipy behind solve_b, moments or the ceilings
    env = dict(os.environ, PYTHONPATH=str(Path(ldacert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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
