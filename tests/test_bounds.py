import dataclasses
import math

import numpy as np
import pytest

from ldacert import bounds, field, kinetic


def test_tf_constant_two_routes():
    assert bounds.c_tf() == pytest.approx(bounds.c_tf3_product_form(), rel=1e-12)
    assert bounds.c_tf() == pytest.approx(9.115599744691195, rel=1e-12)


def test_lieb_oxford_gradient_constant():
    assert bounds.C_LO_GRAD == pytest.approx(1.4508, abs=5e-5)
    assert bounds.C_LO_GRAD == pytest.approx(
        0.6 * (4.5 * math.pi) ** (1.0 / 3.0), rel=1e-15)


def test_dirac_coefficient():
    assert bounds.b_dirac(1) == pytest.approx(-0.7385587663820223, rel=1e-12)
    # spin-q scaling is q^{-1/3}
    assert bounds.b_dirac(2) == pytest.approx(bounds.b_dirac(1) / 2 ** (1.0 / 3.0))


def test_constants_table_keys():
    table = bounds.constants_table()
    for key in ("c_tf", "c_lo", "c_lo_grad", "b_dirac"):
        assert key in table


def test_models(gauss_F):
    td = bounds.tf_dirac_model(1)
    to = bounds.tf_only_model(1)
    assert td.A == pytest.approx(bounds.c_tf())
    assert td.B == pytest.approx(bounds.b_dirac(1))
    assert to.B == 0.0
    cm = bounds.custom_model(2.0, -0.5)
    assert cm.e(1.0) == pytest.approx(1.5)
    assert cm.c_ueg == -0.5


def test_lda_energy_gaussian(gauss_F):
    got = bounds.lda_energy(gauss_F, bounds.tf_dirac_model(1))
    assert got == pytest.approx(0.4828917435303063, rel=1e-12)
    # ballpark pinned independently: A*0.073968 + B*0.25911
    assert got == pytest.approx(0.4828, rel=1e-2)


def test_energy_lower_flags(gauss_F):
    v1, conjectured = bounds.energy_lower(gauss_F)
    assert conjectured is True
    v2, flag2 = bounds.energy_lower(gauss_F, c_lt=1.0)
    assert flag2 is False
    assert v2 < v1


def test_energy_upper_min_gaussian(gauss_F):
    val, eps = bounds.energy_upper_min(gauss_F)
    assert val == pytest.approx(67.70648980405888, rel=1e-8)
    assert eps > 0.0
    # the refined minimum beats nearby evaluations
    assert val <= kinetic.t_upper(gauss_F, eps * 1.01) + 1e-12
    assert val <= kinetic.t_upper(gauss_F, eps * 0.99) + 1e-12


def test_sandwich_on_gaussian(gauss_F):
    lo, _ = bounds.energy_lower(gauss_F)
    hi, _ = bounds.energy_upper_min(gauss_F)
    assert lo <= hi


def test_e_envelope_bracket():
    lo, hi = bounds.e_envelope(2.0)
    assert lo == pytest.approx(-bounds.C_LO * 2.0 ** (4.0 / 3.0))
    assert hi == pytest.approx(bounds.c_tf() * 2.0 ** (5.0 / 3.0))
    assert lo <= hi


def test_spin_degeneracy_below_one_rejected(gauss_F):
    # every q^{-2/3} and q^{-1/3} site checks q, so q = 0 is a ValueError,
    # not a ZeroDivisionError
    for call in (lambda: bounds.e_envelope(1.0, q=0),
                 lambda: bounds.energy_lower(gauss_F, q=0),
                 lambda: bounds.b_dirac(0)):
        with pytest.raises(ValueError, match="at least 1"):
            call()


def test_lieb_oxford_gradient_bound(gauss_F):
    val, improves = bounds.lieb_oxford_gradient_bound(gauss_F, 0.1)
    assert val > 0.0
    assert isinstance(improves, bool)
    with pytest.raises(ValueError):
        bounds.lieb_oxford_gradient_bound(gauss_F, 0.0)


def _bounded_polish_reference(F, q):
    # the 400-point log grid on [1e-4, 1e3] and bounded golden-section polish
    # that energy_upper_min used before it called optimize_eps
    from scipy import optimize

    grid = np.logspace(-4.0, 3.0, 400)
    vals = np.array([kinetic.t_upper(F, e, q) for e in grid])
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(
        lambda e: kinetic.t_upper(F, e, q), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12})
    if res.fun <= vals[i]:
        return float(res.fun), float(res.x)
    return float(vals[i]), float(grid[i])


def _random_sets(seed, count):
    # l53 and kin log-uniform on [1e-4, 1e4], q = 1 or 2
    rng = np.random.default_rng(seed)
    for _ in range(count):
        l53, kin = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        F = field.FunctionalSet(mass=1.0, l2=1.0, l43=1.0, l53=float(l53),
                                kin=float(kin), tv=1.0, thg=1.0, theta=0.5, p=4.0)
        yield F, int(rng.integers(1, 3))


def test_energy_upper_min_matches_bounded_polish(gauss_F):
    inside = capped = 0
    for F, q in [(gauss_F, 1), *_random_sets(20261018, 120)]:
        val, eps = bounds.energy_upper_min(F, q)
        ref, ref_eps = _bounded_polish_reference(F, q)
        assert val == kinetic.t_upper(F, eps, q)
        if ref_eps < 1e3 * (1.0 - 1e-9):
            inside += 1
            assert val == pytest.approx(ref, rel=1e-14)
        else:
            # the grid capped eps at 1e3; the exact optimum lies beyond it
            capped += 1
            assert val <= ref
    assert inside > 0 and capped > 0


def test_optimize_eps_fractional_exponents():
    # g = eps + 2/sqrt(eps) + 1/eps: g' = 1 - eps^{-3/2} - eps^{-2} = 0
    eps, val = bounds.optimize_eps(1.0, 2.0, 1.0, 0.5, 1.0)
    assert 1.0 - eps**-1.5 - eps**-2.0 == pytest.approx(0.0, abs=1e-9)
    assert val == pytest.approx(eps + 2.0 / math.sqrt(eps) + 1.0 / eps, rel=1e-15)
    with pytest.raises(ValueError, match="finite e2"):
        bounds.optimize_eps(1.0, 1.0, 1.0, e1=0.0, e2=1.0)


def test_energy_upper_min_one_sided_infima(gauss_F):
    # kin = 0: the infimum a, approached as eps -> 0; l53 = 0: KAPPA_2 kin,
    # approached as eps -> inf.  Neither raises on its eps limit.
    flat = dataclasses.replace(gauss_F, kin=0.0)
    a = bounds._tf_coefficient(1) * gauss_F.l53
    assert bounds.energy_upper_min(flat) == (a, 0.0)
    thin = dataclasses.replace(gauss_F, l53=0.0)
    assert bounds.energy_upper_min(thin) == (bounds.KAPPA_2 * gauss_F.kin, math.inf)
