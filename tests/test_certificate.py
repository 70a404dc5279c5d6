import dataclasses
import json
import math

import numpy as np
import pytest

from ldacert import bounds, certificate, coulomb, field, tiling

QUANTUM = certificate.CertParams(p=4.0, theta=0.5)
CLASSICAL = certificate.CertParams(p=4.0, theta=0.5, variant="classical")


def unit_set(**overrides):
    kw = dict(mass=1.0, l2=1.0, l43=1.0, l53=1.0, kin=1.0, tv=1.0, thg=1.0,
              theta=0.5, p=4.0)
    kw.update(overrides)
    return field.FunctionalSet(**kw)


@pytest.mark.parametrize("params,ok,fragment", [
    (QUANTUM, True, ""),
    (certificate.CertParams(4.0, 0.9), False, "exceeds 1 + p/2"),
    (certificate.CertParams(3.0, 0.7), False, "must exceed 3"),
    (certificate.CertParams(4.0, 0.4), False, "below 2"),
    (certificate.CertParams(4.0, 0.3, variant="classical"), False,
     "below the classical gate"),
    (CLASSICAL, True, ""),
    (certificate.CertParams(4.0, 0.5, C=0.0), False, "must be positive"),
    (certificate.CertParams(4.0, 0.5, q=0), False, "at least 1"),
    (certificate.CertParams(4.0, 0.5, variant="thermo"), False,
     "unknown variant"),
    (certificate.CertParams(math.inf, 0.5), False, "must be finite"),
    (certificate.CertParams(4.0, 0.5, C=math.inf), False, "must be finite"),
])
def test_validate_params(params, ok, fragment):
    accepted, reason = certificate.validate_params(params)
    assert accepted is ok
    assert fragment in reason


def test_classical_exponent():
    assert certificate.classical_b(4.0, 0.5) == 7.0
    assert certificate.classical_b(4.0, 0.9) == pytest.approx(10.8)


def test_optimize_eps_pinned():
    assert bounds.optimize_eps(1.0, 1.0, 0.0) == pytest.approx((1.0, 2.0),
                                                                    rel=1e-9)
    eps, val = bounds.optimize_eps(1.0, 0.0, 1.0, 1.0, 15.0)
    assert eps == pytest.approx(15.0 ** (1.0 / 16.0), rel=1e-9)
    assert val == pytest.approx(15.0 ** (1.0 / 16.0) + 15.0 ** (-15.0 / 16.0),
                                rel=1e-9)
    assert bounds.optimize_eps(0.0, 0.3, 0.2) == (1.0, 0.5)
    assert bounds.optimize_eps(2.0, 0.0, 0.0) == (0.0, 0.0)


def test_optimize_eps_gates():
    with pytest.raises(ValueError):
        bounds.optimize_eps(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bounds.optimize_eps(1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        bounds.optimize_eps(1.0, 1.0, 1.0, e1=2.0, e2=1.0)
    # a non-finite coefficient used to stall the bracket search
    for coeffs in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            bounds.optimize_eps(*coeffs)
    with pytest.raises(ValueError, match="finite e2"):
        bounds.optimize_eps(1.0, 1.0, 1.0, e1=1.0, e2=math.inf)


def test_rhs_breakdown_and_linearity(gauss_F):
    total, parts = certificate.rhs(gauss_F, 0.37, QUANTUM)
    assert parts["total"] == total
    assert total == pytest.approx(parts["bulk"] + parts["kin"] + parts["theta"])
    want_kin = (1.0 + 0.37) / 0.37 * gauss_F.kin
    assert parts["kin"] == pytest.approx(want_kin, rel=1e-12)
    doubled = dataclasses.replace(
        gauss_F, mass=2 * gauss_F.mass, l2=2 * gauss_F.l2, l43=2 * gauss_F.l43,
        l53=2 * gauss_F.l53, kin=2 * gauss_F.kin, tv=2 * gauss_F.tv,
        thg=2 * gauss_F.thg)
    total2, _ = certificate.rhs(doubled, 0.37, QUANTUM)
    assert total2 == pytest.approx(2.0 * total, rel=1e-12)


def test_rhs_classical_has_no_kinetic_term(gauss_F):
    total, parts = certificate.rhs(gauss_F, 0.2, CLASSICAL)
    assert parts["kin"] == 0.0
    want = (0.2 * (gauss_F.mass + gauss_F.l43)
            + 0.2**-7.0 * gauss_F.thg)
    assert total == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        certificate.rhs(gauss_F, 0.0, QUANTUM)


def test_band_center_variants(gauss_F):
    model = bounds.tf_dirac_model(1)
    xc = certificate.band_center(gauss_F, certificate.CertParams(4.0, 0.5, variant="xc"),
                                 model)
    cl = certificate.band_center(gauss_F, CLASSICAL, model)
    want = bounds.b_dirac(1) * gauss_F.l43
    assert xc == pytest.approx(want, rel=1e-12)
    assert cl == pytest.approx(want, rel=1e-12)
    quantum = certificate.band_center(gauss_F, QUANTUM, model)
    assert quantum == pytest.approx(bounds.lda_energy(gauss_F, model), rel=1e-14)


def test_certify_gaussian_frozen():
    cert = certificate.certify(field.Density.gaussian(1.0, 1.0), QUANTUM)
    assert cert.eps_star == pytest.approx(0.94750031438888982, rel=1e-10)
    assert cert.rhs_total == pytest.approx(2.5221408838507084, rel=1e-10)
    assert cert.rhs_breakdown["bulk"] == pytest.approx(0.96877017122311371, rel=1e-10)
    assert cert.rhs_breakdown["kin"] == pytest.approx(1.5415564655867457, rel=1e-10)
    assert cert.rhs_breakdown["theta"] == pytest.approx(0.011814247040848816, rel=1e-10)
    assert cert.lda == pytest.approx(0.4828917435303063, rel=1e-12)
    assert cert.band[0] == pytest.approx(-2.0392491403204023, rel=1e-10)
    assert cert.band[1] == pytest.approx(3.0050326273810146, rel=1e-10)
    assert cert.functionals.hartree == pytest.approx(field.gaussian_hartree(1.0, 1.0),
                                                     rel=1e-15)
    assert cert.advisory_envelope[0] == pytest.approx(0.24930973929988026, rel=1e-10)
    assert cert.advisory_envelope[1] == pytest.approx(67.706489804058876, rel=1e-8)
    assert cert.flags == ("conjectured_constant", "eps_star_above_half")


@pytest.mark.parametrize("rho", [field.Density.gaussian(1.3, 0.7),
                                 field.Density.compact_bump(1.3, 1.0),
                                 field.Density.smeared_tetra(1.0, 2.0, 0.5)],
                         ids=["gaussian", "compact_bump", "smeared_tetra"])
def test_certify_analytic_samples_nothing(monkeypatch, rho):
    def forbidden(*args, **kwargs):
        raise AssertionError("an analytic certificate took the grid route")

    field.functionals(rho)  # a smeared tile builds its table here, on first use
    for module, name in ((field, "density_to_field"), (coulomb, "density_to_field"),
                         (coulomb, "hartree"), (tiling, "sample_field"),
                         (tiling, "convolved_indicator")):
        monkeypatch.setattr(module, name, forbidden)
    cert = certificate.certify(rho, QUANTUM)
    assert cert.functionals.hartree == rho.hartree() > 0.0


def test_certify_zero_density():
    cert = certificate.certify(field.Density.gaussian(1.0, 0.0), QUANTUM)
    assert cert.flags == ("exactly_flat",)
    assert cert.eps_star == 0.0
    assert cert.band == (0.0, 0.0)


def test_report_json_determinism():
    cert = certificate.certify(field.Density.gaussian(1.0, 1.0), QUANTUM)
    r1 = certificate.report_json(cert)
    r2 = certificate.report_json(
        certificate.certify(field.Density.gaussian(1.0, 1.0), QUANTUM))
    assert r1 == r2
    assert r1.endswith("\n")
    doc = json.loads(r1)
    assert doc["epsilon_star"] == cert.eps_star
    assert doc["params"]["variant"] == "quantum"
    assert "kappa" not in doc["params"]


def test_certify_ignores_n_grid():
    """certify takes a smeared tile's functionals from the tile table and its
    Hartree term from the closed form, so n_grid changes nothing."""
    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    cert = certificate.certify(rho, QUANTUM, n_grid=40)
    assert cert == certificate.certify(rho, QUANTUM)
    want = field.functionals(rho, theta=QUANTUM.theta, p=QUANTUM.p)
    assert dataclasses.replace(cert.functionals, hartree=None) == want
    assert cert.functionals.hartree == rho.hartree()


def test_certify_smeared_tetra_runs_no_coulomb_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a smeared-tile certificate ran a Coulomb transform")

    for name in ("hartree", "_spectrum"):
        monkeypatch.setattr(coulomb, name, forbidden)
    rho = field.Density.smeared_tetra(1.0, 2.0, 0.5)
    cert = certificate.certify(rho, QUANTUM)
    assert cert.functionals.hartree == rho.hartree() > 0.0


def _grid_gaussian():
    rho = field.Density.gaussian(1.0, 1.0)
    return field.Density.grid(field.density_to_field(rho, field.default_grid(rho, 24)))


@pytest.mark.parametrize("make,n_grid,sampled", [
    (_grid_gaussian, None, False),
], ids=["grid"])
def test_certify_samples_each_density_once(monkeypatch, make, n_grid, sampled):
    # the analytic families and the smeared tile are not sampled at all;
    # see test_certify_analytic_samples_nothing.  A grid density is
    # certified as it is, from its own samples.
    rho = make()
    original = field.density_to_field
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(field, "density_to_field", counting)
    monkeypatch.setattr(coulomb, "density_to_field", counting)
    certificate.certify(rho, QUANTUM, n_grid=n_grid)
    assert calls == ([rho] if sampled else [])


def test_scaling_sweep_rates():
    N = np.logspace(4, 12, 6)
    _, slope_q = certificate.scaling_sweep(unit_set(), QUANTUM, N)
    assert slope_q == pytest.approx(0.91643227189443766, rel=1e-6)
    assert abs(slope_q - 11.0 / 12.0) < 0.01
    _, slope_c = certificate.scaling_sweep(unit_set(), CLASSICAL, N)
    assert slope_c == pytest.approx(5.0 / 6.0, abs=1e-9)
    _, slope_c10 = certificate.scaling_sweep(
        unit_set(), dataclasses.replace(CLASSICAL, C=10.0), N)
    assert abs(slope_c10 - slope_c) < 1e-6


def test_scaling_sweep_gates():
    with pytest.raises(ValueError):
        certificate.scaling_sweep(unit_set(), QUANTUM, [1e4, 1e6])
    with pytest.raises(ValueError):
        certificate.scaling_sweep(unit_set(thg=0.0), CLASSICAL,
                                  [1e4, 1e6, 1e8])


def test_t_band_estimate_formula(gauss_F):
    lo, hi = certificate.t_band_estimate(gauss_F, 0.3)
    center = bounds.c_tf() * gauss_F.l53
    half = 0.3 * gauss_F.l53 + 0.3 ** (-13.0 / 3.0) * gauss_F.kin
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    with pytest.raises(ValueError):
        certificate.t_band_estimate(gauss_F, 0.0)


def test_tetra_band_margins():
    up, avg, pw = certificate.tetra_band(2.0, 10.0, 2.0, 0.25)
    assert up > 0 and avg > 0 and pw > 0
    with pytest.raises(ValueError):
        certificate.tetra_band(2.0, 10.0, 6.0, 0.25)
    with pytest.raises(ValueError):
        certificate.tetra_band(2.0, 10.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        certificate.tetra_band(0.001, 4.0, 1.0, 0.25)


def test_choice_ell_delta():
    for eps in (0.01, 0.1, 0.5):
        ell, delta = certificate.choice_ell_delta(eps)
        assert delta**2 + 1.0 / (ell * delta) == pytest.approx(2.0 * eps,
                                                               rel=1e-12)
    with pytest.raises(ValueError):
        certificate.choice_ell_delta(0.8)


def test_flatness_error_constant_density():
    """A constant density makes both displays collapse to closed forms."""
    spec = field.GridSpec((59, 59, 59), (0.1, 0.1, 0.1), (-2.9, -2.9, -2.9))
    rho = field.Density.grid(field.ScalarField(spec, np.full(spec.dims, 0.7)))
    upper, lower = certificate.flatness_error(rho, 0.25, QUANTUM, 4.0, 0.8)
    assert upper["kin"] == 0.0 and upper["theta"] == 0.0
    assert lower["kin"] == 0.0 and lower["theta"] == 0.0
    assert upper["rho_ref"] == pytest.approx(0.7, rel=1e-12)
    assert lower["rho_ref"] == pytest.approx(0.7, rel=1e-12)
    assert lower["transition_layer"] == pytest.approx(14.0, rel=1e-12)
    assert lower["bulk"] == pytest.approx(19.04, rel=1e-12)
    # int xi = ell^3/24, so the upper bulk term has a closed form too
    assert upper["bulk"] == pytest.approx(0.25 * (0.7 + 0.49) * 4.0**3 / 24.0,
                                          rel=1e-3)
    assert upper["weight_gradient"] > 0.0
    with pytest.raises(ValueError):
        certificate.flatness_error(rho, 0.6, QUANTUM, 4.0, 0.8)


def _flatness_density(pad, inside, outside):
    """A 59^3 grid density: inside(x) on tile 1's box (ell 4) widened by pad,
    outside(x) elsewhere."""
    spec = field.GridSpec((59, 59, 59), (0.1, 0.1, 0.1), (-2.9, -2.9, -2.9))
    verts = 4.0 * tiling.unit_cube_tetrahedra()[0].vertices
    lo, hi = verts.min(axis=0) - pad - 1e-9, verts.max(axis=0) + pad + 1e-9
    X, Y, Z = spec.meshgrid()
    nodes = np.stack([X, Y, Z], axis=-1)
    box = np.all((nodes >= lo) & (nodes <= hi), axis=-1)
    return field.Density.grid(field.ScalarField(spec, np.where(box, inside(X), outside(X))))


def test_flatness_error_takes_rho_min_on_the_tile_support():
    """The smeared tile lives within delta/10 of the tile, so a density that
    is 0.7 on that box has rho_min = 0.7, whatever it is outside."""
    rho = _flatness_density(0.08, lambda x: np.full(x.shape, 0.7),
                            lambda x: np.full(x.shape, 0.1))
    upper, lower = certificate.flatness_error(rho, 0.25, QUANTUM, 4.0, 0.8)
    assert upper["rho_ref"] == 0.7
    assert lower["rho_ref"] == 0.7


def test_flatness_error_sums_theta_on_the_delta_neighbourhood():
    """The fattened tile is the delta-neighbourhood of the tile: a density
    flat there and one node beyond has no theta-gradient term."""
    rho = _flatness_density(0.8 + 0.1, lambda x: np.full(x.shape, 0.7),
                            lambda x: 0.7 + 0.1 * np.sin(x))
    upper, lower = certificate.flatness_error(rho, 0.25, QUANTUM, 4.0, 0.8)
    assert upper["theta"] == 0.0 and lower["theta"] == 0.0


def test_flatness_error_refuses_a_non_finite_kin():
    """A density at 1.7e308 on two far x-planes and 0.5 elsewhere: its grid
    gradient overflows there, so kin is not finite and no term is returned."""
    spec = field.GridSpec((59, 59, 59), (0.1, 0.1, 0.1), (-2.9, -2.9, -2.9))
    values = np.full(spec.dims, 0.5)
    values[:2] = 1.7e308
    rho = field.Density.grid(field.ScalarField(spec, values))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        certificate.flatness_error(rho, 0.25, certificate.CertParams(7.0, 0.3), 4.0, 0.8)


@pytest.mark.parametrize("value", [1e153, 1e160])
def test_flatness_error_refuses_a_non_finite_bulk(value):
    """A constant density of 1e153 or 1e160: the upper bulk sum overflows,
    and from 1.34e154 on rho^2 does too, in both displays."""
    spec = field.GridSpec((59, 59, 59), (0.1, 0.1, 0.1), (-2.9, -2.9, -2.9))
    rho = field.Density.grid(field.ScalarField(spec, np.full(spec.dims, value)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="bulk"):
        certificate.flatness_error(rho, 0.25, QUANTUM, 4.0, 0.8)


def test_flatness_error_gaussian_values():
    """A gaussian on the default (ell 4, delta 0.8) flatness grid: every
    term, bit for bit, as computed with distances taken on every node."""
    upper, lower = certificate.flatness_error(
        field.Density.gaussian(1.0, 1.0), 0.25, QUANTUM, 4.0, 0.8)
    assert upper == {"bulk": 0.009286950229770902, "weight_gradient": 1.804695868245116,
                     "kin": 0.08404605382801758, "theta": 5129.957051666457,
                     "rho_ref": 0.00012134955920248059}
    assert lower == {"bulk": 1.0802670395093892, "transition_layer": 1.269723864750845,
                     "kin": 0.08404605382801758, "theta": 5129.957051666457,
                     "rho_ref": 0.06348619323754226}


def test_subadditivity_gap_formula():
    F1 = unit_set()
    F2 = unit_set(mass=0.1, l2=0.1, l43=0.1, l53=0.1, kin=0.1, tv=0.1, thg=0.1)
    got = certificate.subadditivity_gap(F1, F2, 0.02, 0.5, C=2.0)
    want = (2.0 * 0.5 * 2.0 + 2.0 * 0.5 ** (-2.0 / 3.0) * 0.1
            + 2.0 * (0.1 + 0.5) + 0.5 / 0.5 * 0.02)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        certificate.subadditivity_gap(F1, F2, 0.02, 1.5)
    with pytest.raises(ValueError):
        certificate.subadditivity_gap(F1, F2, 0.02, 0.0)


def test_subadditivity_gap_small_tail():
    """A faint tail on a unit bulk: the eps-optimized gap sits well under
    the eps = 1 value because the hartree term vanishes there."""
    F1 = field.functionals(field.Density.gaussian(1.0, 1.0))
    F2 = field.functionals(field.Density.gaussian(1.0, 0.05))
    D2 = field.gaussian_hartree(1.0, 0.05)
    at_one = certificate.subadditivity_gap(F1, F2, D2, 1.0)
    assert at_one == pytest.approx(1.12109110, rel=1e-6)
    grid = np.linspace(0.005, 1.0, 4000)
    best = min(certificate.subadditivity_gap(F1, F2, D2, e) for e in grid)
    assert best == pytest.approx(0.09773277, rel=1e-6)
    assert 9.0 < at_one / best < 14.0
