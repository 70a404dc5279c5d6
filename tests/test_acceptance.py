"""Acceptance gate: one test per numbered criterion, one printed verdict line
each.  Run with `pytest tests/test_acceptance.py -v -s` to see every line."""

import math
import subprocess
import sys

import numpy as np
from scipy.integrate import quad

from ldacert import bounds, certificate, coulomb, field, kinetic, tiling


def _verdict(num, ok, details):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {details}")
    return ok


def _lobe_quad(env, f):
    lo, hi = env.support
    return sum(quad(f, a, b, epsabs=1e-13, limit=200)[0]
               for a, b in ((lo, lo + env.eps), (lo + env.eps, hi)))


def test_criterion_01_envelope_identities():
    worst_mass = worst_fisher = 0.0
    for eps in (0.5, 0.1, 0.01):
        env = kinetic.eta_basic(eps)
        mass = _lobe_quad(env, env.value)
        fisher0 = _lobe_quad(env, lambda t: env.derivative(t) ** 2 / env.value(t))
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_fisher = max(worst_fisher,
                           abs(fisher0 - 12.0 / eps**2) / (12.0 / eps**2))
    ok = worst_mass <= 1e-10 and worst_fisher <= 1e-8
    assert _verdict(1, ok, f"mass residual {worst_mass:.2e} (tol 1e-10), "
                           f"fisher residual {worst_fisher:.2e} (tol 1e-8)")


def test_criterion_02_shift_solver_series():
    # The envelope is symmetric about its centre, so b has no eps^4 term:
    # b = 1 - eps/10 - 3 eps^3/350 - 37 eps^5/21000 + O(eps^7).
    eps_list = (0.1, 0.05, 0.025)
    c5 = -37.0 / 21000.0
    residuals = []
    bound_ok = True
    coeff_err = 0.0
    for eps in eps_list:
        r = kinetic.solve_b(eps) - (1.0 - eps / 10.0 - 3.0 * eps**3 / 350.0)
        residuals.append(abs(r))
        bound_ok = bound_ok and abs(r) <= 5.0 * eps**4
        coeff_err = max(coeff_err, abs(r / eps**5 / c5 - 1.0))
    coeff_ok = coeff_err <= 0.01
    x = np.log(np.asarray(eps_list))
    y = np.log(np.asarray(residuals))
    slope = float(np.polyfit(x, y, 1)[0])
    slope_ok = abs(slope - 5.0) <= 0.3
    ok = bound_ok and slope_ok and coeff_ok
    assert _verdict(2, ok, f"residuals within 5 eps^4: {bound_ok}; "
                           f"Richardson slope {slope:.3f} vs 5.0 +- 0.3: {slope_ok} "
                           f"(residual is next order in the expansion); "
                           f"residual/eps^5 vs -37/21000 rel error {coeff_err:.2e} "
                           f"(tol 1e-2): {coeff_ok}")


def test_criterion_03_moment_expansion():
    def v(eps):
        env = kinetic.eta_shifted(eps, kinetic.solve_b(eps))
        return (kinetic.moments(env).m2d - 1.0) / eps**2

    extrapolated = (4.0 * v(0.05) - v(0.1)) / 3.0
    rel = abs(extrapolated * 18.0 - 1.0)
    ok = rel <= 0.02
    assert _verdict(3, ok, f"eps-extrapolated (m2d-1)/eps^2 = {extrapolated:.9f}, "
                           f"rel error to 1/18: {rel:.2e} (tol 2e-2)")


def test_criterion_04_remark_margins():
    eps_values = np.linspace(0.05, 1.0, 20)
    eps_values[-1] = 0.999999
    worst = -np.inf
    for eps in eps_values:
        m = kinetic.moments(kinetic.eta_shifted(eps, kinetic.remark_b(eps)))
        worst = max(worst, m.minv - 1.0, m.m2d - (1.0 + eps**2 / 15.0),
                    (m.fisher - 19.0 / eps**2) * eps**2)
    ok = worst <= 1e-12
    assert _verdict(4, ok, f"worst margin violation {worst:.2e} over 20 eps values")


def test_criterion_05_constants():
    product_form = 3.0 ** (5.0 / 3.0) * 4.0 ** (1.0 / 3.0) * math.pi ** (4.0 / 3.0) / 5.0
    r1 = abs(bounds.c_tf() - product_form) / product_form
    r2 = abs(bounds.C_LO_GRAD - 1.4508)
    ok = r1 <= 1e-12 and r2 <= 5e-5
    assert _verdict(5, ok, f"c_tf rel residual {r1:.2e} (tol 1e-12), "
                           f"gradient constant off by {r2:.2e} (tol 5e-5)")


def _annulus_oracle(r, alpha):
    # Ray decomposition: for the inverse-square kernel the shell integral is
    # 2 pi int_{-1}^{1} (chord length in the shell along direction c) dc.
    lo, hi = 1.0 / (1.0 + alpha), 1.0 / (1.0 - alpha)

    def chord(R, c):
        disc = R * R - r * r * (1.0 - c * c)
        if disc <= 0.0:
            return 0.0
        root = math.sqrt(disc)
        if r < R:
            return -r * c + root
        return 2.0 * root if c < 0.0 else 0.0

    breaks = []
    for R in (lo, hi):
        if r > R:
            b = math.sqrt(1.0 - (R / r) ** 2)
            breaks.extend((-b, b))
    pts = sorted(b for b in breaks if -1.0 < b < 1.0)
    val, _ = quad(lambda c: chord(hi, c) - chord(lo, c), -1.0, 1.0,
                  points=pts or None, limit=200, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * math.pi * val


def test_criterion_06_annulus():
    worst = 0.0
    for alpha in (0.5, 0.4, 0.25, 0.1, 0.05):
        for r in (0.0, 0.5, 1.0, 1.5, 3.0):
            exact = coulomb.annulus_conv(r, alpha)
            oracle = _annulus_oracle(r, alpha)
            worst = max(worst, abs(exact - oracle) / oracle)
    quad_ok = worst <= 1e-3

    # At r = 1 the antiderivative gives sup ~ 4 pi alpha (log(1/alpha) + 1 + log 2).
    grid = np.arange(0.0, 8.0 + 0.005, 0.01)
    ratios = [coulomb.annulus_sup(alpha, grid)[0]
              / (alpha * (math.log(1.0 / alpha) + 1.0 + math.log(2.0)))
              for alpha in (0.5, 0.25, 0.1, 0.05)]
    spread = max(ratios) / min(ratios)
    sup_ok = spread <= 2.0
    scale = ratios[-1] / (4.0 * math.pi)
    scale_ok = abs(scale - 1.0) <= 0.01
    ok = quad_ok and sup_ok and scale_ok
    assert _verdict(6, ok, f"25-point oracle residual {worst:.2e} (tol 1e-3): "
                           f"{quad_ok}; sup/(alpha (log 1/alpha + 1 + log 2)) spread "
                           f"{spread:.3f} vs factor 2: {sup_ok}; at alpha = 0.05 "
                           f"its ratio to 4 pi is {scale:.4f} (tol 1e-2): {scale_ok}")


def test_criterion_07_tiling():
    tiles = tiling.unit_cube_tetrahedra()
    vol_ok = all(abs(t.volume - 1.0 / 24.0) <= 1e-14 for t in tiles)

    rng = np.random.default_rng(20260818)
    pts = rng.uniform(-0.5, 0.5, size=(2000, 3))
    counts = np.zeros(len(pts), dtype=int)
    for t in tiles:
        counts += t.contains(pts)
    cover = float(np.mean(counts == 1))

    sample = rng.uniform(-1.9, 1.9, size=(5, 3))
    residual = tiling.partition_residual(tiling.TilingConfig(4.0, 1.0), 32, sample)

    lattice_res = max(abs(tiling.reduced_sum(0.0, 2.0 * math.pi * np.asarray(m)))
                      for m in [(1, 0, 0), (1, 1, 0), (2, 1, 1), (3, 0, 0)])

    ms = [m for m in np.ndindex(5, 5, 5)]
    ms = [np.asarray(m) - 2 for m in ms if any(np.asarray(m) - 2)]
    fitted = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        best = 0.0
        for m in ms:
            k = 2.0 * math.pi * m.astype(float)
            M = tiling.moment_M(k)
            den = eps**4 + eps**2 * float(k @ k) * float(np.vdot(M, M).real)
            best = max(best, abs(tiling.reduced_sum(eps, k)) ** 2 / den)
        fitted.append(best)
    stable = max(max(a / b, b / a) for a, b in zip(fitted, fitted[1:]))

    ok = (vol_ok and cover >= 0.999 and residual <= 1e-4
          and lattice_res <= 1e-10 and stable <= 2.0)
    assert _verdict(7, ok, f"volumes exact: {vol_ok}; cover {cover:.4f}; "
                           f"chi residual {residual:.2e}; lattice sum {lattice_res:.2e}; "
                           f"ratio stability {stable:.3f}")


def test_criterion_08_coulomb():
    rho = field.Density.gaussian(1.0, 1.0)
    num = coulomb.hartree(rho, field.default_grid(rho, 64))
    exact = field.gaussian_hartree(1.0, 1.0)
    r1 = abs(num - exact) / exact

    lhs, rhs = coulomb.periodic_localization_identity(
        rho, {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j}, ell=16.0,
        spec=field.default_grid(rho, 32))
    r2 = abs(lhs - rhs) / abs(rhs)
    ok = r1 <= 5e-3 and r2 <= 1e-2
    assert _verdict(8, ok, f"hartree residual {r1:.2e} (tol 5e-3), "
                           f"periodic identity residual {r2:.2e} (tol 1e-2)")


def test_criterion_09_functional_convergence():
    errs = []
    for n in (49, 97, 193):
        h = 16.0 / (n - 1)
        spec = field.GridSpec((n, n, n), (h, h, h), (-8.0, -8.0, -8.0))
        f = field.density_to_field(field.Density.gaussian(1.0, 1.0), spec)
        F = field.functionals(field.Density.grid(f))
        errs.append(abs(F.kin - 0.75))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    final_rel = errs[-1] / 0.75
    ok = min(ratios) >= 3.0 and final_rel <= 5e-3
    assert _verdict(9, ok, f"kin error ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
                           f"(need >= 3); final rel error {final_rel:.2e} (tol 5e-3)")


def test_criterion_10_scaling_rates():
    N = np.logspace(4, 12, 6)
    q_slopes = []
    for C in (0.5, 1.0, 2.0):
        params = certificate.CertParams(4.0, 0.5, C=C)
        q_slopes.append(certificate.scaling_sweep(_unit_set(), params, N)[1])
    c_slopes = []
    for C in (1.0, 10.0):
        params = certificate.CertParams(4.0, 0.5, C=C, variant="classical")
        c_slopes.append(certificate.scaling_sweep(_unit_set(), params, N)[1])
    q_ok = all(abs(s - 11.0 / 12.0) <= 0.01 for s in q_slopes)
    c_ok = all(abs(s - 5.0 / 6.0) <= 0.01 for s in c_slopes)
    inv_ok = abs(c_slopes[0] - c_slopes[1]) <= 1e-6
    ok = q_ok and c_ok and inv_ok
    assert _verdict(10, ok, f"quantum slopes {[f'{s:.5f}' for s in q_slopes]} "
                            f"(11/12 +- 0.01), classical {[f'{s:.5f}' for s in c_slopes]} "
                            f"(5/6 +- 0.01), C-drift {abs(c_slopes[0] - c_slopes[1]):.1e}")


def _unit_set():
    return field.FunctionalSet(mass=1.0, l2=1.0, l43=1.0, l53=1.0, kin=1.0,
                               tv=1.0, thg=1.0, theta=0.5, p=4.0)


def _corpus():
    densities = [
        field.Density.gaussian(1.0, 1.0),
        field.Density.gaussian(0.5, 1.0),
        field.Density.gaussian(2.0, 3.0),
        field.Density.gaussian(1.0, 0.2),
        field.Density.compact_bump(1.0, 1.0),
        field.Density.compact_bump(2.0, 5.0),
        field.Density.compact_bump(0.7, 0.3),
        field.Density.smeared_tetra(1.0, 6.0, 1.5),
        field.Density.smeared_tetra(2.0, 10.0, 2.0),
    ]
    g = field.Density.gaussian(1.0, 1.0)
    densities.append(field.Density.grid(
        field.density_to_field(g, field.default_grid(g, 48))))
    return densities


def test_criterion_11_sandwich_consistency():
    violations = []
    for i, rho in enumerate(_corpus()):
        F = field.functionals(rho)
        lower, _ = bounds.energy_lower(F)
        upper, _ = bounds.energy_upper_min(F)
        if not lower <= upper:
            violations.append(f"density {i}: energy {lower} > {upper}")
        lo, hi, _ = kinetic.kinetic_band(F)
        if not lo <= hi:
            violations.append(f"density {i}: kinetic band empty")
        for eps in (0.1, 0.3, 0.5):
            t_lo, t_hi = certificate.t_band_estimate(F, eps)
            if t_lo > hi or t_hi < lo:
                violations.append(f"density {i}: t-band eps={eps} disjoint")
    ok = not violations
    assert _verdict(11, ok, f"{len(violations)} violations over 10 densities"
                            + (f": {violations[:3]}" if violations else ""))


def test_criterion_12_parameter_gates():
    accept = certificate.validate_params(certificate.CertParams(4.0, 0.5))[0]
    r1 = not certificate.validate_params(certificate.CertParams(4.0, 0.9))[0]
    r2 = not certificate.validate_params(certificate.CertParams(3.0, 0.7))[0]
    r3 = not certificate.validate_params(
        certificate.CertParams(4.0, 0.3, variant="classical"))[0]
    b_ok = certificate.classical_b(4.0, 0.5) == 7.0
    ok = accept and r1 and r2 and r3 and b_ok
    assert _verdict(12, ok, f"accept (4,0.5): {accept}; reject (4,0.9)/(p=3)/"
                            f"classical (4,0.3): {r1}/{r2}/{r3}; b(4,0.5)=7: {b_ok}")


def test_criterion_13_direct_error_scaling():
    rho = field.Density.gaussian(1.0, 1.0)
    l2 = field.functionals(rho).l2
    ks = []
    errs = []
    for delta in (0.4, 0.2, 0.1):
        err = tiling.tiling_direct_error(rho, tiling.TilingConfig(4.0, delta),
                                         4, n_grid=32)
        errs.append(err)
        ks.append(err / (delta**2 * l2))
    stable = max(ks) / min(ks)
    mono = errs[0] > errs[1] > errs[2] > 0.0
    zero = tiling.tiling_direct_error(field.Density.gaussian(1.0, 0.0),
                                      tiling.TilingConfig(4.0, 0.4), 3,
                                      n_grid=16) == 0.0
    ok = stable <= 2.0 and mono and zero
    assert _verdict(13, ok, f"K values {[f'{k:.4f}' for k in ks]}, spread "
                            f"{stable:.3f} (tol 2); monotone: {mono}; zero: {zero}")


def _run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ldacert.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_criterion_14_cli_contract(tmp_path):
    grid_path = tmp_path / "tile.grid"
    r = _run_cli(["tile", "--ell", "4", "--delta", "1", "--out", str(grid_path)])
    f = field.read_grid(str(grid_path))
    copy = tmp_path / "copy.grid"
    field.write_grid(f, str(copy))
    round_trip = grid_path.read_bytes() == copy.read_bytes()

    args = ["certify", "--density", "builtin:gaussian,sigma=1,mass=1"]
    out1 = _run_cli(args)
    out2 = _run_cli(args)
    identical = out1.stdout == out2.stdout and out1.returncode == 0

    tight_spec = field.GridSpec((32, 32, 32), (4.0 / 31,) * 3, (-2.0,) * 3)
    tight = field.density_to_field(field.Density.gaussian(1.0, 1.0), tight_spec)
    tight_path = tmp_path / "tight.grid"
    field.write_grid(tight, str(tight_path))
    bad_header = tmp_path / "bad.grid"
    bad_header.write_text("NOT-A-GRID 1 2 3\n")

    codes = {
        "success": (_run_cli(args).returncode, 0),
        "bad p": (_run_cli(args + ["--p", "3"]).returncode, 2),
        "missing file": (
            _run_cli(["certify", "--density", str(tmp_path / "nope.grid")]).returncode, 2),
        "bad header": (
            _run_cli(["certify", "--density", str(bad_header)]).returncode, 2),
        "support failure": (
            _run_cli(["certify", "--density", str(tight_path)]).returncode, 3),
    }
    codes_ok = all(got == want for got, want in codes.values())
    ok = round_trip and identical and codes_ok and r.returncode == 0
    assert _verdict(14, ok, f"round-trip bit-exact: {round_trip}; certify "
                            f"byte-identical (incl. thread env): {identical}; exit codes "
                            + ", ".join(f"{k}={got}" for k, (got, _) in codes.items()))
