"""Command-line front end: certify, scaling, verify, tile, info.

stdout carries the machine-readable payload (JSON or tables); the resolved
configuration and diagnostics go to stderr.  Exit codes: 0 success, 2
parameter rejection (including unreadable inputs), 3 accuracy failure.
"""

import dataclasses
import functools
import math
import sys

import click
import numpy as np

from . import bounds, certificate, coulomb, field, kinetic, tiling

#: single source of truth for the verification-suite tolerances (printed
#: by `info`, asserted by `verify`)
TOLERANCES = {
    "kinetic.envelope_mass": 1e-10,
    "kinetic.fisher_identity": 1e-8,
    "kinetic.shift_series": 5e-4,
    "kinetic.margins": 1e-12,
    "kinetic.c_tf": 1e-12,
    "kinetic.c_lo_grad": 5e-5,
    "tiling.volumes": 1e-14,
    "tiling.exact_cover": 1e-3,
    "tiling.partition_of_unity": 1e-10,
    "tiling.reduced_sum_lattice": 1e-10,
    "tiling.cube_transform_lattice": 1e-10,
    "tiling.chi_mass": 1e-4,
    "coulomb.hartree_gaussian": 5e-3,
    "coulomb.kernel_moment_zero": 1e-10,
    "coulomb.annulus_closed_form": 1e-9,
    "coulomb.periodic_identity": 1e-2,
    "lemmas.optimize_eps": 1e-9,
    "lemmas.scale_choice": 1e-12,
    "lemmas.classical_exponent": 1e-15,
    "lemmas.subadditivity_vanishing": 1e-12,
    "lemmas.kinetic_band_order": 1e-12,
    "lemmas.rhs_linearity": 1e-12,
    "lemmas.parameter_gates": 0.5,
    "lemmas.classical_rate": 1e-3,
}


def _echo_config(name, **kv):
    pairs = " ".join(f"{k}={v}" for k, v in kv.items())
    click.echo(f"# {name} {pairs}", err=True)


def _guarded(fn):
    """Map module errors onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (field.SupportError, kinetic.SolverError) as exc:
            click.echo(f"accuracy failure: {exc}", err=True)
            sys.exit(3)
        except (OSError, ValueError, ArithmeticError) as exc:
            # OSError: a file that is missing, a directory or not readable;
            # ArithmeticError: finite parameters whose functionals overflow
            # or divide by zero (for instance a gaussian with sigma = 1e-200)
            click.echo(f"parameter rejection: {exc}", err=True)
            sys.exit(2)

    return wrapper


# ---------------------------------------------------------------------------
# density and model parsing


#: builtin density names and their families; a builtin's keys are its
#: family's parameters, all of them required
_BUILTINS = {
    "gaussian": field.Gaussian,
    "compact-bump": field.CompactBump,
    "smeared-tetra": field.SmearedTetra,
}


def parse_density(spec):
    """file path or builtin:<name>,key=val,... -> Density"""
    if spec.startswith("builtin:"):
        body = spec[len("builtin:"):]
        parts = body.split(",")
        name = parts[0].strip().replace("_", "-")
        if name not in _BUILTINS:
            raise click.BadParameter(
                f"unknown builtin density {name!r}; choices: {sorted(_BUILTINS)}")
        family = _BUILTINS[name]
        keys = tuple(f.name for f in dataclasses.fields(family))
        kv = {}
        for item in parts[1:]:
            if "=" not in item:
                raise click.BadParameter(f"expected key=val, got {item!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in keys:
                raise click.BadParameter(
                    f"unknown key {key!r} for {name}; expected {keys}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise click.BadParameter(f"bad numeric value {val!r} for {key}")
        missing = [k for k in keys if k not in kv]
        if missing:
            raise click.BadParameter(f"builtin {name} is missing {missing}")
        return family(**kv)
    return field.Density.grid(field.read_grid(spec))


def parse_model(spec, q):
    name = spec.strip()
    if name == "tf-dirac":
        return bounds.tf_dirac_model(q)
    if name == "tf-only":
        return bounds.tf_only_model(q)
    if name.startswith("custom:"):
        body = name[len("custom:"):]
        try:
            a_str, b_str = body.split(",")
            return bounds.custom_model(float(a_str), float(b_str))
        except ValueError:
            raise click.BadParameter(
                f"custom model must be custom:<A>,<B>, got {spec!r}")
    raise click.BadParameter(
        f"unknown model {spec!r}; choices: tf-dirac, tf-only, custom:<A>,<B>")


def _parse_sweep(text):
    try:
        lo_str, hi_str, n_str = text.split(":")
        lo, hi, n = float(lo_str), float(hi_str), int(n_str)
    except ValueError:
        raise click.BadParameter(f"--N must be from:to:points, got {text!r}")
    if not (lo > 0 and hi > lo and n >= 3):
        raise click.BadParameter(f"need 0 < from < to and points >= 3, got {text!r}")
    return np.logspace(math.log10(lo), math.log10(hi), n)


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Certified error bands for local-density energy approximations."""


@main.command()
@click.option("--density", required=True, help="grid file or builtin:<name>,key=val,...")
@click.option("--p", type=float, default=4.0, show_default=True)
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--c", "--C", "c_const", type=float, default=1.0, show_default=True,
              help="analysis constant C")
@click.option("--q", type=int, default=1, show_default=True)
@click.option("--variant", type=click.Choice(["quantum", "xc", "classical"]),
              default="quantum", show_default=True)
@click.option("--model", default="tf-dirac", show_default=True,
              help="tf-dirac | tf-only | custom:<A>,<B>")
@_guarded
def certify(density, p, theta, c_const, q, variant, model):
    """Emit the JSON certificate of a density."""
    _echo_config("certify", density=density, p=p, theta=theta, C=c_const,
                 q=q, variant=variant, model=model)
    rho = parse_density(density)
    params = certificate.CertParams(p=p, theta=theta, C=c_const, q=q,
                                    variant=variant)
    cert = certificate.certify(rho, params, parse_model(model, q))
    click.echo(certificate.report_json(cert), nl=False)


@main.command()
@click.option("--variant", type=click.Choice(["quantum", "xc", "classical"]),
              default="quantum", show_default=True)
@click.option("--p", type=float, default=4.0, show_default=True)
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--n", "--N", "sweep", required=True, help="from:to:points (log-spaced)")
@_guarded
def scaling(variant, p, theta, sweep):
    """Optimized certificate totals along a dilation sweep, plus the rate."""
    _echo_config("scaling", variant=variant, p=p, theta=theta, N=sweep)
    n_list = _parse_sweep(sweep)
    params = certificate.CertParams(p=p, theta=theta, variant=variant)
    F = field.FunctionalSet(mass=1.0, l2=1.0, l43=1.0, l53=1.0, kin=1.0,
                            tv=1.0, thg=1.0, theta=theta, p=p)
    totals, slope = certificate.scaling_sweep(F, params, n_list)
    click.echo("N total")
    for N, total in zip(n_list, totals):
        click.echo("%.17g %.17g" % (N, total))
    click.echo("slope %.17g" % slope)


@main.command()
@click.option("--ell", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def tile(ell, delta, out):
    """Write the regularized cutoff of tile 1 as an LDA-GRID v2 file."""
    _echo_config("tile", ell=ell, delta=delta, out=out)
    cfg = tiling.TilingConfig(ell, delta)
    n = 64
    # the box the smeared_tetra family samples the same tile in
    spec = field.default_grid(field.Density.smeared_tetra(1.0, ell, delta), n)
    field.write_grid(tiling.sample_field(cfg, 1, spec, kind="chi"), out)
    click.echo(f"# wrote {out} ({n}^3 samples)", err=True)


@main.command()
def info():
    """Print the constants and the verification tolerance table."""
    _echo_config("info")
    click.echo("constants")
    for name, value in bounds.constants_table().items():
        click.echo("  %-28s %.17g" % (name, value))
    click.echo("tolerances")
    for name, tol in TOLERANCES.items():
        click.echo("  %-34s %.1e" % (name, tol))


# ---------------------------------------------------------------------------
# verification suites


def _suite_kinetic():
    checks = []
    x, w = np.polynomial.legendre.leggauss(4)

    def lobe_sum(f, env):
        # 4-node Gauss-Legendre on each parabolic lobe: exact for the
        # quadratic mass integrand and for the constant eta'^2/eta
        lo, hi = env.support
        return sum(0.5 * (b - a) * float(w @ f(0.5 * (b - a) * x + 0.5 * (a + b)))
                   for a, b in ((lo, lo + env.eps), (lo + env.eps, hi)))

    for eps in (0.5, 0.1):
        env = kinetic.eta_basic(eps)
        mass = lobe_sum(env.value, env)
        checks.append(("kinetic.envelope_mass", abs(mass - 1.0)))
        fisher0 = lobe_sum(lambda t: env.derivative(t) ** 2 / env.value(t), env)
        checks.append(("kinetic.fisher_identity",
                       abs(fisher0 - 12.0 / eps**2) / (12.0 / eps**2)))
    eps = 0.1
    b = kinetic.solve_b(eps)
    series = 1.0 - eps / 10.0 - 3.0 * eps**3 / 350.0
    checks.append(("kinetic.shift_series", abs(b - series)))
    viol = 0.0
    for eps in (0.999, 0.5, 0.1):
        env = kinetic.eta_shifted(eps, kinetic.remark_b(eps))
        m = kinetic.moments(env)
        viol = max(viol, m.minv - 1.0, m.m2d - (1.0 + eps**2 / 15.0),
                   m.fisher * eps**2 - 19.0)
    checks.append(("kinetic.margins", max(viol, 0.0)))
    checks.append(("kinetic.c_tf",
                   abs(bounds.c_tf() - bounds.c_tf3_product_form())
                   / bounds.c_tf()))
    checks.append(("kinetic.c_lo_grad", abs(bounds.C_LO_GRAD - 1.4508)))
    return checks


def _suite_tiling():
    checks = []
    tiles = tiling.unit_cube_tetrahedra()
    vol_res = max(abs(t.volume - 1.0 / 24.0) for t in tiles)
    checks.append(("tiling.volumes", vol_res))

    rng = np.random.default_rng(20260818)
    pts = rng.uniform(-0.5, 0.5, size=(2000, 3))
    counts = np.zeros(len(pts), dtype=int)
    for t in tiles:
        counts += t.contains(pts)
    checks.append(("tiling.exact_cover", float(np.mean(counts != 1))))

    # points deep enough inside the central cell that only its own 24 tiles
    # can contribute (the smearing reaches delta/10 = 0.1 past a tile)
    cfg = tiling.TilingConfig(4.0, 1.0)
    sample = rng.uniform(-1.8, 1.8, size=(60, 3))
    total = np.zeros(len(sample))
    for j in range(1, 25):
        total += tiling.xi_values(cfg, j, sample)
    checks.append(("tiling.partition_of_unity", float(np.max(np.abs(total - 1.0)))))

    res = max(abs(tiling.reduced_sum(0.0, 2.0 * math.pi * np.asarray(m)))
              for m in [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
    checks.append(("tiling.reduced_sum_lattice", float(res)))
    res = max(abs(tiling.cube_fourier(2.0 * math.pi * np.asarray(m)))
              for m in [(1, 0, 0), (1, 1, 1), (3, 2, 1)])
    checks.append(("tiling.cube_transform_lattice", float(res)))

    mass = tiling.chi_mass(cfg, 1)
    checks.append(("tiling.chi_mass", abs(mass - 4.0**3 / 24.0) / (4.0**3 / 24.0)))
    return checks


def _annulus_by_panels(r, alpha):
    """annulus_conv by quadrature, independent of its antiderivative:
    2 pi r int s log((s+1)/|s-1|) ds over [1/(r(1+a)), 1/(r(1-a))], with
    10-node Gauss-Legendre panels in t = |s - 1| on each side of the log
    point, halved up to 60 times toward t = 0.  The integrand takes t
    itself, so a node whose s rounds to 1 stays finite."""
    lo, hi = 1.0 / (1.0 + alpha), 1.0 / (1.0 - alpha)
    if r == 0.0:
        return 4.0 * math.pi * (hi - lo)  # |y|^-2 over the shell
    x, w = np.polynomial.legendre.leggauss(10)
    total = 0.0
    for side in (-1.0, 1.0):  # s = 1 + side t
        near, far = sorted(max(side * (b / r - 1.0), 0.0) for b in (lo, hi))
        if far <= near:
            continue
        cuts = far * 0.5 ** np.arange(61)
        cuts = np.append(cuts[cuts > near], near)
        half, mid = 0.5 * (cuts[:-1] - cuts[1:]), 0.5 * (cuts[:-1] + cuts[1:])
        t = mid[:, None] + half[:, None] * x
        s = 1.0 + side * t
        total += float(np.sum(half * ((s * np.log((s + 1.0) / t)) @ w)))
    return 2.0 * math.pi * r * total


def _suite_coulomb():
    checks = []
    rho = field.Density.gaussian(sigma=1.0, mass=1.0)
    spec = field.default_grid(rho, 64)
    num = coulomb.hartree(rho, spec)
    exact = field.gaussian_hartree(1.0, 1.0)
    checks.append(("coulomb.hartree_gaussian", abs(num - exact) / exact))

    mom = coulomb.kernel_moment(rho, np.zeros((1, 3)), spec)
    checks.append(("coulomb.kernel_moment_zero",
                   abs(2.0 * math.pi * float(np.real(mom)) - num) / num))

    rs = np.array([0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
    worst = max(abs(coulomb.annulus_conv(r, 0.25) - _annulus_by_panels(r, 0.25))
                / _annulus_by_panels(r, 0.25) for r in rs)
    checks.append(("coulomb.annulus_closed_form", worst))

    lhs, rhs_ = coulomb.periodic_localization_identity(
        rho, {(1, 0, 0): 0.3 + 0.2j, (-1, 0, 0): 0.3 - 0.2j}, ell=16.0,
        spec=field.default_grid(rho, 32))
    checks.append(("coulomb.periodic_identity", abs(lhs - rhs_) / abs(rhs_)))
    return checks


def _suite_lemmas():
    checks = []
    e1, g1 = bounds.optimize_eps(1.0, 1.0, 0.0, 1.0, 15.0)
    e2, g2 = bounds.optimize_eps(1.0, 0.0, 1.0, 1.0, 15.0)
    res = max(abs(e1 - 1.0), abs(g1 - 2.0),
              abs(e2 - 15.0 ** (1.0 / 16.0)),
              abs(g2 - (15.0 ** (1.0 / 16.0) + 15.0 ** (-15.0 / 16.0))))
    checks.append(("lemmas.optimize_eps", res))

    res = 0.0
    for eps in (0.01, 0.1, 0.5):
        ell, delta = certificate.choice_ell_delta(eps)
        res = max(res, abs(delta**2 + 1.0 / (ell * delta) - 2.0 * eps) / (2.0 * eps))
    checks.append(("lemmas.scale_choice", res))

    checks.append(("lemmas.classical_exponent",
                   abs(certificate.classical_b(4.0, 0.5) - 7.0)))

    F = field.functionals(field.Density.gaussian(sigma=1.0, mass=1.0))
    Fz = field.FunctionalSet(mass=0, l2=0, l43=0, l53=0, kin=0, tv=0, thg=0,
                             theta=0.5, p=4.0)
    got = certificate.subadditivity_gap(F, Fz, 0.0, 0.25)
    want = 0.25 * (F.l53 + F.l43) + 0.25 * F.kin
    checks.append(("lemmas.subadditivity_vanishing", abs(got - want) / want))

    lo_k = kinetic.kinetic_band(F)[0]
    _, t_hi = certificate.t_band_estimate(F, 0.3)
    checks.append(("lemmas.kinetic_band_order", max(0.0, lo_k - t_hi) / t_hi))

    params = certificate.CertParams(p=4.0, theta=0.5)
    F1 = field.FunctionalSet(mass=1, l2=1, l43=1, l53=1, kin=1, tv=1, thg=1,
                             theta=0.5, p=4.0)
    F2 = field.FunctionalSet(mass=2, l2=2, l43=2, l53=2, kin=2, tv=2, thg=2,
                             theta=0.5, p=4.0)
    t1, _ = certificate.rhs(F1, 0.37, params)
    t2, _ = certificate.rhs(F2, 0.37, params)
    checks.append(("lemmas.rhs_linearity", abs(t2 - 2.0 * t1) / t2))

    gates = [
        certificate.validate_params(certificate.CertParams(p=4.0, theta=0.5))[0] is True,
        certificate.validate_params(certificate.CertParams(p=4.0, theta=0.9))[0] is False,
        certificate.validate_params(certificate.CertParams(p=3.0, theta=0.7))[0] is False,
        certificate.validate_params(
            certificate.CertParams(p=4.0, theta=0.3, variant="classical"))[0] is False,
    ]
    checks.append(("lemmas.parameter_gates", 0.0 if all(gates) else 1.0))

    _, slope = certificate.scaling_sweep(
        F1, certificate.CertParams(p=4.0, theta=0.5, variant="classical"),
        np.logspace(4, 12, 6))
    checks.append(("lemmas.classical_rate", abs(slope - 5.0 / 6.0)))
    return checks


_SUITES = {
    "kinetic": _suite_kinetic,
    "tiling": _suite_tiling,
    "coulomb": _suite_coulomb,
    "lemmas": _suite_lemmas,
}


@main.command()
@click.option("--suite", type=click.Choice([*_SUITES, "all"]), default="all",
              show_default=True)
@_guarded
def verify(suite):
    """Run the invariant suites; FAIL anywhere exits 3."""
    _echo_config("verify", suite=suite)
    names = list(_SUITES) if suite == "all" else [suite]
    failed = 0
    for name in names:
        for check, residual in _SUITES[name]():
            tol = TOLERANCES[check]
            ok = residual <= tol
            failed += 0 if ok else 1
            click.echo("%s %-34s residual=%.3e tol=%.1e"
                       % ("PASS" if ok else "FAIL", check, residual, tol))
    click.echo(f"# {'all checks passed' if failed == 0 else f'{failed} checks FAILED'}",
               err=True)
    if failed:
        sys.exit(3)


if __name__ == "__main__":
    main()
