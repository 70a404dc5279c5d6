"""Seeded inputs, ops and output checks of the benchmark workloads.

``inputs(workload, seed)`` draws plain numbers from the seed; ``build``
turns them into ops that call ldacert.  An op is timed as one unit; its
check runs after the timed pass.  Tolerances come from the package
(``ldacert.cli.TOLERANCES``) or, where a check mirrors a pinned test, from
that test, which is named next to the value.

All workloads are closed loop with one caller: an op starts when the
previous one has returned.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

WORKLOADS = ("certify-analytic", "certify-tetra", "tiling-moments", "cli-grid")

# pinned-test tolerances that cli.TOLERANCES does not carry
TETRA_MASS_REL = 1e-4  # tests/test_field.py::test_smeared_tetra_mass
BUMP_MASS_REL = 1e-9  # tests/test_field.py::test_compact_bump_mass_and_support
MINV_ABS = 1e-10  # tests/test_kinetic.py::test_solve_b_inverse_moment

TETRA_GRID = 170  # default-grid edge of every drawn smeared tetrahedron
CLI_GRID = 80  # edge of the grid file the cli-grid workload writes
PLI_GRID = 20  # periodic-identity grid edge (512 hartree calls on 40^3)


@dataclass
class Op:
    """One timed call into the program, and how to judge what it returned."""

    name: str
    call: object  # () -> result
    check: object  # result -> list of problem strings, empty when correct
    key: object = None  # input identity, for the repeat share
    expect: dict = field(default_factory=dict)  # span name -> calls per op


# ---------------------------------------------------------------------------
# digest


def numbers(obj):
    """Every number in a result, depth first, in a fixed order.

    Arrays are yielded whole; strings carry no numbers and are skipped.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, dict):
        for v in obj.values():
            yield from numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from numbers(v)
    elif isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (bool, int, float, np.number)):
        yield obj


class Digest:
    """sha256 over every returned number written as %.17g.

    %.17g round-trips a double exactly, so two runs agree on the digest
    exactly when they returned the same values.  An array is fed as its
    little-endian float64 bytes, which is the same information at a
    fraction of the formatting cost.
    """

    def __init__(self):
        self._h = hashlib.sha256()

    def update(self, result):
        for x in numbers(result):
            if isinstance(x, np.ndarray):
                self._h.update(struct.pack("<Q", x.size))
                self._h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
            else:
                self._h.update(b"%.17g\n" % float(x))

    def hexdigest(self):
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs (plain numbers only)


def _param_set(rng):
    """A certificate parameter set that passes validate_params, with margin."""
    variant = str(rng.choice(["quantum", "xc", "classical"]))
    p = float(rng.uniform(3.5, 6.0))
    if variant == "classical":
        lo, hi = (4.0 / 3.0) / p, 0.9
    else:
        lo, hi = 2.0 / p, min(0.9, (1.0 + p / 2.0) / p)
    model = str(rng.choice(["tf-dirac", "tf-only", "custom"]))
    return {
        "p": p,
        "theta": float(rng.uniform(lo + 0.02, hi - 0.02)),
        "C": float(rng.uniform(0.5, 2.0)),
        "q": int(rng.integers(1, 3)),
        "variant": variant,
        "model": model,
        "A": float(rng.uniform(1.0, 4.0)) if model == "custom" else None,
        "B": float(rng.uniform(-1.0, 0.0)) if model == "custom" else None,
    }


def _gaussian(rng):
    return {"family": "gaussian", "sigma": float(rng.uniform(0.6, 2.0)),
            "mass": float(rng.uniform(0.5, 3.0))}


def _gaussian_small(rng):
    return {"family": "gaussian", "sigma": float(rng.uniform(0.8, 1.4)),
            "mass": float(rng.uniform(0.5, 2.0))}


def _inputs_certify_analytic(rng):
    densities = [_gaussian(rng), _gaussian(rng)] + [
        {"family": "compact_bump", "radius": float(rng.uniform(0.8, 2.5)),
         "mass": float(rng.uniform(0.5, 3.0))} for _ in range(2)]
    jobs = [(d, _param_set(rng)) for d in densities for _ in range(3)]
    order = rng.permutation(len(jobs))
    return {"jobs": [{"density": jobs[i][0], "params": jobs[i][1]} for i in order]}


def _inputs_certify_tetra(rng):
    jobs = []
    for _ in range(2):
        # default_grid gives n = round(44 ell/delta + 80) + 1, so this ratio
        # band pins the grid at TETRA_GRID^3 (delta < ell/2 needs ratio > 2)
        ratio = float(rng.uniform(2.014, 2.032))
        ell = float(rng.uniform(1.5, 6.0))
        density = {"family": "smeared_tetra", "rho0": float(rng.uniform(0.5, 4.0)),
                   "ell": ell, "delta": ell / ratio}
        jobs.append({"density": density, "params": _param_set(rng)})
    return {"jobs": jobs}


def _hermitian_modes(rng, count):
    """count distinct +-m pairs with |m|_inf = 1 and conjugate coefficients.

    The identity's 8-node translation rule loses accuracy as the mode
    frequency grows (3e-3 at |m|_inf = 2 against the 1e-2 tolerance), so
    the draw stays at the frequency the package's own checks use.
    """
    # one representative of each +-m pair: the first nonzero entry is positive
    pool = [m for m in itertools.product((-1, 0, 1), repeat=3)
            if any(m) and next(c for c in m if c) > 0]
    picks = rng.choice(len(pool), size=count, replace=False)
    return [[list(pool[i]), [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))]]
            for i in picks]


def _inputs_tiling_moments(rng):
    ell = float(rng.uniform(3.0, 6.0))
    return {
        "direct_error": {"density": _gaussian_small(rng), "ell": ell,
                         "delta": ell * float(rng.uniform(0.08, 0.3)),
                         "k_max": 3, "n_grid": 32},
        "periodic": {"density": _gaussian_small(rng),
                     "ell": float(rng.uniform(14.0, 18.0)),
                     "modes": _hermitian_modes(rng, 2), "n_grid": PLI_GRID},
        "kinetic": [{"eps": float(rng.uniform(0.05, 0.3)), "density": _gaussian_small(rng),
                     "q": int(rng.integers(1, 3))} for _ in range(3)],
    }


def _inputs_cli_grid(rng):
    blobs = [{"center": [float(c) for c in rng.uniform(-1.5, 1.5, size=3)],
              "sigma": float(rng.uniform(0.7, 1.1)),
              "mass": float(rng.uniform(0.3, 1.2))} for _ in range(3)]
    ell = float(rng.uniform(2.0, 6.0))
    return {
        "grid": {"n": CLI_GRID, "half": 8.0, "blobs": blobs},
        "certify": [_param_set(rng), _param_set(rng)],
        "tile": {"ell": ell, "delta": ell * float(rng.uniform(0.1, 0.4))},
    }


_GENERATORS = {
    "certify-analytic": _inputs_certify_analytic,
    "certify-tetra": _inputs_certify_tetra,
    "tiling-moments": _inputs_tiling_moments,
    "cli-grid": _inputs_cli_grid,
}


def inputs(workload, seed):
    """The workload's inputs as plain JSON-able data; same seed, same inputs."""
    return _GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


# ---------------------------------------------------------------------------
# ops


def _density(lib, d):
    if d["family"] == "gaussian":
        return lib.field.Density.gaussian(d["sigma"], d["mass"])
    if d["family"] == "compact_bump":
        return lib.field.Density.compact_bump(d["radius"], d["mass"])
    return lib.field.Density.smeared_tetra(d["rho0"], d["ell"], d["delta"])


def _model(lib, ps):
    if ps["model"] == "custom":
        return lib.bounds.custom_model(ps["A"], ps["B"])
    if ps["model"] == "tf-only":
        return lib.bounds.tf_only_model(ps["q"])
    return lib.bounds.tf_dirac_model(ps["q"])


def _cert_params(lib, ps):
    return lib.certificate.CertParams(p=ps["p"], theta=ps["theta"], C=ps["C"],
                                      q=ps["q"], variant=ps["variant"])


def _key(d, grid=None):
    return (json.dumps(d, sort_keys=True), grid)


def _certify_op(lib, job):
    d, ps = job["density"], job["params"]
    tol = lib.cli.TOLERANCES

    def call():
        rho = _density(lib, d)
        cert = lib.certificate.certify(rho, _cert_params(lib, ps), _model(lib, ps))
        return json.loads(lib.certificate.report_json(cert))

    def check(report):
        lo, hi = report["band"]
        problems = [] if math.isfinite(lo) and math.isfinite(hi) and lo <= hi else [
            f"band {report['band']} is not a finite ordered interval"]
        F = report["functionals"]
        if d["family"] == "gaussian":
            exact = lib.field.gaussian_hartree(d["sigma"], d["mass"])
            rel = abs(F["hartree"] - exact) / exact
            if not rel <= tol["coulomb.hartree_gaussian"]:
                problems.append(f"gaussian hartree rel err {rel:.3e}")
        elif d["family"] == "compact_bump":
            rel = abs(F["mass"] - d["mass"]) / d["mass"]
            if not rel <= BUMP_MASS_REL:
                problems.append(f"bump mass rel err {rel:.3e}")
        else:
            want = d["rho0"] * d["ell"] ** 3 / 24.0
            rel = abs(F["mass"] - want) / want
            if not rel <= TETRA_MASS_REL:
                problems.append(f"smeared_tetra mass rel err {rel:.3e}")
        return problems

    expect = {"certificate.certify": 1, "certificate.report_json": 1,
              "field.functionals": 1, "coulomb.hartree": 1,
              "field.density_to_field": 1}
    if d["family"] == "smeared_tetra":
        # functionals and hartree each sample the density on its default grid
        expect.update({"field.density_to_field": 2, "tiling.convolved_indicator": 2})
    return Op(f"certify-{d['family']}", call, check, key=_key(d), expect=expect)


def _direct_error_op(lib, job):
    def call():
        rho = _density(lib, job["density"])
        cfg = lib.tiling.TilingConfig(job["ell"], job["delta"])
        total, detail = lib.tiling.tiling_direct_error(
            rho, cfg, job["k_max"], n_grid=job["n_grid"], detail=True)
        return {"total": total, **detail}

    def check(res):
        t = res["total"]
        return [] if math.isfinite(t) and t > 0.0 else [f"direct error total {t!r}"]

    return Op("tiling-direct-error", call, check,
              key=_key(job["density"], job["n_grid"]),
              expect={"tiling.tiling_direct_error": 1, "coulomb.kernel_moment": 1,
                      "coulomb.spectral": 1, "field.density_to_field": 1})


def _periodic_op(lib, job):
    tol = lib.cli.TOLERANCES["coulomb.periodic_identity"]
    coeffs = {}
    for m, (re, im) in job["modes"]:
        coeffs[tuple(m)] = complex(re, im)
        coeffs[tuple(-c for c in m)] = complex(re, -im)

    def call():
        rho = _density(lib, job["density"])
        spec = lib.field.default_grid(rho, job["n_grid"])
        lhs, rhs = lib.coulomb.periodic_localization_identity(rho, coeffs, job["ell"], spec=spec)
        return {"lhs": lhs, "rhs": rhs}

    def check(res):
        rel = abs(res["lhs"] - res["rhs"]) / abs(res["rhs"])
        return [] if rel <= tol else [f"periodic identity residual {rel:.3e}"]

    return Op("periodic-identity", call, check, key=_key(job["density"], job["n_grid"]),
              expect={"coulomb.periodic_localization_identity": 1,
                      "coulomb.hartree": 8 ** 3, "coulomb.kernel_moment": 1})


def _kinetic_op(lib, rows):
    tol = lib.cli.TOLERANCES

    def call():
        out = []
        for row in rows:
            eps = row["eps"]
            b = lib.kinetic.solve_b(eps)
            mom = lib.kinetic.moments(lib.kinetic.eta_shifted(eps, b))
            F = lib.field.functionals(_density(lib, row["density"]))
            band = lib.kinetic.kinetic_band(F, q=row["q"])
            out.append({"eps": eps, "b": b, "moments": mom, "band": band})
        return out

    def check(rows):
        problems = []
        for r in rows:
            eps = r["eps"]
            series = 1.0 - eps / 10.0 - 3.0 * eps**3 / 350.0
            if not abs(r["b"] - series) <= tol["kinetic.shift_series"]:
                problems.append(f"solve_b({eps:.4g}) off its series by {abs(r['b'] - series):.3e}")
            if not abs(r["moments"].minv - 1.0) <= MINV_ABS:
                problems.append(f"inverse moment {r['moments'].minv!r} at eps {eps:.4g}")
            lo, hi = r["band"][:2]
            if not max(0.0, lo - hi) / hi <= tol["lemmas.kinetic_band_order"]:
                problems.append(f"kinetic band ({lo!r}, {hi!r}) out of order")
        return problems

    n = len(rows)
    return Op("kinetic", call, check,
              expect={"kinetic.solve_b": n, "kinetic.moments": n, "kinetic.kinetic_band": n})


def grid_values(g):
    """The multi-gaussian density of the cli-grid workload, sampled by numpy."""
    n, half = g["n"], g["half"]
    ax = np.linspace(-half, half, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = np.zeros((n, n, n))
    for b in g["blobs"]:
        s, (cx, cy, cz) = b["sigma"], b["center"]
        r2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
        vals += b["mass"] * (2.0 * math.pi * s * s) ** -1.5 * np.exp(-r2 / (2.0 * s * s))
    return vals


def _cli_ops(lib, job, runner):
    g = job["grid"]
    h = 2.0 * g["half"] / (g["n"] - 1)
    spec = lib.field.GridSpec((g["n"],) * 3, (h,) * 3, (-g["half"],) * 3)
    fld = lib.field.ScalarField(spec, grid_values(g))
    density_path = os.path.join(runner.workdir, "density.grid")
    tile_path = os.path.join(runner.workdir, "tile.grid")
    key = _key(g)

    def cli_check(res):
        if res["exit"] != 0:
            return [f"exit code {res['exit']}: {res['stderr'][-200:]}"]
        if res["stdout"] is not None and not isinstance(res["stdout"], dict):
            return [f"stdout is not JSON: {res['stdout'][:80]!r}"]
        return []

    def certify_op(ps):
        model = ps["model"]
        if model == "custom":
            model = "custom:%.17g,%.17g" % (ps["A"], ps["B"])
        args = ["certify", "--density", density_path, "--p", "%.17g" % ps["p"],
                "--theta", "%.17g" % ps["theta"], "--c", "%.17g" % ps["C"],
                "--q", str(ps["q"]), "--variant", ps["variant"], "--model", model]
        return Op("cli-certify", lambda: runner.cli(args, parse=True), cli_check, key=key,
                  expect={"cli.import": 1, "field.read_grid": 1, "certificate.certify": 1,
                          "field.functionals": 1, "coulomb.hartree": 1})

    def write():
        lib.field.write_grid(fld, density_path)
        return {"bytes": os.path.getsize(density_path)}

    def read_density():
        return lib.field.read_grid(density_path)

    def check_roundtrip(back):
        if back.spec != spec or not np.array_equal(back.values, fld.values):
            return ["read_grid(write_grid(f)) is not bit-exact"]
        return []

    def check_tile(back):
        v = back.values
        ok = v.ndim == 3 and np.all(np.isfinite(v)) and v.max() > 0.0
        return [] if ok else ["tile grid is empty or not finite"]

    t = job["tile"]
    tile_args = ["tile", "--ell", "%.17g" % t["ell"], "--delta", "%.17g" % t["delta"],
                 "--out", tile_path]
    return [
        Op("write-grid", write, lambda r: [] if r["bytes"] > 0 else ["empty grid file"],
           expect={"field.write_grid": 1}),
        certify_op(job["certify"][0]),
        certify_op(job["certify"][1]),
        Op("cli-tile", lambda: runner.cli(tile_args, parse=False), cli_check,
           expect={"cli.import": 1, "tiling.sample_field": 1,
                   "tiling.convolved_indicator": 1, "field.write_grid": 1}),
        Op("read-tile", lambda: lib.field.read_grid(tile_path), check_tile,
           expect={"field.read_grid": 1}),
        Op("read-grid", read_density, check_roundtrip, expect={"field.read_grid": 1}),
    ]


def build(workload, data, lib, runner):
    """The ops of one pass over the workload's inputs, in order."""
    if workload in ("certify-analytic", "certify-tetra"):
        return [_certify_op(lib, job) for job in data["jobs"]]
    if workload == "tiling-moments":
        return [_direct_error_op(lib, data["direct_error"]),
                _periodic_op(lib, data["periodic"]),
                _kinetic_op(lib, data["kinetic"])]
    return _cli_ops(lib, data, runner)


# ---------------------------------------------------------------------------
# workload properties


def repeat_share(ops):
    """Share of keyed ops whose input an earlier op of the pass already used."""
    keys = [op.key for op in ops if op.key is not None]
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def grids(workload, data, lib):
    """{label: grid dims} of the grids the workload's Hartree/FFT calls use."""
    if workload in ("certify-analytic", "certify-tetra"):
        out = {}
        for job in data["jobs"]:
            spec = lib.field.default_grid(_density(lib, job["density"]))
            out[job["density"]["family"]] = list(spec.dims)
        return out
    if workload == "tiling-moments":
        return {"direct_error": [data["direct_error"]["n_grid"]] * 3,
                "periodic": [data["periodic"]["n_grid"]] * 3}
    return {"density_file": [data["grid"]["n"]] * 3}


def bump_hartree_reference(radius, mass):
    """Hartree energy of the compact bump by 1D radial quadrature.

    D = (1/2) int rho(r) phi(r) 4 pi r^2 dr with the shell-theorem
    potential phi(r) = Q(r)/r + int_r^R 4 pi s rho(s) ds.  An independent
    reference for the grid value certify reports.
    """
    from scipy.integrate import quad

    def shape(r):
        u2 = (r / radius) ** 2
        return math.exp(-1.0 / (1.0 - u2)) if u2 < 1.0 else 0.0

    norm = quad(lambda r: 4.0 * math.pi * r * r * shape(r), 0.0, radius, epsabs=1e-14)[0]
    c = mass / norm

    def phi(r):
        inner = quad(lambda s: 4.0 * math.pi * s * s * shape(s), 0.0, r, epsabs=1e-14)[0]
        outer = quad(lambda s: 4.0 * math.pi * s * shape(s), r, radius, epsabs=1e-14)[0]
        return c * (inner / r + outer)

    val = quad(lambda r: 4.0 * math.pi * r * r * c * shape(r) * phi(r) if r > 0.0 else 0.0,
               0.0, radius, epsabs=1e-13, limit=200)[0]
    return 0.5 * val
