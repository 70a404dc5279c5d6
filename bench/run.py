"""ldacert benchmark: seeded certificate workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One process, one caller, closed loop.  A run repeats
the workload's seeded batch of ops until ``--seconds`` have passed, at
least once.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the batch once untraced and once with every layer wrapped, and prints
the per-layer metrics and the tracing overhead.  The last stdout line is
the result JSON; the line before it carries the detail (environment,
workload properties, digest, failures).  Full results and the spans go to
``bench/out/``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

if __name__ == "__main__":
    # Pin BLAS/OpenMP pools to at most the usable cores, before numpy loads;
    # child processes inherit the setting.
    for _var in THREAD_VARS:
        _raw = os.environ.get(_var, "")
        _n = int(_raw) if _raw.isdigit() and int(_raw) > 0 else NPROC
        os.environ[_var] = str(min(_n, NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"  # results and spans; ignored by git

import spans  # noqa: E402
import workloads  # noqa: E402
from setup_probe import import_lib, warm_up  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

# Per-layer metrics of the result line.  Each time here is measured on every
# workload; counts, bytes and shares may read the same on every run.
PER_LAYER = {
    "coulomb.self_s": "s",
    "field.self_s": "s",
    "bounds.self_s": "s",
    "kinetic.self_s": "s",
    "coulomb.hartree.self_s": "s",
    "field.density_to_field.self_s": "s",
    "field.functionals.self_s": "s",
    "coulomb.hartree.calls": "count",
    "coulomb.hartree.fft_points": "count",
    "coulomb.hartree.fft_bytes_computed": "B",
    "coulomb.hartree.spec_repeat_share": "frac",
    "coulomb.kernel_moment.kvecs": "count",
    "tiling.convolved_indicator.points": "count",
    "tiling.convolved_indicator.active_frac": "frac",
    "field.density_to_field.points": "count",
    "field.density_to_field.calls_per_certify": "count",
    "field.grid_file.bytes": "B",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.program_frac": "frac",
    "trace.spans": "count",
    "trace.coverage_mismatches": "count",
    "bench.own_s": "s",
}

# Per-layer times of functions that only some workloads call.  They read 0
# on every run of the others, so they go to the detail line, not the result.
LAYER_TIMES = (
    "cli.self_s", "certificate.self_s", "tiling.self_s",
    "coulomb.kernel_moment.self_s", "coulomb.periodic_localization_identity.self_s",
    "tiling.convolved_indicator.self_s", "tiling.tiling_direct_error.self_s",
    "field.write_grid.s", "field.read_grid.s", "cli.import_s", "cli.process_s",
    "kinetic.solve_b.s", "kinetic.moments.s", "kinetic.kinetic_band.s",
    "bounds.energy_upper_min.s", "bounds.energy_lower.s",
    "certificate.certify.self_s", "certificate.report_json.s",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup():
    """Median over fresh processes of import plus warm-up, with its parts."""
    rows = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    total = statistics.median(r["import_s"] + r["warmup_s"] for r in rows)
    return total, {k: statistics.median(r[k] for r in rows) for k in ("import_s", "warmup_s")}


# ---------------------------------------------------------------------------
# running ops


class Runner:
    """What ops need from the benchmark: a work directory and the CLI."""

    def __init__(self, workdir):
        self.workdir = str(workdir)
        self.tracer = None  # set for the traced pass
        self._env = child_env()

    def cli(self, args, parse):
        """Run one CLI command in a fresh interpreter, as a user would."""
        spans_path = os.path.join(self.workdir, "cli-spans.json")
        if self.tracer is None:
            argv = [sys.executable, "-m", "ldacert.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "cli_shim.py"), spans_path, *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self._env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        if self.tracer is not None:
            parent = self.tracer.add("cli.process", t0, t1)
            with open(spans_path) as fh:
                self.tracer.merge(json.load(fh), parent)
            os.remove(spans_path)
        out = None
        if parse:
            try:
                out = json.loads(proc.stdout)
            except ValueError:
                out = proc.stdout
        return {"exit": proc.returncode, "stdout": out, "stderr": proc.stderr}


def run_pass(ops, tracer=None):
    """Call every op once, in order; an exception fails that op only.

    Returns per op (seconds, result, error) and the pass wall time.
    """
    records = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a raised exception is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t0, result, error))
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.op = None
    return records, wall


def judge(ops, records, digest):
    """Check every op's output; returns the list of failures, one per failed op."""
    failures = []
    for i, (op, (_, result, error)) in enumerate(zip(ops, records)):
        if error is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # a check that cannot judge the output fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            digest.update(result)
        else:
            problems = [error]
        if problems:
            failures.append({"op": i, "name": op.name, "problems": problems})
    return failures


# ---------------------------------------------------------------------------
# reporting


def environment():
    import numpy
    import scipy
    from importlib.metadata import version

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({"level": read(idx / "level"), "type": read(idx / "type"),
                       "size": read(idx / "size")})
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "caches": caches,
        "llc_bytes": llc_bytes(caches),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "threads_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "LDA_CERT_THREADS")},
    }


def llc_bytes(caches):
    """Size of the highest-level cache, from sysfs strings such as '107520K'."""
    best = (0, None)
    for c in caches:
        size = c.get("size") or ""
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if c.get("level", "").isdigit() and digits.isdigit():
            best = max(best, (int(c["level"]), int(digits) * mult))
    return best[1]


def workload_properties(name, data, ops, lib, env, records):
    grids = workloads.grids(name, data, lib)
    padded = {k: [2 * n for n in dims] for k, dims in grids.items()}
    fft_bytes = {k: 16 * dims[0] * dims[1] * dims[2] for k, dims in padded.items()}
    llc = env["llc_bytes"]
    return {
        "repeat_share": workloads.repeat_share(ops),
        "ops_per_pass": len(ops),
        "grid_dims": grids,
        "padded_fft_shape": padded,
        "fft_array_bytes_computed": fft_bytes,
        "llc_bytes": llc,
        "fft_array_over_llc": {k: b / llc for k, b in fft_bytes.items()} if llc else None,
        "bump_hartree_rel_err": bump_hartree_error(data, records),
    }


def bump_hartree_error(data, records):
    """Largest relative error of a certified compact-bump Hartree value
    against the radial-quadrature reference; None without bump ops."""
    errs = []
    for job, (_, report, _) in zip(data.get("jobs", []), records):
        d = job["density"]
        if d["family"] == "compact_bump" and isinstance(report, dict):
            ref = workloads.bump_hartree_reference(d["radius"], d["mass"])
            errs.append(abs(report["functionals"]["hartree"] - ref) / ref)
    return max(errs, default=None)


def layer_metrics(tracer, ops, records, traced_wall, untraced_wall):
    sp = tracer.spans
    agg = spans.aggregate(sp)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    counters = tracer.counters
    m = {f"{layer}.self_s": sum(row["self_s"] for n, row in agg.items()
                                if n.startswith(layer + "."))
         for layer in spans.LAYERS}
    for name in ("coulomb.hartree", "coulomb.kernel_moment",
                 "coulomb.periodic_localization_identity", "tiling.convolved_indicator",
                 "tiling.tiling_direct_error", "field.density_to_field", "field.functionals",
                 "certificate.certify"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("field.write_grid", "field.read_grid", "kinetic.solve_b", "kinetic.moments",
                 "kinetic.kinetic_band", "bounds.energy_upper_min", "bounds.energy_lower",
                 "certificate.report_json"):
        m[f"{name}.s"] = get(name, "s")
    calls = get("coulomb.hartree", "calls")
    m["coulomb.hartree.calls"] = calls
    for key in ("coulomb.hartree.fft_points", "coulomb.hartree.fft_bytes_computed",
                "coulomb.kernel_moment.kvecs", "tiling.convolved_indicator.points",
                "field.density_to_field.points", "field.grid_file.bytes"):
        m[key] = counters.get(key, 0)
    m["coulomb.hartree.spec_repeat_share"] = (
        counters.get("coulomb.hartree.spec_repeats", 0) / calls if calls else 0.0)
    points = counters.get("tiling.convolved_indicator.points", 0)
    m["tiling.convolved_indicator.active_frac"] = (
        counters.get("tiling.convolved_indicator.active", 0) / points if points else 0.0)
    certifies = get("certificate.certify", "calls")
    sampled = sum(1 for i, s in enumerate(sp) if s[spans.NAME] == "field.density_to_field"
                  and spans.has_ancestor(sp, i, "certificate.certify"))
    m["field.density_to_field.calls_per_certify"] = sampled / certifies if certifies else 0.0
    for name in ("cli.import", "cli.process"):
        durs = [s[spans.END] - s[spans.START] for s in sp if s[spans.NAME] == name]
        m[f"{name}_s"] = statistics.median(durs) if durs else 0.0

    # accounting: per op, program self time plus benchmark time is the op's wall time
    program = spans.program_time(sp)
    op_walls = [rec[0] for rec in records]
    accounting = [{"op": i, "wall_s": w, "program_s": program.get(i, 0.0),
                   "bench_s": w - program.get(i, 0.0)} for i, w in enumerate(op_walls)]
    accounting_ok = all(-1e-9 <= a["program_s"] <= a["wall_s"] + 1e-9 for a in accounting)
    total_program = sum(a["program_s"] for a in accounting)

    mismatches = []
    counts = spans.op_counts(sp)
    for i, op in enumerate(ops):
        for name, want in op.expect.items():
            got = counts.get(i, {}).get(name, 0)
            if got != want:
                mismatches.append({"op": i, "span": name, "expected": want, "got": got})

    m.update({
        "trace.run_s": traced_wall,
        "trace.untraced_run_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.program_frac": total_program / sum(op_walls),
        "trace.spans": len(sp),
        "trace.coverage_mismatches": len(mismatches),
        "bench.own_s": sum(op_walls) - total_program,
    })
    functions = {name: row for name, row in sorted(agg.items())}
    return m, {"accounting_ok": accounting_ok, "accounting": accounting,
               "coverage_mismatches": mismatches, "functions": functions}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------


def measure(ops, seconds=None, tracer=None):
    """Run and check passes over the ops until ``seconds`` have passed, at
    least one pass (exactly one when ``seconds`` is None)."""
    res = {"walls": [], "op_times": [], "failures": [], "digests": [], "first": None}
    t_start = time.perf_counter()
    while True:
        records, wall = run_pass(ops, tracer)
        digest = workloads.Digest()
        res["failures"] += judge(ops, records, digest)
        res["digests"].append(digest.hexdigest())
        res["walls"].append(wall)
        res["op_times"] += [r[0] for r in records]
        res["first"] = res["first"] or records
        if seconds is None or time.perf_counter() - t_start >= seconds:
            return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ldacert" / "__init__.py").is_file():
        print(f"error: no ldacert package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup = None if args.trace else measure_setup()
    lib = import_lib()
    warm_up(lib)
    env = environment()
    data = workloads.inputs(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        ops = workloads.build(args.workload, data, lib, runner)
        plain = measure(ops, None if args.trace else args.seconds)
        runs = [plain]
        if args.trace:
            tracer = runner.tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(ops, tracer=tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
            metrics, detail = layer_metrics(tracer, ops, traced["first"], traced["walls"][0],
                                            plain["walls"][0])
            detail["layer_times"] = {k: metrics[k] for k in LAYER_TIMES}
            units = PER_LAYER
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans, "counters": tracer.counters}, fh)
        props = workload_properties(args.workload, data, ops, lib, env, plain["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["op_times"]) for r in runs)
    if not args.trace:
        metrics = {
            "setup_s": setup[0],
            "run_s": statistics.median(plain["walls"]),
            "op_p50_s": statistics.median(plain["op_times"]),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        units = END_TO_END
        detail = {"samples": {"setup_s": SETUP_REPEATS, "run_s": len(plain["walls"]),
                              "op_p50_s": len(plain["op_times"])},
                  "setup_parts": setup[1], "pass_walls_s": plain["walls"],
                  "op_times_s": plain["op_times"]}
    digests = [d for r in runs for d in r["digests"]]
    digest_stable = len(set(digests)) == 1
    correct = not failures and digest_stable and detail.get("accounting_ok", True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted, "failures": failures,
        "digest": digests[0], "digest_stable": digest_stable,
        "environment": env, "properties": props, "inputs": data,
        "metrics": metrics, **detail,
    }
    with open(OUT / name, "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    summary = {k: report[k] for k in ("workload", "seed", "fail_frac", "digest",
                                      "digest_stable", "failures", "properties")}
    for key in ("samples", "layer_times"):
        if key in detail:
            summary[key] = detail[key]
    summary["environment"] = {k: env[k] for k in ("nproc", "cpu_model", "llc_bytes",
                                                  "python", "numpy", "scipy", "threads_env")}
    summary["detail_file"] = str((OUT / name).relative_to(ROOT))
    print(json.dumps(summary, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
