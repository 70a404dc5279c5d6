"""Tests of the benchmark's own helpers: spans, digest, inputs, failure counting.

    python3 -m pytest bench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from setup_probe import import_lib  # noqa: E402


def _span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op]


# ---------------------------------------------------------------------------
# self time and aggregation


def test_self_time_of_nested_spans():
    sp = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 6.0, 0),
    ]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]
    # self times of a tree add up to its root's wall time
    assert sum(spans.self_times(sp)) == 10.0


def test_inclusive_time_skips_reentered_name():
    sp = [_span("f", 0.0, 10.0), _span("f", 2.0, 5.0, 0), _span("g", 6.0, 7.0, 0)]
    agg = spans.aggregate(sp)
    assert agg["f"] == {"calls": 2, "self_s": 9.0, "s": 10.0}
    assert agg["g"] == {"calls": 1, "self_s": 1.0, "s": 1.0}


def test_program_time_excludes_benchmark_spans():
    sp = [_span("coulomb.hartree", 0.0, 4.0, op=0),
          _span("bench.probe", 3.0, 4.0, 0, op=0),
          _span("field.read_grid", 5.0, 5.5, op=1)]
    assert spans.program_time(sp) == {0: 3.0, 1: 0.5}
    assert spans.op_counts(sp) == {0: {"coulomb.hartree": 1, "bench.probe": 1},
                                   1: {"field.read_grid": 1}}


def test_wrapper_records_parent_op_and_probe():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tr.wrap("m.inner", lambda x: x + 1, probe=lambda t, a, k, r: seen.append(r))
    outer = tr.wrap("m.outer", lambda x: inner(x) * 2)
    tr.op = 3
    assert outer(1) == 4
    names = [s[spans.NAME] for s in tr.spans]
    assert names == ["m.outer", "m.inner", "bench.probe"]
    assert [s[spans.PARENT] for s in tr.spans] == [None, 0, 0]
    assert {s[spans.OP] for s in tr.spans} == {3}
    assert seen == [2]
    # the probe runs after its span ends and is charged to the caller's span
    assert tr.spans[2][spans.START] >= tr.spans[1][spans.END]


def test_merge_reparents_child_process_spans():
    tr = spans.Tracer()
    tr.op = 5
    parent = tr.add("cli.process", 0.0, 10.0)
    child = {"spans": [_span("cli.import", 1.0, 2.0, op=None),
                       _span("certificate.certify", 3.0, 8.0, op=None),
                       _span("coulomb.hartree", 4.0, 7.0, 1, op=None)],
             "counters": {"coulomb.hartree.fft_points": 8}}
    tr.merge(json.loads(json.dumps(child)), parent)
    assert [s[spans.PARENT] for s in tr.spans] == [None, 0, 0, 2]
    assert {s[spans.OP] for s in tr.spans} == {5}
    assert tr.counters == {"coulomb.hartree.fft_points": 8}
    assert spans.self_times(tr.spans)[0] == pytest.approx(4.0)


def test_install_wraps_every_namespace_and_uninstall_restores():
    lib = import_lib()
    original = lib.field.density_to_field
    assert lib.coulomb.density_to_field is original
    tr = spans.Tracer().install()
    try:
        assert lib.field.density_to_field is lib.coulomb.density_to_field
        assert lib.field.density_to_field.__wrapped__ is original
        rho = lib.field.Density.gaussian(1.0, 1.0)
        lib.coulomb.hartree(rho, lib.field.default_grid(rho, 12))
    finally:
        tr.uninstall()
    assert lib.field.density_to_field is original
    assert lib.coulomb.density_to_field is original
    names = [s[spans.NAME] for s in tr.spans]
    i = names.index("field.density_to_field")
    assert spans.has_ancestor(tr.spans, i, "coulomb.hartree")
    assert tr.counters["coulomb.hartree.fft_points"] == 8 * 12**3
    assert tr.counters["field.density_to_field.points"] == 12**3


# ---------------------------------------------------------------------------
# digest


def _digest(*results):
    d = workloads.Digest()
    for r in results:
        d.update(r)
    return d.hexdigest()


def test_digest_is_stable_and_sees_every_digit():
    res = {"band": [-2.0392491403204023, 3.0050326273810146], "flags": ["x"], "n": 3}
    assert _digest(res) == _digest(json.loads(json.dumps(res)))
    moved = {"band": [-2.0392491403204023, math.nextafter(3.0050326273810146, 4.0)],
             "flags": ["x"], "n": 3}
    assert _digest(res) != _digest(moved)
    assert _digest(0.0) != _digest(-0.0)
    assert _digest(1.0, 2.0) != _digest(2.0, 1.0)


def test_digest_of_arrays_and_dataclasses():
    a = np.linspace(0.0, 1.0, 7)
    assert _digest(a) == _digest(a.copy())
    b = a.copy()
    b[3] = math.nextafter(b[3], 2.0)
    assert _digest(a) != _digest(b)
    lib = import_lib()
    F = lib.field.functionals(lib.field.Density.gaussian(1.0, 1.0))
    assert _digest(F) == _digest(lib.field.functionals(lib.field.Density.gaussian(1.0, 1.0)))


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)
    json.dumps(workloads.inputs(workload, 7))  # plain data only


def test_drawn_parameters_pass_the_gates():
    lib = import_lib()
    rng = np.random.default_rng(0)
    for _ in range(200):
        ps = workloads._param_set(rng)
        ok, reason = lib.certificate.validate_params(workloads._cert_params(lib, ps))
        assert ok, (ps, reason)


def test_tetra_inputs_pin_the_grid():
    lib = import_lib()
    for seed in range(30):
        job = workloads.inputs("certify-tetra", seed)["jobs"][0]
        spec = lib.field.default_grid(workloads._density(lib, job["density"]))
        assert spec.dims == (workloads.TETRA_GRID,) * 3


def test_periodic_modes_are_distinct_pairs():
    for seed in range(30):
        modes = workloads.inputs("tiling-moments", seed)["periodic"]["modes"]
        ms = [tuple(m) for m, _ in modes]
        assert len(set(ms)) == len(ms)
        assert all(tuple(-c for c in m) not in ms for m in ms)
        assert all(max(abs(c) for c in m) == 1 for m in ms)


# ---------------------------------------------------------------------------
# failure counting


def test_every_op_runs_and_each_failure_counts_once():
    called = []

    def make(name, result=None, raises=False, problems=(), check_raises=False):
        def call():
            called.append(name)
            if raises:
                raise RuntimeError("boom")
            return result

        def check(r):
            if check_raises:
                raise KeyError("missing")
            return list(problems)

        return workloads.Op(name, call, check)

    ops = [make("raises", raises=True), make("bad", 1.0, problems=["off"]),
           make("check-raises", 2.0, check_raises=True), make("good", 3.0)]
    records, wall = run.run_pass(ops)
    assert called == ["raises", "bad", "check-raises", "good"]
    assert wall >= sum(r[0] for r in records)
    failures = run.judge(ops, records, workloads.Digest())
    assert [f["name"] for f in failures] == ["raises", "bad", "check-raises"]
    assert "RuntimeError: boom" in failures[0]["problems"][0]


def test_repeat_share_counts_reused_inputs():
    ops = [workloads.Op("a", None, None, key="x"), workloads.Op("b", None, None, key="x"),
           workloads.Op("c", None, None, key="y"), workloads.Op("d", None, None)]
    assert workloads.repeat_share(ops) == pytest.approx(1.0 / 3.0)


def test_llc_size_from_sysfs_strings():
    caches = [{"level": "1", "size": "48K"}, {"level": "2", "size": "2048K"},
              {"level": "3", "size": "107520K"}]
    assert run.llc_bytes(caches) == 107520 * 1024
    assert run.llc_bytes([]) is None


# ---------------------------------------------------------------------------
# the contract file


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
