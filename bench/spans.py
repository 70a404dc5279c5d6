"""In-memory span tracing of the ldacert layers, from outside the package.

A Tracer replaces every public function of the layer modules with a wrapper
that records one span per call: name, start, end, parent span and op id.
The replacement is made in every namespace that binds the function (for
example ``density_to_field`` lives in ``field`` and is imported into
``coulomb``), so a call is seen whichever name it goes through.  Spans stay
in memory; the caller writes them out when the run ends.

Some functions also get a probe that counts the work of the call (points
sampled, FFT points, k-vectors, file bytes).  A probe runs after its span
has ended and is itself recorded as a ``bench.probe`` span, so its time is
charged to the benchmark and never to a layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = ("cli", "certificate", "field", "tiling", "coulomb", "bounds", "kinetic")

# span fields, in the order a span list stores them
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans and probe counters; install() patches the package."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {}
        self.seen_specs = set()
        self.originals = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def add(self, name, start, end, parent=None):
        """Append a finished span of the current op and return its index."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, probe=None):
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            rec = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                self.stack.pop()
            if probe is not None:
                t0 = clock()
                probe(self, args, kwargs, result)
                self.add("bench.probe", t0, clock(), parent)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package="ldacert"):
        """Wrap the public functions of every layer module, in every namespace."""
        namespaces = [importlib.import_module(package)]
        by_id = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            namespaces.append(mod)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    by_id[id(obj)] = self.wrap(name, obj, PROBES.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- cross-process -----------------------------------------------------

    def export(self):
        return {"spans": self.spans, "counters": self.counters}

    def merge(self, data, parent):
        """Adopt spans recorded by a child process under span ``parent``.

        time.perf_counter reads the system-wide monotonic clock on Linux, so
        child and parent times are directly comparable.
        """
        base = len(self.spans)
        for name, start, end, par, _ in data["spans"]:
            self.add(name, start, end, parent if par is None else base + par)
        for key, amount in data["counters"].items():
            self.count(key, amount)


# ---------------------------------------------------------------------------
# probes: work counts at the layer boundaries


def _hartree_probe(tr, args, kwargs, result):
    rho = args[0]
    spec = getattr(rho, "spec", None)
    if spec is None:  # a Density: the grid hartree samples it on
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        if spec is None:
            spec = tr.originals["field.default_grid"](rho)
    padded = 8 * spec.n_total
    tr.count("coulomb.hartree.fft_points", padded)
    tr.count("coulomb.hartree.fft_bytes_computed", 16 * padded)  # complex128
    if spec in tr.seen_specs:
        tr.count("coulomb.hartree.spec_repeats")
    tr.seen_specs.add(spec)


def _kernel_moment_probe(tr, args, kwargs, result):
    import numpy as np

    kvecs = args[1] if len(args) > 1 else kwargs["kvecs"]
    tr.count("coulomb.kernel_moment.kvecs", np.atleast_2d(np.asarray(kvecs)).shape[0])


def _convolved_indicator_probe(tr, args, kwargs, result):
    import numpy as np

    u = result[0] if isinstance(result, tuple) else result
    tr.count("tiling.convolved_indicator.points", int(u.size))
    tr.count("tiling.convolved_indicator.active", int(np.count_nonzero((u > 0.0) & (u < 1.0))))


def _density_to_field_probe(tr, args, kwargs, result):
    tr.count("field.density_to_field.points", int(result.spec.n_total))


def _write_grid_probe(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("field.grid_file.bytes", os.path.getsize(path))


def _read_grid_probe(tr, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tr.count("field.grid_file.bytes", os.path.getsize(path))


PROBES = {
    "coulomb.hartree": _hartree_probe,
    "coulomb.kernel_moment": _kernel_moment_probe,
    "tiling.convolved_indicator": _convolved_indicator_probe,
    "field.density_to_field": _density_to_field_probe,
    "field.write_grid": _write_grid_probe,
    "field.read_grid": _read_grid_probe,
}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their summed durations are exactly the part of its interval they cover.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            child[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - c for sp, c in zip(spans, child)]


def aggregate(spans):
    """Per span name: calls, self time, and inclusive time.

    Inclusive time counts a span only when no ancestor has the same name, so
    a function that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for i, sp in enumerate(spans):
        name = sp[NAME]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not has_ancestor(spans, i, name):
            row["s"] += sp[END] - sp[START]
    return out


def op_counts(spans):
    """{op id: {span name: calls}} for the coverage check."""
    out = {}
    for sp in spans:
        per = out.setdefault(sp[OP], {})
        per[sp[NAME]] = per.get(sp[NAME], 0) + 1
    return out


def program_time(spans):
    """{op id: summed self time of the non-benchmark spans}."""
    out = {}
    for sp, s in zip(spans, self_times(spans)):
        if not sp[NAME].startswith("bench."):
            out[sp[OP]] = out.get(sp[OP], 0.0) + s
    return out


def has_ancestor(spans, i, name):
    anc = spans[i][PARENT]
    while anc is not None:
        if spans[anc][NAME] == name:
            return True
        anc = spans[anc][PARENT]
    return False
