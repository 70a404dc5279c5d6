"""Set-up cost of the package: import every layer, then one warm-up op.

    python3 bench/setup_probe.py

Prints one JSON line with ``import_s`` and ``warmup_s``.  run.py starts
this script in fresh processes to measure set-up, and imports its two
functions for its own set-up.  It imports nothing heavy before the timed
import, so numpy and scipy load inside it.
"""

import importlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_lib():
    """Import every layer module from the checkout's src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"ldacert.{m}") for m in LAYERS})
    if not Path(lib.field.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ldacert imported from {lib.field.__file__}, not from {SRC}")
    return lib


def warm_up(lib):
    """One small call through every layer.

    Fills the package's lazy tables (tile profile splines, the mollifier
    transform spline, the bump quadrature cache), so that timed ops start
    warm and work moved into such tables shows in set-up time.
    """
    import numpy as np

    params = lib.certificate.CertParams(p=4.0, theta=0.5)
    gauss = lib.field.Density.gaussian(1.0, 1.0)
    for rho in (gauss, lib.field.Density.compact_bump(1.0, 1.0)):
        lib.certificate.report_json(lib.certificate.certify(rho, params, n_grid=24))
    cfg = lib.tiling.TilingConfig(4.0, 1.0)
    lib.tiling.xi_grad_values(cfg, 1, np.zeros((4, 3)))
    lib.tiling.mollifier_hat(np.linspace(0.0, 10.0, 16))
    lib.kinetic.kinetic_band(lib.field.functionals(gauss))
    lib.kinetic.solve_b(0.1)


def main():
    t0 = time.perf_counter()
    lib = import_lib()
    t1 = time.perf_counter()
    warm_up(lib)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


if __name__ == "__main__":
    main()
