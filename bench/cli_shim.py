"""Run one ldacert CLI command with every layer traced; save the spans as JSON.

    python3 bench/cli_shim.py SPANS_OUT COMMAND [ARGS...]

Behaves like ``python -m ldacert.cli COMMAND [ARGS...]`` (same stdout,
stderr and exit code) and also writes the spans of the call, including a
``cli.import`` span for importing the package, to SPANS_OUT.
"""

import json
import sys
import time

from spans import Tracer

_t0 = time.perf_counter()
import ldacert.cli  # noqa: E402

_t1 = time.perf_counter()


def main():
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", _t0, _t1)
    tracer.install()
    code = 0
    try:
        ldacert.cli.main.main(args=args, prog_name="ldacert")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
