"""Run the collective-schedules CLI once with every layer traced.

    python3 cli_traced.py SPANS_JSON ARG...

Behaves like ``python3 -m collective_schedules.cli ARG...`` and exits
with the same code.  It also times the numpy import and the whole package
import from a cold interpreter and writes those times, with the spans of
the run, to SPANS_JSON.  The tracer is imported only after the package,
so its own imports do not make the package import look cheaper.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import numpy  # noqa: F401  (timed: most of the package import)

    numpy_done = perf_counter()
    from collective_schedules import cli

    package_done = perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.imports.append((numpy_done - start, package_done - start))
    with tracer:
        code = cli.main(argv)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
