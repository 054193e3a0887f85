"""Run the pulsepair CLI under the tracer, then write what the tracer saw.

Usage: python3 perfbench/launch_cli.py <trace.json> <pulsepair arguments...>

The launcher times ``import pulsepair.cli`` as an ``import`` span, wraps
the package's layer functions, calls ``cli.main(argv)`` and exits with its
return code.  The JSON file holds the spans, counts and per-layer errors.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import pulsepair.cli

    tracer.spans.append(("import.pulsepair", start, time.perf_counter(), -1, -1))
    tracer.install()
    try:
        code = pulsepair.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "errors": tracer.errors}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
