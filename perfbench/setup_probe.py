"""Set up one workload in a fresh interpreter and report the import cost.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Imports pulsepair, builds the workload's job plan and runner exactly as
run.py does, and prints one JSON line with the seconds ``import
pulsepair`` took and whether it loaded ``scipy.linalg``.
"""

import json
import sys
import time


def main() -> int:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    import pulsepair  # noqa: F401

    import_s = time.perf_counter() - start
    scipy_loaded = "scipy.linalg" in sys.modules
    import workloads

    workloads.RUNNERS[workload](work_dir, workloads.load_references()).plan(seed)
    print(json.dumps({"import_s": import_s, "scipy_loaded": scipy_loaded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
