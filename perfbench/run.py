"""The pulsepair benchmark: one workload, one seed, one timed run.

Usage, from the root of a pulsepair checkout:

    python3 perfbench/run.py --workload {figures,validate,cli} --seed N \\
        --seconds S --trace {0,1}

The package is imported from the checkout's ``src`` directory; nothing is
installed.  A run first sets the workload up several times in fresh
interpreters (``setup_s``), then runs jobs in a closed loop with one
client until ``--seconds`` have passed and the current block of jobs is
complete, checking every output.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics instead: the first jobs of
the seeded plan (one figures pass, one validation, one CLI block) run
under the outside-in tracer.  Then at least one more job, and as many as
the rest of ``--seconds`` holds, runs twice, untraced and traced, to
measure the tracer's overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details such as the tail percentile and its sample count.  The exit
code is 0 only if every job's output was correct, and 2 if the checkout
holds no pulsepair sources.
"""

import argparse
import os
import sys

# One BLAS thread for this process and every child: the machine has two
# cores and the benchmark runs at most two processes at once.  Set before
# numpy is first imported.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("figures", "validate", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pulsepair benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pulsepair", "__init__.py")):
        print("perfbench: no src/pulsepair here; run from the root of a pulsepair checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, src)
    import pulsepair

    if not os.path.abspath(pulsepair.__file__).startswith(src + os.sep):
        print(f"perfbench: pulsepair imported from {pulsepair.__file__}, not from {src}", file=sys.stderr)
        return 2

    import bench

    return bench.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
