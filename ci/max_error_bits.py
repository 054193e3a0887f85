"""Every max_error bit of seeds 0-9, one line per seed: the workflow runs this under one and two BLAS threads
and diffs the two outputs.

Usage: OPENBLAS_NUM_THREADS=1 python ci/max_error_bits.py > max-errors-1.txt   (see ci/README.md)
"""
from pulsepair.validation import run_validation
for seed in range(10):
    print(seed, *(r.max_error.hex() for r in run_validation(seed)))
