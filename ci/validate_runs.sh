#!/usr/bin/env bash
# `pulsepair validate` on seeds 0, 7, 42 and 2147483647, each in its own `pulsepair` process, with
# seed 0's last line checked, so a check silently dropped or added fails it.
#
# Usage: bash ci/validate_runs.sh, with `pulsepair` on PATH. It writes validate.txt into the
# current directory. A numpy RuntimeWarning fails it.
set -eo pipefail
export PYTHONWARNINGS=error::RuntimeWarning

# a check silently dropped or added changes the count on the last line
pulsepair validate --seed 0 > validate.txt
cat validate.txt
test "$(tail -n 1 validate.txt)" = "validation: 15/15 checks passed (seed=0)"
pulsepair validate --seed 7
pulsepair validate --seed 42
pulsepair validate --seed 2147483647
