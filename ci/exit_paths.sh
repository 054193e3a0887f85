#!/usr/bin/env bash
# The exit paths of the `pulsepair` console script: the singlet's output
# verbatim, a full stdout, a full stderr, a closed stdout and a closed stderr,
# each with its exit code, one `error:` line where stderr takes it and no
# traceback.
#
# Usage: bash ci/exit_paths.sh, with `pulsepair` on PATH. It writes its
# files into the current directory.
set -eo pipefail

pulsepair negativity -- -1 -1 -1 > singlet.txt
printf '%s\n' "mu_1 = -0.500000000000" "mu_2 = 0.500000000000" "mu_3 = 0.500000000000" \
  "mu_4 = 0.500000000000" "E = 1.000000000000" | diff - singlet.txt
# a failed write to stdout exits 3 with one error line and no traceback
code=0
pulsepair negativity -- -1 -1 -1 > /dev/full 2> full.err || code=$?
cat full.err
test "$code" -eq 3
test "$(grep -c '^error:' full.err)" -eq 1
test "$(grep -c Traceback full.err)" -eq 0
# a full stdout or stderr keeps the exit code: --help exits 3, an unknown preset 2
code=0
pulsepair --help > /dev/full 2> help.err || code=$?
cat help.err
test "$code" -eq 3
test "$(grep -c 'Exception ignored' help.err)" -eq 0
code=0
pulsepair preset fig9 2> /dev/full || code=$?
test "$code" -eq 2
# a closed stdout (fd 1 closed at start) gives the codes of a full one: a CSV written to --out exits 0
# with nothing on stderr, and output meant for stdout exits 3 with one error line and no traceback
pulsepair preset fig3a --out closed-preset.csv >&- 2> closed.err
test ! -s closed.err
test -s closed-preset.csv
printf '%s\n' "family = rect_vs_area" "drive = one_qubit" "grid_start = 0.0" "grid_stop = 20.0" \
  "grid_points = 801" "initial_states = bell" > closed.cfg
pulsepair sweep --config closed.cfg --out closed-sweep.csv >&- 2> closed.err
test ! -s closed.err
test -s closed-sweep.csv
for args in "negativity -- -1 -1 -1" "validate" "--help"; do
  code=0
  pulsepair $args >&- 2> closed.err || code=$?
  cat closed.err
  test "$code" -eq 3
  test "$(grep -c '^error:' closed.err)" -eq 1
  test "$(grep -c Traceback closed.err)" -eq 0
done
# a closed stderr, alone or with a closed stdout, keeps the exit code: the error line is lost, and the
# interpreter's flush at exit does not fail a second time (which exited 120)
code=0
pulsepair preset fig9 2>&- || code=$?
test "$code" -eq 2
for args in "negativity -- -1 -1 -1" "--help"; do
  code=0
  pulsepair $args >&- 2>&- || code=$?
  test "$code" -eq 3
done
