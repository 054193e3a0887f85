#!/usr/bin/env bash
# The nine CSV files that ci/presets_in_one_process.py checks, each written by its own `pulsepair`
# process: five presets (four of them literal), three config file sweeps and a FIFO target.
#
# Usage: bash ci/nine_files.sh, with `pulsepair` on PATH. It writes a.csv ... h.csv and fifo.csv,
# with the config files and the FIFO, into the current directory. A numpy RuntimeWarning fails it.
set -eo pipefail
export PYTHONWARNINGS=error::RuntimeWarning

pulsepair preset fig1a --mode literal --out a.csv
pulsepair preset fig2a --mode literal --out h.csv
pulsepair preset fig1b --mode literal --out b.csv
pulsepair preset fig2b --mode literal --out d.csv
pulsepair preset fig3a --out c.csv
# fig5a literal as a config file: a rectangle on qubit a, an exponential pulse on qubit b
printf '%s\n' "family = combined_vs_time" "drive = both_qubits" "mode = literal" \
  "detuning_prime_a = 0.0" "detuning_prime_b = 0.0" "rabi_ratio_a = 0.0" "rabi_ratio_b = 5.0" \
  "rect_omega = 1.0" "grid_start = 0.0" "grid_stop = 5.0" "grid_points = 801" \
  "initial_states = bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7" > fig5a.cfg
pulsepair sweep --config fig5a.cfg --out e.csv
# fig3a literal with detuning_prime_a = 3.0, a slot exp_vs_time ignores: the resonant literal route
printf '%s\n' "family = exp_vs_time" "drive = one_qubit" "mode = literal" \
  "detuning_prime_a = 3.0" "detuning_prime_b = 0.0" "rabi_ratio_a = 5.0" "rabi_ratio_b = 0.0" \
  "rect_omega = 1.0" "grid_start = 0.0" "grid_stop = 5.0" "grid_points = 801" \
  "initial_states = bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7" > fig3a-detuned-slot.cfg
pulsepair sweep --config fig3a-detuned-slot.cfg --out g.csv
# the six required keys alone: the defaults of every other key give fig1a's unitary sweep
printf '%s\n' "family = rect_vs_area" "drive = one_qubit" "grid_start = 0.0" "grid_stop = 20.0" \
  "grid_points = 801" "initial_states = bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7" > required.cfg
pulsepair sweep --config required.cfg --out f.csv
# a FIFO target is written in place and stays a FIFO
mkfifo out.fifo
timeout 60 cat out.fifo > fifo.csv &
pulsepair preset fig3a --out out.fifo
wait
test -p out.fifo
