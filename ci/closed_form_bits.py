"""sha256 of the raw zero_bloch_negativity_batch bytes of the fig1b and fig2b tensors in both modes and of seed 0's
closed-form-triangle tensors, one line each after the sha256 of the tensors: the workflow runs this by default, under
two OpenBLAS kernels and with numpy's dispatched CPU features off, and diffs the outputs.

The triangle's tensors come from a QR factorisation and matrix products, whose bits the BLAS kernel may move, so the
first run saves them to TRIANGLE (a .npy path) and every later run reads them from there.

Usage: PYTHONPATH=src python ci/closed_form_bits.py TRIANGLE > closed-form-default.txt   (see ci/README.md)
"""
import dataclasses
import hashlib
import os
import sys

import numpy as np

from pulsepair import entanglement, evolution, scenarios, validation
from pulsepair.pulses import CoefficientMode


def line(name, tensors):
    raw = entanglement.zero_bloch_negativity_batch(tensors)
    print(name, *(hashlib.sha256(x.tobytes()).hexdigest() for x in (tensors, raw)))


presets = scenarios.paper_figure_presets()
for name in ("fig1b", "fig2b"):
    for mode in CoefficientMode:
        cfg = dataclasses.replace(presets[name], mode=mode)
        states, maps = [s.correlations for s in cfg.initial_states], scenarios._grid_maps(cfg, cfg.grid.values())
        line(f"{name}/{mode.value}", evolution.evolve_correlations_batch(states, *maps)[0])
path = sys.argv[1]
if not os.path.exists(path):  # the triangle's tensors, taken from its own call of the closed form
    captured, negativity = [], entanglement.zero_bloch_negativity_batch
    entanglement.zero_bloch_negativity_batch = lambda tensors: captured.append(tensors) or negativity(tensors)
    key = dict(validation._CHECKS)[validation._check_negativity_closed_form]
    validation._check_negativity_closed_form(np.random.default_rng([0, key]))
    entanglement.zero_bloch_negativity_batch = negativity
    np.save(path, captured[0])
line("triangle/seed0", np.load(path))
