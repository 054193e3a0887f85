"""The benchmark's outside-in tracer against the batched sweep.

``perfbench/tracer.py`` wraps the functions in each layer's ``__all__`` and
rebinds them wherever a ``pulsepair`` module bound them with
``from .x import``.  These tests check that the sweep calls every layer
through such bindings, so the tracer sees one span per layer per chunk.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).parents[1] / "perfbench"))

import tracer  # noqa: E402
from pulsepair import entanglement, evolution, pulses, scenarios  # noqa: E402
from pulsepair.scenarios import GridSpec, paper_figure_presets  # noqa: E402

BATCHED = (
    (pulses, "coefficient_map_batch"),
    (evolution, "evolve_correlations_batch"),
    (evolution, "assemble_density_batch"),
    (entanglement, "negativity_batch"),
)


def _small_sweep():
    # 5 points x 2 states of the detuned two-qubit rectangle preset
    cfg = paper_figure_presets()["fig2b"]
    return dataclasses.replace(cfg, initial_states=cfg.initial_states[:2], grid=GridSpec(0.0, 2.0, 5))


def test_sweep_binds_each_layer_function_from_its_module():
    for module, name in BATCHED:
        assert name in module.__all__
        assert getattr(scenarios, name) is getattr(module, name)


@pytest.mark.parametrize("chunk_cells, chunks", [(4096, 1), (4, 3)])
def test_tracer_records_one_span_per_layer_per_chunk(monkeypatch, chunk_cells, chunks):
    monkeypatch.setattr(scenarios, "_CHUNK_CELLS", chunk_cells)
    originals = {name: getattr(module, name) for module, name in BATCHED}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(scenarios, name) is not fn for name, fn in originals.items())
        scenarios.run_sweep(_small_sweep()).csv_text()
    finally:
        t.uninstall()
    assert all(getattr(scenarios, name) is fn for name, fn in originals.items())
    names = [s[tracer.NAME] for s in t.spans]
    root = names.index("scenarios.run_sweep")
    maps = [s for s in t.spans if s[tracer.NAME] == "pulses.coefficient_map_batch"]
    assert len(maps) == 2 * chunks  # one per qubit per chunk, x = 0 included
    assert all(s[tracer.PARENT] == root for s in maps)
    for layer_function in (
        "evolution.evolve_correlations_batch",
        "evolution.assemble_density_batch",
        "entanglement.negativity_batch",
        "pauli.hermitian_eigenvalues_batch",
    ):
        assert names.count(layer_function) == chunks, layer_function
    assert t.counts["scenarios.cells"] == 10
    assert t.counts["pauli.matrices"] == 10
    assert t.counts["scenarios.csv_bytes"] > 0
