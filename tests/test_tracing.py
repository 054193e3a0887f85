"""The benchmark's outside-in tracer against the batched sweep.

``perfbench/tracer.py`` wraps the functions in each layer's ``__all__`` and
rebinds them wherever a ``pulsepair`` module bound them with
``from .x import``.  These tests check that every ``__all__`` entry exists,
and that the sweep calls every layer through such bindings, so the tracer
sees one span per layer per chunk.
"""

import dataclasses
import importlib
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
    (entanglement, "zero_bloch_negativity_batch"),
)


def _small_sweep(mode):
    # 5 points x 2 states of the detuned two-qubit rectangle preset
    cfg = paper_figure_presets()["fig2b"]
    return dataclasses.replace(cfg, initial_states=cfg.initial_states[:2], grid=GridSpec(0.0, 2.0, 5), mode=mode)


def _traced_small_sweep(monkeypatch, chunk_cells, mode):
    monkeypatch.setattr(scenarios, "_CHUNK_CELLS", chunk_cells)
    originals = {name: getattr(module, name) for module, name in BATCHED}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(scenarios, name) is not fn for name, fn in originals.items())
        scenarios.run_sweep(_small_sweep(mode)).csv_text()
    finally:
        t.uninstall()
    assert all(getattr(scenarios, name) is fn for name, fn in originals.items())
    names = [s[tracer.NAME] for s in t.spans]
    root = names.index("scenarios.run_sweep")
    maps = [s for s in t.spans if s[tracer.NAME] == "pulses.coefficient_map_batch"]
    assert all(s[tracer.PARENT] == root for s in maps)
    assert t.counts["scenarios.cells"] == 10
    assert t.counts["scenarios.csv_bytes"] > 0
    return t, names, len(maps)


@pytest.mark.parametrize(
    "layer", ["pauli", "pulses", "evolution", "entanglement", "scenarios", "validation", "config", "cli"]
)
def test_every_public_name_resolves(layer):
    # install() calls getattr on each __all__ entry, so a stale name left
    # behind by a deletion would break every traced run
    module = importlib.import_module(f"pulsepair.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_sweep_binds_each_layer_function_from_its_module():
    for module, name in BATCHED:
        assert name in module.__all__
        assert getattr(scenarios, name) is getattr(module, name)


@pytest.mark.parametrize("chunk_cells, chunks", [(4096, 1), (4, 3)])
def test_tracer_records_one_span_per_layer_per_chunk(monkeypatch, chunk_cells, chunks):
    # LITERAL chunks take the long route: maps, evolution, closed form
    t, names, maps = _traced_small_sweep(monkeypatch, chunk_cells, pulses.CoefficientMode.LITERAL)
    assert maps == 2 * chunks  # one per qubit per chunk, x = 0 included
    for layer_function in ("evolution.evolve_correlations_batch", "entanglement.zero_bloch_negativity_batch"):
        assert names.count(layer_function) == chunks, layer_function
    # the guard's Jacobi route (its calls are bound in entanglement) runs only
    # on a chunk with a cell in doubt, and this sweep has none
    for layer_function in ("evolution.assemble_density_batch", "pauli.hermitian_eigenvalues_batch"):
        assert names.count(layer_function) == 0, layer_function
    assert t.counts["pauli.matrices"] == 0


@pytest.mark.parametrize("chunk_cells, chunks", [(4096, 1), (4, 3)])
def test_unitary_chunks_build_maps_and_skip_the_evolution(monkeypatch, chunk_cells, chunks):
    # a UNITARY chunk builds its maps for their errors only; the negativities
    # of the initial states come from one closed-form call per sweep
    t, names, maps = _traced_small_sweep(monkeypatch, chunk_cells, pulses.CoefficientMode.UNITARY)
    assert maps == 2 * chunks
    assert names.count("evolution.evolve_correlations_batch") == 0
    assert names.count("entanglement.zero_bloch_negativity_batch") == 1
    assert t.counts["pauli.matrices"] == 0


def test_tracer_counts_only_the_cells_sent_to_jacobi():
    # fig1b/literal's werner cells at 6.95 and 18.475 have their 12th digit in doubt
    cfg = dataclasses.replace(
        paper_figure_presets()["fig1b"],
        mode=pulses.CoefficientMode.LITERAL,
        grid=GridSpec(6.95, 18.475, 2),
    )
    t = tracer.Tracer()
    t.install()
    try:
        scenarios.run_sweep(cfg)
    finally:
        t.uninstall()
    assert t.counts["scenarios.cells"] == 6
    assert t.counts["pauli.matrices"] == 2


def test_tracer_counts_rk4_steps_taken_and_needed():
    p = pulses.PulseSpec.rectangular(1.0, duration=1.0)
    t = tracer.Tracer()
    t.install()
    try:
        evolution.rk4_oracle_batch([p, p], [1.0, 0.5], step=1e-2)
    finally:
        t.uninstall()
    assert [s[tracer.NAME] for s in t.spans] == ["evolution.rk4_oracle_batch"]
    # a common 100 steps for both pairs; the shorter one needs only 50
    assert t.counts["evolution.rk4_steps"] == 200
    assert t.counts["evolution.rk4_needed_steps"] == 150
