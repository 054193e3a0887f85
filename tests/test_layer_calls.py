"""How the batched sweep calls each layer, counted by spies on the bindings it calls through.

``scenarios`` binds each layer function with ``from .x import``, and ``entanglement`` binds
``assemble_density_batch`` the same way, so a spy set on such a binding sees every call the sweep
makes.  An outside-in tracer wraps the functions in each layer's ``__all__`` and rebinds them where
they are bound, so it relies on the first three tests: every ``__all__`` entry exists, and the sweep
calls every layer through such bindings.
"""

import dataclasses
import functools
import importlib
from collections import Counter

import pytest

from pulsepair import entanglement, evolution, pulses, scenarios
from pulsepair.scenarios import GridSpec, paper_figure_presets

BATCHED = (
    (pulses, "coefficient_map_batch"),
    (evolution, "evolve_correlations_batch"),
    (entanglement, "zero_bloch_negativity_batch"),
)

# the bindings the sweep calls through: maps, evolution, closed form, Jacobi, and the density route's densities
SPIED = (
    (scenarios, "coefficient_map_batch"),
    (scenarios, "evolve_correlations_batch"),
    (scenarios, "zero_bloch_negativity_batch"),
    (scenarios, "hermitian_eigenvalues_batch"),
    (entanglement, "assemble_density_batch"),
)


def _spy(monkeypatch):
    """A list that gets (name, args) of every call through the SPIED bindings from now on."""
    calls = []

    def spy(name, function, *args):
        calls.append((name, args))
        return function(*args)

    for module, name in SPIED:
        monkeypatch.setattr(module, name, functools.partial(spy, name, getattr(module, name)))
    return calls


def _counted_small_sweep(monkeypatch, chunk_cells, mode):
    # 5 points x 2 states of the detuned two-qubit rectangle preset
    monkeypatch.setattr(scenarios, "_CHUNK_CELLS", chunk_cells)
    cfg = paper_figure_presets()["fig2b"]
    cfg = dataclasses.replace(cfg, initial_states=cfg.initial_states[:2], grid=GridSpec(0.0, 2.0, 5), mode=mode)
    calls = _spy(monkeypatch)
    scenarios.run_sweep(cfg)
    return Counter(name for name, _ in calls)


@pytest.mark.parametrize(
    "layer", ["pauli", "pulses", "evolution", "entanglement", "scenarios", "validation", "config", "cli"]
)
def test_every_public_name_resolves(layer):
    # install() calls getattr on each __all__ entry, so a stale name left
    # behind by a deletion would break every traced run
    module = importlib.import_module(f"pulsepair.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_removed_names_leave_the_package_and_adjoint_rotation_stays_traced():
    # the density route builds its partial transposes in one step, so partial_transpose_b is gone;
    # adjoint_rotation leaves the top level but stays a traced evolution name, since validate calls it
    import pulsepair

    for name in ("partial_transpose_b", "adjoint_rotation"):
        assert name not in pulsepair.__all__ and not hasattr(pulsepair, name), name
    assert "partial_transpose_b" not in entanglement.__all__ and not hasattr(entanglement, "partial_transpose_b")
    assert "adjoint_rotation" in evolution.__all__


def test_sweep_binds_each_layer_function_from_its_module():
    for module, name in BATCHED:
        assert name in module.__all__
        assert getattr(scenarios, name) is getattr(module, name)


@pytest.mark.parametrize("chunk_cells, chunks", [(4096, 1), (4, 3)])
def test_a_literal_sweep_calls_each_layer_once_per_chunk(monkeypatch, chunk_cells, chunks):
    # LITERAL chunks take the long route: maps, evolution, closed form
    calls = _counted_small_sweep(monkeypatch, chunk_cells, pulses.CoefficientMode.LITERAL)
    assert calls["coefficient_map_batch"] == 2 * chunks  # one per qubit per chunk, x = 0 included
    for layer_function in ("evolve_correlations_batch", "zero_bloch_negativity_batch"):
        assert calls[layer_function] == chunks, layer_function
    # the guard's density route (the solver bound in scenarios, the density in
    # entanglement) runs only on a chunk with a cell in doubt, and this sweep has none
    for layer_function in ("assemble_density_batch", "hermitian_eigenvalues_batch"):
        assert calls[layer_function] == 0, layer_function


@pytest.mark.parametrize("chunk_cells", [4096, 4])
def test_unitary_sweeps_build_no_maps_and_skip_the_evolution(monkeypatch, chunk_cells):
    # a UNITARY sweep builds no maps, whatever its chunk size; the negativities of
    # the initial states come from one closed-form call for the first sweep of a
    # set of states, and from the per-process memo, with no call, for a repeat
    for closed_form_calls in (1, 0):
        calls = _counted_small_sweep(monkeypatch, chunk_cells, pulses.CoefficientMode.UNITARY)
        assert sorted(calls.elements()) == ["zero_bloch_negativity_batch"] * closed_form_calls


def test_jacobi_gets_only_the_cells_in_doubt(monkeypatch):
    # fig1b/literal's werner cells at 6.95 and 18.475 have their 12th digit in doubt
    cfg = dataclasses.replace(
        paper_figure_presets()["fig1b"],
        mode=pulses.CoefficientMode.LITERAL,
        grid=GridSpec(6.95, 18.475, 2),
    )
    calls = _spy(monkeypatch)
    scenarios.run_sweep(cfg)
    assert [len(args[0]) for name, args in calls if name == "hermitian_eigenvalues_batch"] == [2]
