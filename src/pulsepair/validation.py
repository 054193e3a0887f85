"""End-to-end self-checks: oracle agreement and structural invariants.

Each check produces (name, max_error, tolerance); run_validation returns
them all so the CLI can print a machine-readable summary and exit nonzero
on the first failure.  Each check draws all its inputs at once, as arrays, from its
own stream default_rng([seed, key]), its key from _CHECKS (_random_pulses gives one
PulseSpec of n, _random_physical_correlations an (n, 3) array); the tolerances hold for any seed.  The preset
checks read only what they gate: the closed form of the evolved UNITARY
maps, the imaginary parts of the resonant LITERAL maps, and the residues of
the detuned LITERAL ones, the only LITERAL maps they evolve; a process computes
them once (_preset_results).

Two facts about the physics are worth stating up front because they are
easy to mistake for bugs (the validate command prints them as notes):

* UNITARY mode applies independent local rotations to the two qubits, and
  negativity is invariant under local unitaries, so every UNITARY sweep is
  constant.  LITERAL mode, not a physical map, varies only for detuned
  rectangular drives: a resonant LITERAL sweep is flat after its first point.
* The LITERAL-mode imaginary residue is nonzero only for detuned
  rectangular drives.  On resonance (and for the resonant exponential
  pulse always) the verbatim closed forms are real, so the residue is
  identically zero even though the literal curve differs from the
  unitary one.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import entanglement, evolution, pauli, pulses, scenarios
from .errors import InvalidConfig

__all__ = ["CheckResult", "run_validation", "VALIDATION_NOTES"]

VALIDATION_NOTES = (
    "unitary mode applies local rotations only, so negativity is constant "
    "along every sweep; literal mode matches the paper only qualitatively: a "
    "resonant literal sweep is flat after its first point; detuned rectangles vary",
    "literal-mode imaginary residue is nonzero only for detuned rectangular "
    "drives; resonant literal maps are real and carry zero residue",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def _result(name: str, err: float, tol: float) -> CheckResult:
    return CheckResult(name, float(err), tol, float(err) <= tol)


def _random_pulses(rng: "np.random.Generator", n: int) -> tuple[pulses.PulseSpec, np.ndarray]:
    """n (pulse, time) draws: half rectangles ending at their window, T = t, 70 % of them detuned; half exponential."""
    rect = rng.random(n) < 0.5
    # cap the exponential Rabi frequency so the fixed-step reference integrator resolves the fastest
    # oscillation (h * Omega <= 0.01 keeps the fourth-order error far below the 1e-6 agreement gate)
    omega = np.where(rect, rng.uniform(0.05, 4.0, n), rng.uniform(0.0, 10.0, n))
    delta = np.where(rng.random(n) < 0.7, rng.uniform(-4.0, 4.0, n), 0.0)
    gamma, t = rng.uniform(0.2, 2.0, n), rng.uniform(0.05, 50.0, n)
    return pulses.PulseSpec(omega, np.where(rect, delta, 0.0), np.where(rect, t, np.inf), np.where(rect, 0.0, gamma)), t


def _published_d_row(batch: pulses.PulseSpec, ts: np.ndarray) -> np.ndarray:
    """The paper's D rows of N (pulse, t) pairs, (N, 3), evaluated here; only lambda(t) comes from pulses._rotations."""
    rect = np.isfinite(batch.window)
    # an exponential pulse's row is the rectangle's at Omega = Omega_1 = 1, Delta = 0, with lambda(t) for t
    om, dl = np.where(rect, batch.omega0, 1.0), np.where(rect, batch.delta, 0.0)
    om1 = np.hypot(om, dl)
    ph = om1 * pulses._rotations(batch, ts)[3]  # _rotations' tau: t for a rectangle, lambda(t) otherwise
    d = (dl * om / om1**2 * (1.0 - np.cos(ph)), om / om1 * np.sin(ph), (om / om1) ** 2 * (np.cos(ph) + (dl / om) ** 2))
    return np.stack(d, axis=-1)


def _check_d_row_anchor(rng) -> list[CheckResult]:
    batch, ts = _random_pulses(rng, 1000)
    m = pulses.coefficient_map_batch(batch, ts)
    worst = float(np.abs(m[:, 2] - _published_d_row(batch, ts)).max())
    ortho = float(np.abs(m.transpose(0, 2, 1) @ m - np.eye(3)).max())
    ortho = max(ortho, float(np.abs(np.linalg.det(m) - 1.0).max()))
    return [
        _result("rotation_d_row_anchor", worst, 1e-12),
        _result("rotation_orthogonality", ortho, 1e-10),
    ]


def _check_oracle_triangle(rng) -> list[CheckResult]:
    batch, t_ends = _random_pulses(rng, 80)
    rk4 = evolution.rk4_oracle_batch(batch, t_ends, step=evolution.RK4_DEFAULT_STEP)
    exact = evolution.unitary_oracle_batch(batch, t_ends)
    analytic = pulses.coefficient_map_batch(batch, t_ends)
    r_exact, r_rk4 = evolution.adjoint_rotation(exact), evolution.adjoint_rotation(rk4)
    pairs = ((analytic, r_exact), (analytic, r_rk4), (r_exact, r_rk4))
    rot_err = max(float(np.abs(a - b).max()) for a, b in pairs)
    prop_err = float(np.linalg.norm(exact - rk4, ord=2, axis=(1, 2)).max())
    return [
        _result("oracle_triangle_rotations", rot_err, 1e-6),
        _result("oracle_triangle_propagators", prop_err, 1e-6),
    ]


def _random_physical_correlations(rng: "np.random.Generator", n: int) -> np.ndarray:
    """n diagonals (c_xx, c_yy, c_zz), (n, 3), uniform on the physical tetrahedron by rejection from [-1, 1]^3."""
    c = np.empty((0, 3))
    while len(c) < n:  # a third of the cube is physical
        draw = rng.uniform(-1.0, 1.0, size=(3 * (n - len(c)) + 8, 3))
        c = np.concatenate((c, draw[np.min(evolution._bell_diagonal_rho_eigenvalues(draw.T), axis=0) >= 0.0]))
    return c[:n]


def _check_fano_consistency(rng) -> list[CheckResult]:
    (p1s, ts), (p2s, _) = _random_pulses(rng, 500), _random_pulses(rng, 500)
    p2s = p2s._replace(window=np.maximum(p2s.window, ts))  # qubit 2's rectangles last until t at least; checked again
    cs = _random_physical_correlations(rng, 500)
    m1, m2 = (pulses.coefficient_map_batch(p, ts) for p in (p1s, p2s))
    direct = evolution.evolve_correlations_batch(cs[:, None], m1, m2)[0][:, 0]
    u1, u2 = (evolution.unitary_oracle_batch(p, ts) for p in (p1s, p2s))
    u12 = np.einsum("nij,nkl->nikjl", u1, u2).reshape(500, 4, 4)
    # the coefficient map substitutes evolved operators into the initial expansion, which conjugates the
    # state by U^dag; comparing densities checks the tensor and that both Bloch vectors stay zero at once
    rho = u12.conj().transpose(0, 2, 1) @ evolution.assemble_density_batch(evolution._diagonal_tensors(cs)) @ u12
    worst = float(np.abs(evolution.assemble_density_batch(direct) - rho).max())
    return [_result("fano_conjugation_consistency", worst, 1e-9)]


def _check_negativity_oracle(rng) -> list[CheckResult]:
    c = rng.uniform(-1.0, 1.0, size=(1000, 3))
    lapack = entanglement._density_negativities(evolution._diagonal_tensors(c), np.linalg.eigvalsh)[0]
    err = float(np.abs(_negativities(c) - lapack).max())
    return [_result("negativity_brute_force", err, 1e-10)]


def _check_negativity_closed_form(rng) -> list[CheckResult]:
    """Closed form, Jacobi and LAPACK on 1000 tensors M1^T diag(c) M2 with physical c, and on their x-decoupled parts.

    Four groups of 250 maps: proper rotations, the same with a reflection on
    one side (det C~ flips sign), literal-style maps with entries in [-1, 1],
    and those with c_zz = 0 (rank-deficient).  Each tensor comes again with
    T_xy, T_xz, T_yx and T_zx zeroed, so the closed form takes both its routes.
    """
    c = _random_physical_correlations(rng, 1000)
    c[750:, 2] = 0.0
    q = np.linalg.qr(rng.normal(size=(2, 500, 3, 3)))[0]
    q *= np.sign(np.linalg.det(q))[..., None, None]
    q[0, 250:] *= -1.0
    maps = np.concatenate((q, rng.uniform(-1.0, 1.0, size=(2, 500, 3, 3))), axis=1)
    tensors = maps[0].transpose(0, 2, 1) @ evolution._diagonal_tensors(c) @ maps[1]
    tensors = np.concatenate((tensors, tensors * [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
    closed = entanglement._clamp(entanglement.zero_bloch_negativity_batch(tensors))
    jacobi, lapack = entanglement._density_negativities(tensors, pauli.hermitian_eigenvalues_batch, np.linalg.eigvalsh)
    err = max(float(np.abs(a - b).max()) for a, b in ((closed, jacobi), (closed, lapack), (jacobi, lapack)))
    return [_result("negativity_closed_form_triangle", err, 1e-10)]


def _negativities(diagonals) -> np.ndarray:
    """Clamped closed-form negativities of the Bell-diagonal states with these diagonals."""
    return entanglement._clamp(entanglement.zero_bloch_negativity_batch(evolution._diagonal_tensors(diagonals)))


def _check_pinned_values(rng) -> list[CheckResult]:
    singlet, threshold, partial_a, partial_b = _negativities(
        [(-1.0, -1.0, -1.0), (-1.0 / 3.0,) * 3, (-0.9, -0.9, -0.9), (-0.9, -0.8, -0.6)]
    )
    return [
        _result("pinned_singlet_negativity", abs(singlet - 1.0), 1e-12),
        _result("pinned_werner_threshold", abs(threshold), 1e-12),
        _result("pinned_partial_negativities", max(abs(partial_a - 0.85), abs(partial_b - 0.65)), 1e-10),
    ]


def _check_werner_monotone(rng) -> list[CheckResult]:
    xs = np.linspace(-1.0, 1.0 / 3.0, 201)
    values = _negativities(np.repeat(xs[:, None], 3, axis=1))
    rises = values[1:] - values[:-1]  # non-increasing along the line
    past = np.abs(values[1:][xs[1:] >= -1.0 / 3.0])  # flat zero past the threshold
    return [_result("werner_line_monotone", max(0.0, rises.max(), past.max(initial=0.0)), 1e-12)]


def _check_presets(rng) -> list[CheckResult]:
    """A new list of _preset_results(), so a caller's edit changes no later run; nothing is drawn from rng."""
    return list(_preset_results())


@functools.cache
def _preset_results() -> tuple[CheckResult, ...]:
    """The maps and evolution a UNITARY sweep skips, with no rounding guard (under 3e-14) and no LITERAL closed form.

    The fixed presets are the only inputs, so a process computes the four results once, for every seed.
    """
    const_err = start_err = literal_detuned_residue = literal_resonant_imag = 0.0
    presets = scenarios.paper_figure_presets().values()
    per_preset = [[s.correlations for s in cfg.initial_states] for cfg in presets]
    # every preset's initial negativities from one call, split back per preset
    initials = _negativities([c for states in per_preset for c in states])
    initials = np.split(initials, np.cumsum(list(map(len, per_preset)))[:-1])
    for cfg, states, initial in zip(presets, per_preset, initials):
        x = cfg.grid.values()
        tensors = evolution.evolve_correlations_batch(states, *scenarios._grid_maps(cfg, x))[0]
        evolved = entanglement._clamp(entanglement.zero_bloch_negativity_batch(tensors))
        const_err = max(const_err, float(np.abs(evolved - initial).max()))
        start_err = max(start_err, float(np.abs(evolved[0] - initial).max()))
        literal = scenarios._grid_maps(replace(cfg, mode=pulses.CoefficientMode.LITERAL), x)  # evolved only if detuned
        if any(cfg.detuning_prime):
            residue = float(evolution.evolve_correlations_batch(states, *literal)[1].max())
            literal_detuned_residue = max(literal_detuned_residue, residue)
        else:
            literal_resonant_imag = max(literal_resonant_imag, float(np.abs(np.imag(literal)).max()))
    return (
        _result("preset_unitary_constancy", const_err, 1e-9),
        _result("preset_initial_value", start_err, 1e-10),
        # detuned rectangular literal sweeps must show a real residue signal
        _result("literal_residue_detuned_floor", max(0.0, 1e-6 - literal_detuned_residue), 1e-12),
        # resonant literal maps are real, so their residue is exactly zero
        _result("literal_residue_resonant_zero", literal_resonant_imag, 1e-15),
    )


# (check, key) in report order.  Each check draws only from default_rng([seed, key]), so deleting or reordering one
# moves no other check's inputs; keys 5-7 draw nothing.  No key is 0: SeedSequence pads its entropy with zeros, so
# default_rng([seed, 0]) is default_rng(seed), and that key would quietly share the bare seed's stream.
_CHECKS = (
    (_check_d_row_anchor, 1), (_check_oracle_triangle, 2), (_check_fano_consistency, 3), (_check_negativity_oracle, 4),
    (_check_pinned_values, 5), (_check_werner_monotone, 6), (_check_presets, 7), (_check_negativity_closed_form, 8),
)


def run_validation(seed: int = 0) -> list[CheckResult]:
    """Run every check of _CHECKS on its own keyed stream; returns results in a stable order."""
    if seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed}")
    return [r for check, key in _CHECKS for r in check(np.random.default_rng([seed, key]))]
