"""validate's pulse sampler against the RK4 series bound: seeds 0-99 and 2**31 - 1 in one process,
each with the 15 checks in order, and each check's worst error/tolerance over the seeds.

Usage: python ci/validate_seeds.py   (see ci/README.md)
"""
import sys
from pulsepair.validation import run_validation
names = [
    "rotation_d_row_anchor", "rotation_orthogonality", "oracle_triangle_rotations", "oracle_triangle_propagators",
    "fano_conjugation_consistency", "negativity_brute_force", "pinned_singlet_negativity",
    "pinned_werner_threshold", "pinned_partial_negativities", "werner_line_monotone", "preset_unitary_constancy",
    "preset_initial_value", "literal_residue_detuned_floor", "literal_residue_resonant_zero",
    "negativity_closed_form_triangle",
]
worst, failed = dict.fromkeys(names, (0.0, None)), []
for seed in [*range(100), 2**31 - 1]:
    results = run_validation(seed)
    if [r.name for r in results] != names:
        sys.exit(f"seed {seed}: checks {[r.name for r in results]}, expected {names}")
    failed += [(seed, r.name, r.max_error) for r in results if not r.passed]
    for r in results:
        worst[r.name] = max(worst[r.name], (r.max_error / r.tolerance, seed), key=lambda w: w[0])
for name, (ratio, seed) in worst.items():
    print(f"{name}: worst error/tolerance {ratio:.3g} (seed {seed})")
print(f"run_validation on 101 seeds: {len(failed)} failed checks")
sys.exit("\n".join(map(str, failed)) or None)
