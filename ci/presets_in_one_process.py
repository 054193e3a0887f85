"""The nine files that the pulsepair processes of the console-script step wrote into the directory
given as the one argument have the sha256 digests in tests/preset_digests.json, and the
sweep's and the CSV's per-process memos live across sweeps in one process: all 24 preset/mode
pairs, reversed and then shuffled, print those files' bytes.

Usage: python ci/presets_in_one_process.py DIR   (see ci/README.md)
"""
import dataclasses, hashlib, json, os, random, sys
from pulsepair.pulses import CoefficientMode
from pulsepair.scenarios import paper_figure_presets, run_sweep
files = (("a.csv", "fig1a/literal"), ("h.csv", "fig2a/literal"), ("b.csv", "fig1b/literal"), ("d.csv", "fig2b/literal"), ("c.csv", "fig3a/unitary"), ("e.csv", "fig5a/literal"), ("f.csv", "fig1a/unitary"), ("g.csv", "fig3a/literal"), ("fifo.csv", "fig3a/unitary"))
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "preset_digests.json")) as f:
    reference = json.load(f)
for path, key in files:
    digest = hashlib.sha256(open(os.path.join(sys.argv[1], path), "rb").read()).hexdigest()
    print(key, digest)
    if digest != reference[key]:
        sys.exit(f"{path}: sha256 {digest}, expected {reference[key]} for {key}")
configs = {f"{name}/{mode.value}": dataclasses.replace(cfg, mode=mode) for name, cfg in paper_figure_presets().items() for mode in CoefficientMode}
keys = list(configs)[::-1]
texts = {key: run_sweep(configs[key]).csv_text() for key in keys}
random.Random(37).shuffle(keys)
for key in keys:
    if run_sweep(configs[key]).csv_text() != texts[key]:
        sys.exit(f"{key}: the shuffled pass printed other bytes than the reversed pass")
for path, key in files:
    if open(os.path.join(sys.argv[1], path), "rb").read() != texts[key].encode("ascii"):
        sys.exit(f"{path}: {key} printed in one process differs from the file a pulsepair process wrote")
print("24 preset/mode pairs, reversed then shuffled in one process: both passes agree, nine files match")
