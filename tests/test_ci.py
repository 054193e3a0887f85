"""The workflow and the scripts under ci/ name each other: no step calls a missing script, and no script is orphaned.

ci/README.md, whose recipes run the scripts by hand, names no missing script either. No test or script under tests/ or
ci/ names the benchmark's directory: they keep their own preset digests and their own spies.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_the_workflow_and_ci_name_the_same_scripts():
    named = set(re.findall(r"\bci/([\w.-]+)", (ROOT / ".github" / "workflows" / "tier1.yml").read_text("utf-8")))
    scripts = {p.name for p in (ROOT / "ci").iterdir() if p.is_file() and p.name != "README.md"}
    assert named, "the workflow names no ci/ script"
    assert sorted(named - scripts) == [], "named by the workflow, missing from ci/"
    assert sorted(scripts - named) == [], "in ci/, named by no workflow step"


def test_the_ci_readme_names_only_existing_scripts():
    # a path under ci/ in a recipe, or the first cell of a row of the script table
    text = (ROOT / "ci" / "README.md").read_text("utf-8")
    named = set(re.findall(r"(?:\bci/|^\| `)([\w.-]+)", text, re.MULTILINE))
    assert named, "ci/README.md names no ci/ script"
    missing = sorted(name for name in named if not (ROOT / "ci" / name).is_file())
    assert missing == [], "named by ci/README.md, missing from ci/"


def test_tests_and_ci_read_nothing_under_the_benchmark():
    # the benchmark measures the program and keeps its own digests; the program's tests and
    # CI scripts keep theirs (tests/preset_digests.json), so a benchmark-only change breaks neither
    this = Path(__file__).resolve()
    sources = [p for d in ("tests", "ci") for p in sorted((ROOT / d).rglob("*")) if p.suffix in (".py", ".sh")]
    assert sources, "no .py or .sh file under tests/ or ci/"
    naming = [str(p.relative_to(ROOT)) for p in sources if p.resolve() != this and "perfbench" in p.read_text("utf-8")]
    assert naming == [], "names the benchmark's directory"
