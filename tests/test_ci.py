"""The workflow and the scripts under ci/ name each other: no step calls a missing script, and no script is orphaned."""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_the_workflow_and_ci_name_the_same_scripts():
    named = set(re.findall(r"\bci/([\w.-]+)", (ROOT / ".github" / "workflows" / "tier1.yml").read_text("utf-8")))
    scripts = {p.name for p in (ROOT / "ci").iterdir() if p.is_file() and p.name != "README.md"}
    assert named, "the workflow names no ci/ script"
    assert sorted(named - scripts) == [], "named by the workflow, missing from ci/"
    assert sorted(scripts - named) == [], "in ci/, named by no workflow step"
