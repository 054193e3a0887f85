"""Fixtures shared by every test module."""

import pytest

from pulsepair import scenarios, validation


@pytest.fixture(autouse=True)
def _empty_per_process_memos():
    """Each test starts and ends with empty per-process memos (the sweep's fixed negativities, the CSV's parameter
    cells and validate's preset checks), so no count or result depends on the tests run before it, and a memo filled
    under a test's monkeypatch reaches no later test or module-scoped fixture."""
    memos = (scenarios._param_cells, scenarios._fixed_negativities, validation._preset_results)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
