"""Fixtures shared by every test module."""

import pytest

from pulsepair import scenarios


@pytest.fixture(autouse=True)
def _empty_sweep_memos():
    """Each test starts with empty per-process memos, so no count depends on the tests run before it."""
    scenarios._param_cells.cache_clear()
    scenarios._fixed_negativities.cache_clear()
