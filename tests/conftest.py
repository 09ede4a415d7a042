"""Shared test fixtures."""

import pytest

from fano_delta.cli import FAMILIES
from fano_delta.scenarios import builders


@pytest.fixture(scope="session")
def family_runs():
    """The checks of every family at its stored samples, derived once per
    session; tests only read them."""
    return {fam: builders.run_family(fam) for fam in FAMILIES}
