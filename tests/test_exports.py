"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "schottky_gauge", "schottky_gauge.lattice", "schottky_gauge.certify"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
