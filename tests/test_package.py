"""Public names: every export resolves, so a name left behind by a deletion fails."""

import importlib

import pytest

import samediff

MODULES = ["cli", "config", "data", "harness", "io", "losses", "model", "pairing",
           "privacy", "rng", "theory", "trainer"]


def test_every_package_export_resolves():
    assert [name for name in samediff.__all__ if not hasattr(samediff, name)] == []
    assert len(set(samediff.__all__)) == len(samediff.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"samediff.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
