"""Every name a hypersel module exports in ``__all__`` exists in it."""
import importlib

import pytest

MODULES = [
    "hypersel", "hypersel.ordinal", "hypersel.space", "hypersel.hyperspace",
    "hypersel.decomp", "hypersel.selection", "hypersel.selrel", "hypersel.basebuilder",
    "hypersel.scenario", "hypersel.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
