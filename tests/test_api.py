"""The public name lists: every exported name resolves, once."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["mfsde", "mfsde.norms", "mfsde.solver", "mfsde.models"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
    star = {}
    exec(f"from {module} import *", star)
    assert set(names) <= set(star)
