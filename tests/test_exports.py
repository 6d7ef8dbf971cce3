import importlib

import pytest


@pytest.mark.parametrize("module", ["eidlab", "eidlab.gains"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
