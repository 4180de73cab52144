import importlib

import pytest


@pytest.mark.parametrize("module", ["dbarcone", "dbarcone.measure"])
def test_every_export_resolves(module):
    # a stale name in __all__ survives `import dbarcone` and fails only on a
    # star-import
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
