import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dbarcone


@pytest.mark.parametrize("module", ["dbarcone", "dbarcone.measure"])
def test_every_export_resolves(module):
    # a stale name in __all__ survives `import dbarcone` and fails only on a
    # star-import
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_loads_without_scipy():
    # numpy is the only runtime dependency: importing every module of the
    # package loads no scipy module (the tests and the benchmark use scipy)
    code = (
        "import importlib, pkgutil, sys, dbarcone\n"
        "for mod in pkgutil.iter_modules(dbarcone.__path__):\n"
        "    importlib.import_module('dbarcone.' + mod.name)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(dbarcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
