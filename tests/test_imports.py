"""Each module imports on its own in a fresh interpreter, so an import cycle
between two modules fails here whichever of them a caller imports first."""

import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

# found without importing the package, so a cycle fails the cases below,
# not the collection of this file
_PACKAGE = importlib.util.find_spec("samgog").submodule_search_locations
MODULES = ["samgog"] + [f"samgog.{m.name}" for m in pkgutil.iter_modules(_PACKAGE)]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
