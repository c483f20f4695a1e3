"""Every name a curelet module exports resolves, and importing the
package loads numpy alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curelet

MODULES = ["curelet"] + [f"curelet.{info.name}"
                         for info in pkgutil.iter_modules(curelet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_import_loads_numpy_fft_and_no_scipy():
    # scipy cost every process ~1.4 s of import; numpy.fft is loaded up
    # front so that the first transform of a call does not pay for it
    code = ("import sys, curelet, curelet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.fft' in sys.modules)")
    path = os.pathsep.join([str(Path(curelet.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.splitlines() == ["[]", "True"]
