"""What importing the package pulls in, checked in fresh interpreters."""

import os
import subprocess
import sys

import evidential

SRC = os.path.dirname(evidential.__path__[0])


def _run(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_loads_no_scipy():
    proc = _run(
        "import sys, evidential.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_geometry_imports_without_numpy():
    # a bare package object skips evidential/__init__.py (which loads the
    # numpy-based simulator); a None entry makes any numpy import fail
    proc = _run(
        "import sys, types\n"
        "package = types.ModuleType('evidential')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['evidential'] = package\n"
        "sys.modules['numpy'] = None\n"
        "import evidential.geometry\n",
        evidential.__path__[0],
    )
    assert proc.returncode == 0, proc.stderr
