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


def test_cli_import_loads_no_numpy():
    # only simulate needs numpy, and it imports it on first use
    proc = _run(
        "import sys, evidential.cli\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # records are named tuples: dataclasses and the inspect it pulls in
    # cost about a third of the import
    proc = _run(
        "import sys, evidential.cli\n"
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_ctypes():
    # simulate imports ctypes only to find a generator's state words
    proc = _run("import sys, evidential.cli\nprint('ctypes' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_tracer_finds_its_targets():
    # perfbench/tracer.py looks its functions up by name after the command
    # line is imported, and reads evidential.simulate from sys.modules: a
    # deletion that breaks either breaks the traced benchmark run
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    proc = _run(
        "import importlib.util, sys\n"
        "sys.dont_write_bytecode = True\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import evidential.cli\n"
        "missing = [(m, a) for m, a, _ in tracer.TARGETS\n"
        "           if not hasattr(sys.modules.get('evidential.' + m), a)]\n"
        "print(missing, 'evidential.simulate' in sys.modules)",
        os.path.abspath(tracer),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] True"
