"""What importing the package pulls in, checked in fresh interpreters."""

import os
import subprocess
import sys

import pytest

import evidential

SRC = os.path.dirname(evidential.__path__[0])


def _run(code, *args, env=None, flags=()):
    # *env* adds variables; OPENBLAS_NUM_THREADS is set only through it;
    # *flags* go to the interpreter
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env or {}, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=environ, capture_output=True, text=True, timeout=60,
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


def test_cli_import_loads_no_signal():
    # simulate imports signal only where it forks, to kill its children
    proc = _run("import sys, evidential.cli\nprint('signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_pathlib():
    # no command needs pathlib (and the fnmatch and urllib.parse it loads);
    # -S, because a .pth file that site runs may load it anyway
    proc = _run("import sys, evidential.cli\nprint('pathlib' in sys.modules)", flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_load_ledger_loads_no_pathlib(tmp_path):
    # load_ledger reads a file as compute does, with open
    path = tmp_path / "ledger.csv"
    path.write_text("id,n,x1,x2,x3,s1,s2,s3\na,20,1,2,3,1,1,1\n", encoding="utf-8")
    proc = _run(
        "import sys, evidential\n"
        "print(len(evidential.load_ledger(sys.argv[1])), 'pathlib' in sys.modules)",
        str(path), flags=("-S",),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 False"


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


SIMULATE = "['simulate', '--n', '20', '--sigma', '1,1,1', '--reps', '1000']"


def test_simulate_without_numpy_is_an_error_not_a_traceback():
    proc = _run(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from evidential.cli import main\n"
        f"sys.exit(main({SIMULATE}))"
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: simulate needs numpy: "), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


#: the ways numpy gets loaded: the command, a library call, and a bare read
#: of simulate.np, as perfbench/tracer.py reads it before the command runs
LOADERS = {
    "command": f"from evidential.cli import main\nmain({SIMULATE})",
    "library": "from evidential.simulate import null_exceedance\n"
    "null_exceedance(20, (1, 1, 1), 2.0, 1000, 0)",
    "bare_read": "from evidential import simulate\nsimulate.np",
}
LOADS = [(loader, threads) for loader in LOADERS for threads in (None, "2")]


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task; OpenBLAS starts no pool on one CPU",
)
@pytest.mark.parametrize(
    "loader, threads", LOADS, ids=[f"{l}-{t}".removeprefix("command-") for l, t in LOADS]
)
def test_simulate_starts_no_blas_pool_and_restores_the_environment(loader, threads):
    # simulate multiplies no matrices: however numpy is loaded, simulate
    # loads it with one OpenBLAS thread unless the caller chose a count,
    # which it keeps; with one thread it may split replications across CPUs
    env = {"OPENBLAS_NUM_THREADS": threads} if threads else {}
    proc = _run(
        "import os, sys\n"
        f"{LOADERS[loader]}\n"
        "from evidential import _fork, simulate\n"
        "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')),"
        " _fork.processes(24, simulate._PROCESS_CHUNKS),"
        " os.environ.get('OPENBLAS_NUM_THREADS'))",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, tasks, processes, value = proc.stdout.splitlines()[-1].split()
    assert loaded == "True" and value == str(threads)
    if threads is None:
        assert tasks == "1" and int(processes) > 1
