import errno
import gc
import os
import subprocess
import sys

import pytest

import evidential
from evidential import _fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def where(start, stop):
    # a result that tells which process worked the run
    return start, stop, os.getpid()


@pytest.fixture()
def three_runs(monkeypatch):
    monkeypatch.setattr(_fork, "processes", lambda units, least: 3)


@pytest.fixture()
def two_runs(monkeypatch):
    monkeypatch.setattr(_fork, "processes", lambda units, least: 2)


def test_each_run_after_the_first_is_worked_in_a_child(three_runs):
    results = _fork.forked_map(where, 3, 1)
    assert [run[:2] for run in results] == [(0, 1), (1, 2), (2, 3)]
    assert results[0][2] == os.getpid() and os.getpid() not in {r[2] for r in results[1:]}
    assert_no_child_left()


def test_a_child_that_sends_its_result_but_fails_is_worked_again(three_runs, monkeypatch):
    # each child sends its whole result, then exits 1: a result is only
    # taken from a child that exits 0
    leave = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: leave(1))
    assert _fork.forked_map(where, 3, 1) == [(0, 1, os.getpid()), (1, 2, os.getpid()),
                                             (2, 3, os.getpid())]
    assert_no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="lists open descriptors in /proc")
def test_a_run_whose_fork_fails_after_its_pipe_is_made_is_worked_here(three_runs, monkeypatch):
    # os.fork raises as it does when no process is left: each pipe is made
    # and closed again, and every run is worked in the caller, in order
    def no_process():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    pipes, pipe = [], os.pipe
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", no_process)
    assert _fork.forked_map(where, 3, 1) == [(0, 1, os.getpid()), (1, 2, os.getpid()),
                                             (2, 3, os.getpid())]
    assert len(pipes) == 2
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert_no_child_left()


def test_a_child_that_exits_0_having_sent_nothing_is_worked_again(three_runs):
    parent = os.getpid()

    def silent(start, stop):
        if os.getpid() != parent:
            os._exit(0)
        return where(start, stop)

    assert _fork.forked_map(silent, 3, 1) == [(0, 1, parent), (1, 2, parent), (2, 3, parent)]
    assert_no_child_left()


def test_a_forked_run_keeps_its_callers_collector_setting(two_runs):
    was = gc.isenabled()
    try:
        for enabled in (False, True):
            (gc.enable if enabled else gc.disable)()
            assert _fork.forked_map(lambda start, stop: gc.isenabled(), 2, 1) == [enabled] * 2
            assert gc.isenabled() is enabled
            assert_no_child_left()
    finally:
        (gc.enable if was else gc.disable)()


def test_a_callers_own_freeze_outlives_forked_runs(two_runs):
    from evidential.simulate import null_exceedance

    kept = [[k] for k in range(50_000)]
    gc.freeze()
    try:
        null_exceedance(20, (1, 1, 1), 2.0, 100_000, 42)
        assert gc.get_freeze_count() >= len(kept)
        assert_no_child_left()
    finally:
        gc.unfreeze()


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts threads in /proc/self/task; sets its own CPU affinity",
)
def test_processes_split_only_with_work_cpus_and_one_thread():
    # in a fresh interpreter, which runs one OS thread (the test process may
    # run OpenBLAS's): too little work; enough; on one CPU, as `taskset -c 0`
    # runs it; and with a second thread
    code = (
        "import os, threading\n"
        "from evidential import _fork, simulate\n"
        "least, cpus = simulate._PROCESS_CHUNKS, os.sched_getaffinity(0)\n"
        "print(_fork.processes(2 * least - 1, least),"
        " _fork.processes(2 * least, least) == min(len(cpus), 2))\n"
        "os.sched_setaffinity(0, {min(cpus)})\n"
        "print(_fork.processes(10**6, least))\n"
        "os.sched_setaffinity(0, cpus)\n"
        "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
        "print(_fork.processes(10**6, least))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(evidential.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 True\n1\n1\n", "")
