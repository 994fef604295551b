import contextlib
import gc
import io
import os

import pytest

from evidential import _fork, cli

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
    results = _fork.forked_map(where, 3, 1, 1)
    assert [run[:2] for run in results] == [(0, 1), (1, 2), (2, 3)]
    assert results[0][2] == os.getpid() and os.getpid() not in {r[2] for r in results[1:]}
    assert_no_child_left()


def test_a_child_that_sends_its_result_but_fails_is_worked_again(three_runs, monkeypatch):
    # each child sends its whole result, then exits 1: a result is only
    # taken from a child that exits 0
    leave = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: leave(1))
    assert _fork.forked_map(where, 3, 1, 1) == [(0, 1, os.getpid()), (1, 2, os.getpid()),
                                                (2, 3, os.getpid())]
    assert_no_child_left()


def test_a_child_that_exits_0_having_sent_nothing_is_worked_again(three_runs):
    parent = os.getpid()

    def silent(start, stop):
        if os.getpid() != parent:
            os._exit(0)
        return where(start, stop)

    assert _fork.forked_map(silent, 3, 1, 1) == [(0, 1, parent), (1, 2, parent), (2, 3, parent)]
    assert_no_child_left()


def test_a_forked_run_keeps_its_callers_collector_setting(two_runs):
    was = gc.isenabled()
    try:
        for enabled in (False, True):
            (gc.enable if enabled else gc.disable)()
            assert _fork.forked_map(lambda start, stop: gc.isenabled(), 2, 1, 1) == [enabled] * 2
            assert gc.isenabled() is enabled
            assert_no_child_left()
    finally:
        (gc.enable if was else gc.disable)()


def test_a_callers_own_freeze_outlives_forked_runs(two_runs, tmp_path):
    from evidential.simulate import null_exceedance

    path = tmp_path / "ledger.csv"
    rows = "".join(f"s{k},20,1,2,{3 + k / 1000},1,1,1\n" for k in range(400))
    path.write_text("id,n,x1,x2,x3,s1,s2,s3\n" + rows, encoding="utf-8")
    kept = [[k] for k in range(50_000)]
    gc.freeze()
    try:
        null_exceedance(20, (1, 1, 1), 2.0, 100_000, 42)
        assert gc.get_freeze_count() >= len(kept)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compute", "--input", str(path)]) == 0
        assert gc.get_freeze_count() >= len(kept)
        assert_no_child_left()
    finally:
        gc.unfreeze()
