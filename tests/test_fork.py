import os

import pytest

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
