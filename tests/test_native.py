"""The forked-share runner: results and errors in share order, and no child left behind."""

import os
import signal
import time

import pytest

from court_fda.native import run_shares

from conftest import assert_no_child_left


def test_results_come_back_in_share_order_from_one_process_each():
    results = run_shares(lambda share: (share, os.getpid()), 3, "test")
    assert [share for share, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


def test_one_share_runs_in_the_caller_alone():
    assert run_shares(lambda share: os.getpid(), 1, "test") == [os.getpid()]


@pytest.mark.parametrize("failing, expected", [({1, 2}, "share 1"), ({0, 2}, "share 0"), ({2}, "share 2")])
def test_the_first_failing_share_in_share_order_wins(failing, expected):
    def work(share):
        if share in failing:
            raise ValueError(f"share {share}")
        return share

    with pytest.raises(ValueError, match=f"^{expected}$"):
        run_shares(work, 3, "test")
    assert_no_child_left()


def test_an_interrupt_reaps_every_worker():
    def work(share):
        if share == 0:
            raise KeyboardInterrupt
        time.sleep(30)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_shares(work, 3, "test")
    assert time.monotonic() - started < 10  # the sleeping workers were ended, not waited for
    assert_no_child_left()


def test_a_worker_that_ends_without_reporting_is_an_error():
    def work(share):
        if share == 1:
            os._exit(3)
        return share

    with pytest.raises(ChildProcessError, match="^test worker 1 ended with wait status 768 before reporting$"):
        run_shares(work, 3, "test")
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_an_error():
    def work(share):
        if share == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return share

    with pytest.raises(ChildProcessError, match=f"^test worker 2 ended with wait status {signal.SIGKILL} before"):
        run_shares(work, 3, "test")
    assert_no_child_left()
