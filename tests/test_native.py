"""The forked-share runner: results and errors in share order, and no child left behind."""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from court_fda import export, ingest, native
from court_fda.export import export_fields
from court_fda.ingest import load_events
from court_fda.native import run_shares

from conftest import assert_no_child_left, write_mini_export

FAILURES = [({1, 2}, "share 1"), ({0, 2}, "share 0"), ({2}, "share 2")]


def failing_work(failing):
    """Work whose shares in ``failing`` raise ``ValueError("share <n>")`` and the others return their share."""
    def work(share):
        if share in failing:
            raise ValueError(f"share {share}")
        return share

    return work


def test_results_come_back_in_share_order_from_one_process_each():
    results = run_shares(lambda share: (share, os.getpid()), 3, "test")
    assert [share for share, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


def test_one_share_runs_in_the_caller_alone():
    assert run_shares(lambda share: os.getpid(), 1, "test") == [os.getpid()]


@pytest.mark.parametrize("failing, expected", FAILURES)
def test_the_first_failing_share_in_share_order_wins(failing, expected):
    with pytest.raises(ValueError, match=f"^{expected}$"):
        run_shares(failing_work(failing), 3, "test")
    assert_no_child_left()


def test_a_failing_share_0_waits_for_the_other_shares(tmp_path):
    path = tmp_path / "slow.txt"

    def work(share):
        if share == 0:
            raise ValueError("share 0")
        with path.open("w") as fh:
            for line in range(5):
                time.sleep(0.05)
                fh.write(f"{line}\n")
        return share

    with pytest.raises(ValueError, match="^share 0$"):
        run_shares(work, 2, "test")
    assert path.read_text() == "0\n1\n2\n3\n4\n"  # share 1 ran to its end before the raise
    assert_no_child_left()


def test_without_fork_the_shares_run_in_the_caller_in_order(monkeypatch):
    monkeypatch.delattr(os, "fork")
    order = []

    def work(share):
        order.append(share)
        return share, os.getpid()

    assert run_shares(work, 3, "test") == [(share, os.getpid()) for share in range(3)]
    assert order == [0, 1, 2]


@pytest.mark.parametrize("failing, expected", FAILURES)
def test_without_fork_the_first_failing_share_in_share_order_wins(monkeypatch, failing, expected):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        run_shares(failing_work(failing), 3, "test")


def test_without_fork_ingest_and_charts_give_the_same_table_and_bytes(tmp_path, monkeypatch, grid11):
    shots = write_mini_export(tmp_path / "shots.csv")
    monkeypatch.setattr(ingest, "_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(ingest, "available_cores", lambda: 3)
    monkeypatch.setattr(export, "_NODES_PER_WORKER", 1)
    monkeypatch.setattr(export, "available_cores", lambda: 3)
    assert len(ingest._range_bounds(shots, shots.stat().st_size, 3)) == 4
    rng = np.random.default_rng(0)
    charts = [(rng.normal(size=(2, *grid11.shape)), name, name) for name in ("symmetric", "unit", "raw")]

    def outputs(out):
        table = load_events(shots)
        export_fields([(field, out / base, mode) for field, base, mode in charts], grid11)
        columns = [getattr(table, c).tobytes() for c in ("player", "name", "position", "x", "y", "made")]
        return table.player_ids, table.player_names, columns, {p.name: p.read_bytes() for p in out.iterdir()}

    forked = outputs(tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    alone = outputs(tmp_path / "alone")
    assert alone == forked
    assert len(forked[3]) == 10  # two CSV and PGM files for each scaled chart, two CSV files for the raw one


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


@pytest.mark.parametrize("result", [list(range(10)), np.arange(1 << 17, dtype=float)], ids=["small", "1 MiB"])
def test_a_worker_that_reports_half_its_outcome_is_an_error(monkeypatch, result):
    # the outcome is unpickled as it is read: a pipe that ends inside it fails the share as an empty one does
    report = native._report

    def half_report(write_fd, work, share):
        if share != 2:
            report(write_fd, work, share)
        payload = pickle.dumps(native._outcome(work, share))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload[: len(payload) // 2])
        os._exit(0)

    monkeypatch.setattr(native, "_report", half_report)
    with pytest.raises(ChildProcessError, match="^test worker 2 ended with wait status 0 before reporting$"):
        run_shares(lambda share: result, 3, "test")
    assert_no_child_left()
