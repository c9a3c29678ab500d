"""Process-wide settings of the native libraries under numpy, the core count the process may use,
the planner that cuts work into shares and the runner that spreads them over processes forked from this one.

The two settings, one BLAS thread and a trimmed C heap, reach their function
through ``ctypes`` and return whether they called it; where the library or
symbol is missing they do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
from pathlib import Path
from typing import BinaryIO, Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: The OpenBLAS thread setters, newest wheel layout first: numpy 2 (scipy-openblas), numpy 1.2x, unsuffixed builds.
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _symbol(library: str | None, name: str):
    """``name`` from the shared library at path ``library`` (None: the running process), or None."""
    try:
        return getattr(ctypes.CDLL(library), name)
    except (OSError, AttributeError, TypeError):  # TypeError: Windows opens no library by None
        return None


def available_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_count(total: float, least: float, cap: int | None, items: int) -> int:
    """The shares ``items`` items of ``total`` weight are worth: at most one per available core, one per
    ``least`` of weight, one per item and ``cap`` (None: no cap), and at least one."""
    if cap is not None and cap < 1:
        raise ValueError(f"a share cap must be at least 1, got {cap}")
    return max(1, min(available_cores(), int(total // least), items, cap or items))


def plan_shares(weights: Sequence[float], least: float, cap: int | None = None) -> list[int]:
    """Bounds ``0 = b_0 < ... < b_k = len(weights)`` of at most :func:`share_count` contiguous runs of the
    items, of about equal weight: run ``j`` starts at the first item with ``j / share_count`` of the
    total before it, and a run that would be empty is dropped (no items: one empty run, ``[0, 0]``)."""
    done = np.cumsum([0, *weights])
    count = share_count(done[-1], least, cap, len(weights))
    cuts = np.searchsorted(done, done[-1] * np.arange(1, count) / count)
    return [0, *sorted({int(cut) for cut in cuts} - {len(weights)}), len(weights)]


def run_shares(work: Callable[[int], T], shares: int, name: str) -> list[T]:
    """``[work(0), ..., work(shares - 1)]``: share 0 runs in the caller, each other share in a process forked from it.

    Every share runs to its end, and then the error of the first failing share in share order
    is raised, as a loop over the shares would raise it. A child sends its share's outcome,
    the ``(failed, result or exception)`` pair :func:`_outcome` builds for share 0 too, down a
    pipe pickled, and leaves through ``os._exit``, so no atexit handler, inherited stdio buffer
    or caller code runs in it. The caller unpickles each outcome as it reads it from the pipe,
    so it never holds a share's pickled bytes beside the result built from them. A child that
    ended without reporting its whole outcome (an empty or cut-short pipe) fails its share with
    ``ChildProcessError``, which names it as ``name`` worker ``share``. Every child is reaped
    before this returns or raises; on an interrupt or a failed fork the ones still running are
    sent SIGTERM first. Where ``os.fork`` is missing, the shares run one after another in the caller.
    """
    if not hasattr(os, "fork"):
        return [work(share) for share in range(shares)]
    children: dict[int, tuple[int, BinaryIO]] = {}  # pid -> (share, read end of its result pipe), in share order
    try:
        for share in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _report(write_fd, work, share)
            os.close(write_fd)
            children[pid] = share, os.fdopen(read_fd, "rb")
        outcomes = [_outcome(work, 0)]
        for pid, (share, fh) in list(children.items()):
            try:
                outcome = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):  # the pipe ended before the outcome did
                outcome = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            fh.close()
            outcomes.append(outcome or (True, ChildProcessError(
                f"{name} worker {share} ended with wait status {status} before reporting")))
    finally:
        for pid, (_, fh) in children.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            fh.close()
    for failed, result in outcomes:
        if failed:
            raise result
    return [result for _, result in outcomes]


def _outcome(work: Callable[[int], T], share: int) -> tuple[bool, T | Exception]:
    """``(False, work(share))``, or ``(True, the exception it raised)``."""
    try:
        return False, work(share)
    except Exception as exc:
        return True, exc


def _report(write_fd: int, work: Callable[[int], object], share: int) -> None:
    """A forked child of :func:`run_shares`: send ``_outcome(work, share)`` down ``write_fd`` pickled, and exit.

    Exit status 1 and an empty pipe mean it ended before reporting.
    """
    status = 1
    try:
        payload = pickle.dumps(_outcome(work, share))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def pin_blas_single_thread() -> bool:
    """Run every BLAS call of numpy's bundled OpenBLAS on the calling thread alone.

    One thread gives every GEMM and ``eigh`` one summation order, so results do not
    depend on ``OPENBLAS_NUM_THREADS`` or on the core count. The wheels keep the
    library in ``numpy.libs`` (Linux, Windows) or ``numpy/.dylibs`` (macOS).
    """
    root = Path(np.__file__).resolve().parent
    for lib in sorted(p for d in (root.parent / "numpy.libs", root / ".dylibs") for p in d.glob("*openblas*")):
        for name in _SET_THREADS:
            set_threads = _symbol(str(lib), name)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                return True
    return False


def trim_heap() -> bool:
    """Hand the C heap's free pages back to the operating system through glibc's ``malloc_trim(0)``."""
    malloc_trim = _symbol(None, "malloc_trim")
    if malloc_trim is None:
        return False
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc_trim(0)
    return True
