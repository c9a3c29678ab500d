"""Process-wide settings of the native libraries under numpy, and the core count the process may use.

The two settings, one BLAS thread and a trimmed C heap, reach their function
through ``ctypes`` and return whether they called it; where the library or
symbol is missing they do nothing.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

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
