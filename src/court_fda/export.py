"""File formats: compact JSON documents, rescaled heatmap grids as CSV and PGM files, checked ``.npy`` reads,
and files written whole under a temporary name."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from court_fda.grids import COMPONENTS, GridSpec
from court_fda.native import available_cores, run_shares


#: Values the heatmap CSV writer formats per piece; it bounds the text held at a time.
WRITE_BLOCK = 4096

#: Grid nodes each chart process gets at least. A forked worker takes about 5 ms to start,
#: report and reap on a 2-vCPU x86 VM, the time about 4,000 nodes take to draw; one pays
#: for itself from about twice that.
_NODES_PER_WORKER = 8192


def json_text(obj) -> str:
    """Compact, key-sorted JSON text of ``obj``, ending in a newline.

    Without ``indent`` the json module runs its C encoder; sorted keys
    keep reruns byte-identical.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` to ``path`` as :func:`json_text`."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


def sibling(path: Path) -> Path:
    """A new hidden name beside ``path``: ``.<name>.<random hex>``."""
    return path.with_name(f".{path.name}.{os.urandom(8).hex()}")


@contextlib.contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """A new :func:`sibling` name of ``path`` for the block to write a file under.

    The file is renamed to ``path`` when the block ends and removed when it raises, so
    ``path`` holds either its earlier file or the whole new one.
    """
    temporary = sibling(path)
    try:
        yield temporary
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def check_npy(fh: BinaryIO, shape: tuple[int, ...]) -> int:
    """Check the header of the ``.npy`` file open as ``fh`` and return where its data start.

    Raises ``ValueError`` unless the file is .npy version 1.0 or 2.0 and holds a C-order
    float64 array of ``shape`` with every byte of it, so a caller can allocate that array safely.
    """
    name = Path(fh.name).name
    version = np.lib.format.read_magic(fh)  # numpy writes 1.0, or 2.0 for a header over 64 KiB
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"{name} is .npy version {version}, not 1.0 or 2.0")
    read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
    file_shape, fortran_order, dtype = read_header(fh)
    if dtype != np.float64:
        raise ValueError(f"{name} holds {dtype}, not float64")
    if file_shape != shape:
        raise ValueError(f"{name} has shape {file_shape}, expected numbers of shape {shape}")
    if fortran_order:
        raise ValueError(f"{name} is stored in Fortran order")
    if os.fstat(fh.fileno()).st_size < fh.tell() + math.prod(shape) * 8:
        raise ValueError(f"{name} is shorter than its header says")
    return fh.tell()


def read_npy_rows(fh: BinaryIO, start: int, rows: Sequence[int], out: np.ndarray) -> None:
    """Read rows ``rows`` of the array :func:`check_npy` passed, whose data begin at ``start``,
    into ``out``, in that order, with one seek and one read each and no copy between."""
    for target, row in zip(out, rows):
        fh.seek(start + row * target.nbytes)
        if fh.readinto(target) != target.nbytes:
            raise ValueError(f"{Path(fh.name).name} is shorter than its header says")


def safe_name(text: str) -> str:
    """``text`` as a file name in one directory: each character but letters, digits, ``-`` and ``_`` becomes ``_``."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in text)


def rescale_symmetric(values: np.ndarray) -> np.ndarray:
    """Divide by the largest absolute value, mapping into [-1, 1].

    A single positive scalar preserves sign structure and the argmax
    node. An identically-zero field stays zero.
    """
    values = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return values / peak if peak > 0.0 else np.zeros_like(values)


def rescale_unit(values: np.ndarray) -> np.ndarray:
    """Min-max rescale into [0, 1]; a constant field maps to zeros."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


@functools.lru_cache(maxsize=4)
def _csv_line_starts(nx: int, ny: int) -> tuple[str, ...]:
    """Newline plus ``x,y,`` for each heatmap CSV line, in row-major order."""
    grid = GridSpec(nx, ny)
    prefixes = [f"\n{x!r}," for x in grid.xs.tolist()]
    suffixes = [f"{y!r}," for y in grid.ys.tolist()]
    return tuple(prefix + suffix for prefix in prefixes for suffix in suffixes)


def write_heatmap_csv(values: np.ndarray, grid: GridSpec, path: Path) -> None:
    """Row-major x,y,value dump of a gridded field; floats use Python's shortest repr.

    Lines are formatted and written :data:`WRITE_BLOCK` at a time.
    """
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    starts = _csv_line_starts(grid.nx, grid.ny)
    flat = np.asarray(values, dtype=float).ravel()
    with path.open("w", encoding="utf-8") as fh:
        fh.write("x,y,value")
        for lo in range(0, flat.size, WRITE_BLOCK):
            cells = map(repr, flat[lo:lo + WRITE_BLOCK].tolist())
            fh.write("".join(map(operator.add, starts[lo:lo + WRITE_BLOCK], cells)))
        fh.write("\n")


def write_heatmap_pgm(values: np.ndarray, path: Path) -> None:
    """Binary 8-bit grayscale PGM; input values are expected in [-1, 1].

    Value v maps to the gray level round((v + 1) / 2 * 255), so -1 is
    black, 0 mid-gray, and 1 white. Rows follow the x axis.
    """
    gray = np.floor((np.asarray(values, dtype=float) + 1.0) / 2.0 * 255.0 + 0.5)
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    nx, ny = gray.shape
    with path.open("wb") as fh:
        fh.write(f"P5\n{ny} {nx}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def export_heatmap(
    values: np.ndarray, grid: GridSpec, base_path: str | Path, mode: str = "symmetric"
) -> tuple[Path, Path]:
    """Rescale a field and write it as both CSV and PGM.

    mode "symmetric" divides by max |value| (deviation fields);
    mode "unit" min-max rescales to [0, 1] (density fields).
    Returns the two written paths (base_path plus .csv / .pgm).
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    if mode == "symmetric":
        scaled = rescale_symmetric(values)
    elif mode == "unit":
        scaled = rescale_unit(values)
    else:
        raise ValueError(f"unknown rescale mode {mode!r}")
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    pgm_path = base.with_suffix(".pgm")
    write_heatmap_csv(scaled, grid, csv_path)
    write_heatmap_pgm(scaled, pgm_path)
    return csv_path, pgm_path


def export_fields(charts: Sequence[tuple[np.ndarray, str | Path, str]], grid: GridSpec) -> None:
    """Write each ``(field, base, mode)`` of ``charts``, a ``(2, nx, ny)`` field on ``grid``, as
    ``<base>_missed`` and ``<base>_made``.

    Modes "symmetric" and "unit" draw each component through :func:`export_heatmap`; mode
    "raw" writes its values unscaled, as ``<base>_<component>.csv`` alone. The components, in
    chart order, are cut into ``k = min(available_cores(), components, nodes // _NODES_PER_WORKER)``
    contiguous runs (at least 1), each drawn by one share of :func:`court_fda.native.run_shares`:
    share order is chart order, so the first failing component in chart order raises, as in a
    loop over them. Each file is written whole by one process, so the bytes do not depend on ``k``.
    """
    jobs = [(values, f"{base}_{comp}", mode) for field, base, mode in charts for comp, values in zip(COMPONENTS, field)]
    nodes = len(jobs) * grid.nx * grid.ny
    workers = max(1, min(available_cores(), len(jobs), nodes // _NODES_PER_WORKER))
    _csv_line_starts(grid.nx, grid.ny)  # built once here, so the forked workers inherit it

    def draw(worker: int) -> None:
        for values, base, mode in jobs[len(jobs) * worker // workers:len(jobs) * (worker + 1) // workers]:
            if mode == "raw":
                path = Path(f"{base}.csv")
                path.parent.mkdir(parents=True, exist_ok=True)
                write_heatmap_csv(values, grid, path)
            else:
                export_heatmap(values, grid, base, mode)

    run_shares(draw, workers, "chart")
