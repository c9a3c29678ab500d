"""Output writers: compact JSON documents and rescaled heatmap grids as CSV and PGM files."""

from __future__ import annotations

import functools
import json
import operator
from pathlib import Path

import numpy as np

from court_fda.density import COMPONENTS
from court_fda.grids import GridSpec


#: Values the heatmap CSV writer formats per piece; it bounds the text held at a time.
WRITE_BLOCK = 4096


def json_text(obj) -> str:
    """Compact, key-sorted JSON text of ``obj``, ending in a newline.

    Without ``indent`` the json module runs its C encoder; sorted keys
    keep reruns byte-identical.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` to ``path`` as :func:`json_text`."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


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
    return tuple(f"\n{x!r},{y!r}," for x in grid.xs.tolist() for y in grid.ys.tolist())


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


def export_field(field: np.ndarray, grid: GridSpec, base: str | Path, mode: str = "symmetric") -> None:
    """Write a bivariate ``(2, nx, ny)`` field as the charts ``<base>_missed`` and ``<base>_made``.

    Each component goes through :func:`export_heatmap` with the same ``mode``.
    """
    for comp, values in zip(COMPONENTS, field):
        export_heatmap(values, grid, f"{base}_{comp}", mode)
