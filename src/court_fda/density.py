"""Gaussian kernel density estimation of shot charts on a shared grid, and the stack of fields on disk.

Each player contributes two smoothed fields, one from missed and one
from made attempts, estimated with a product Gaussian kernel whose
per-axis bandwidths come from the two-dimensional rule-of-thumb
h_j = sigma_j * n**(-1/6). Fields are renormalized so their trapezoidal
integral over the grid equals one; mass leaking outside the unit square
is folded back by that renormalization rather than by boundary kernels.

The fields of all players live only in the two ``.npy`` files of a density
directory; :class:`DensityStack` reads them a block of grid nodes or a few
players' rows at a time.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from court_fda.export import check_npy, read_npy_rows
from court_fda.grids import COMPONENTS, GridSpec, grid_integral
from court_fda.ingest import PlayerRecord

#: Points per kernel block in :func:`kde_raw`; it bounds each block's kernels to (nodes, KDE_BLOCK).
KDE_BLOCK = 256


class DegenerateBandwidthError(ValueError):
    """Bandwidth selection failed: too few points or a zero-variance axis."""


class DensityError(ValueError):
    """Density estimation failed for a specific player and component."""


class DensityFileError(ValueError):
    """A density directory is missing a file, holds arrays that do not match its descriptor, or holds a
    non-finite value where it is read."""


@dataclass(frozen=True, eq=False)
class DensityStack:
    """Every player's missed and made densities, held in the files of the density directory ``directory``.

    ``densities_missed.npy`` and ``densities_made.npy`` there are C-order float64 arrays of shape
    (N, nx, ny), rows in ``player_ids`` order. Each field is non-negative and its trapezoidal
    integral over the unit square is 1. Both headers are checked
    (:func:`~court_fda.export.check_npy`) when the stack is made and again at every read, so a
    stack is a checked handle: it holds no field. :meth:`blocks` serves every player's values at
    a block of grid nodes, and :meth:`rows` the fields of a few players. Either raises
    :class:`DensityFileError` for a file that has changed shape, been cut short, or holds a
    non-finite value among those read.
    """

    player_ids: list[str]
    grid: GridSpec
    directory: Path

    def __post_init__(self) -> None:
        with self._files():
            pass

    def __len__(self) -> int:
        return len(self.player_ids)

    def _error(self, cause) -> DensityFileError:
        return DensityFileError(f"density directory {self.directory}: {cause}")

    @contextlib.contextmanager
    def _files(self) -> Iterator[list[tuple[str, BinaryIO, int]]]:
        """Each component's name, its open file, and where the file's data start."""
        shape = (len(self), self.grid.nx, self.grid.ny)
        with contextlib.ExitStack() as stack:
            try:
                files = [(comp, stack.enter_context((Path(self.directory) / f"densities_{comp}.npy").open("rb")))
                         for comp in COMPONENTS]
                checked = [(comp, fh, check_npy(fh, shape)) for comp, fh in files]
            except (OSError, ValueError) as exc:
                raise self._error(exc) from exc
            yield checked

    def _finite(self, comp: str, values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise self._error(f"densities_{comp}.npy holds a non-finite value")

    def blocks(self, width: int) -> Iterator[tuple[int, slice, np.ndarray]]:
        """(component, node slice, N x block array) over consecutive blocks of ``width`` grid nodes.

        Row i of a block is player i's values at those nodes of that component, read with one
        seek and one read per player into one buffer allocated per call. So a block is valid only
        until the next one is requested: a consumer may change it in place but must not keep it.
        """
        n, nodes = len(self), self.grid.nx * self.grid.ny
        buf = np.empty(n * min(width, nodes))
        with self._files() as files:
            for c, (comp, fh, start) in enumerate(files):
                for lo in range(0, nodes, width):
                    cols = min(width, nodes - lo)
                    block = buf[:n * cols].reshape(n, cols)
                    for i, segment in enumerate(block):
                        fh.seek(start + (i * nodes + lo) * segment.itemsize)
                        if fh.readinto(segment) != segment.nbytes:
                            raise self._error(f"densities_{comp}.npy is shorter than its header says")
                    self._finite(comp, block)
                    yield c, slice(lo, lo + width), block

    def rows(self, player_ids: Sequence[str]) -> np.ndarray:
        """The (2, len(player_ids), nx, ny) fields of the given players, in that order."""
        index = {pid: i for i, pid in enumerate(self.player_ids)}
        missing = [pid for pid in player_ids if pid not in index]
        if missing:
            raise self._error(f"player {missing[0]!r} is not in the density set")
        rows = [index[pid] for pid in player_ids]
        fields = np.empty((2, len(rows), self.grid.nx, self.grid.ny))
        with self._files() as files:
            for (comp, fh, start), slot in zip(files, fields):
                try:
                    read_npy_rows(fh, start, rows, slot)
                except ValueError as exc:
                    raise self._error(exc) from exc
                self._finite(comp, slot)
        return fields


def silverman_bandwidth(points: np.ndarray) -> tuple[float, float]:
    """Per-axis rule-of-thumb bandwidths for a 2-D Gaussian KDE.

    h_j = sigma_j * (4 / ((d + 2) n))**(1 / (d + 4)) with d = 2, which
    reduces to sigma_j * n**(-1/6). sigma_j is the per-axis sample
    standard deviation with the n-1 denominator.

    An axis whose sigma is at most 1e-12 of its largest absolute coordinate is refused as
    having zero variance: a constant coordinate's sigma is rounding error, a few ulps of the
    coordinate (the mean of a constant column is rarely exact), while one point 0.1 ft off
    the others among 5,000 gives about 3e-5 on the unit square.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        raise DegenerateBandwidthError(f"need at least 2 points, got {n}")
    sig = pts.std(axis=0, ddof=1)
    flat = sig <= 1e-12 * np.abs(pts).max(axis=0)
    if flat.any():
        raise DegenerateBandwidthError(f"zero variance along {'x' if flat[0] else 'y'}")
    factor = n ** (-1.0 / 6.0)
    return float(sig[0] * factor), float(sig[1] * factor)


def kde_raw(
    points: np.ndarray, bandwidth: tuple[float, float], grid: GridSpec = GridSpec(), buffers=None, out=None
) -> np.ndarray:
    """Unnormalized Gaussian product-kernel estimate at every grid node.

        f(t) = 1/(n hx hy) * sum_i G((t1 - x_i)/hx) G((t2 - y_i)/hy)

    with G the standard normal density. The sum runs over blocks of
    :data:`KDE_BLOCK` points in input order, one kernel product per block,
    so the working set does not grow with n. The value at a node depends
    only on the node coordinates, not on the rest of the grid.
    Each block's kernels and their product are written into ``buffers``
    (from :func:`_kde_buffers` for ``grid``), allocated for this call when not given,
    and the sum into ``out``, a new array when not given.
    """
    hx, hy = bandwidth
    if hx <= 0 or hy <= 0:
        raise ValueError(f"bandwidths must be positive, got ({hx}, {hy})")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("cannot estimate a density from an empty point set")
    kx_buf, ky_buf, prod = _kde_buffers(grid) if buffers is None else buffers
    xs, ys = grid.xs, grid.ys
    out = np.empty(grid.shape) if out is None else out
    out.fill(0.0)
    for block in (pts[i:i + KDE_BLOCK] for i in range(0, n, KDE_BLOCK)):
        kx = _kernel(xs, block[:, 0], hx, kx_buf[:grid.nx * len(block)].reshape(grid.nx, -1))
        ky = _kernel(ys, block[:, 1], hy, ky_buf[:grid.ny * len(block)].reshape(grid.ny, -1))
        out += np.matmul(kx, ky.T, out=prod)
    out /= 2.0 * math.pi * n * hx * hy
    return out


def _kde_buffers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat buffers for a block's x and y kernels, and the (nx, ny) buffer for their product."""
    return np.empty(grid.nx * KDE_BLOCK), np.empty(grid.ny * KDE_BLOCK), np.empty(grid.shape)


def _kernel(nodes: np.ndarray, coords: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """exp(-((t - c) / h)**2 / 2) for every node t and coordinate c, built in ``out``.

    This is G((t - c) / h) without its 1/sqrt(2 pi) factor, which :func:`kde_raw` applies once.
    """
    k = np.subtract.outer(nodes, coords, out=out)
    np.square(k, out=k)
    k *= -0.5 / (h * h)
    np.exp(k, out=k)
    return k


def kde(
    points: np.ndarray, bandwidth: tuple[float, float], grid: GridSpec = GridSpec(), out=None, buffers=None
) -> np.ndarray:
    """Gaussian KDE renormalized to integrate to 1 over the grid, written to ``out`` if given.

    ``buffers`` is :func:`kde_raw`'s scratch space.
    """
    raw = kde_raw(points, bandwidth, grid, buffers, out)
    return np.divide(raw, grid_integral(raw), out=raw)


def build_samples(records: Sequence[PlayerRecord], grid: GridSpec = GridSpec()) -> np.ndarray:
    """Estimate both densities of every record into one preallocated array.

    The result is a C-contiguous float64 array of shape (2, len(records), nx, ny): component-major,
    missed first and made second, rows in record order; each component gets its own bandwidth
    pair. Rows are identical for any split of the records into calls: each field is evaluated in
    a fixed node and point order, and players are independent. With BLAS on one thread
    (:func:`court_fda.native.pin_blas_single_thread`) they are also identical for any BLAS thread
    setting. A failure raises the error of the first failing player in record order.
    """
    values = np.empty((2, len(records), grid.nx, grid.ny))
    buffers = _kde_buffers(grid)
    for i, record in enumerate(records):
        for component, pts, slot in zip(COMPONENTS, (record.missed_points, record.made_points), values[:, i]):
            try:
                kde(pts, silverman_bandwidth(pts), grid, out=slot, buffers=buffers)
            except ValueError as exc:
                raise DensityError(f"player {record.player_id}, {component} shots: {exc}") from exc
    return values
