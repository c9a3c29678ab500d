"""Gaussian kernel density estimation of shot charts on a shared grid.

Each player contributes two smoothed fields, one from missed and one
from made attempts, estimated with a product Gaussian kernel whose
per-axis bandwidths come from the two-dimensional rule-of-thumb
h_j = sigma_j * n**(-1/6). Fields are renormalized so their trapezoidal
integral over the grid equals one; mass leaking outside the unit square
is folded back by that renormalization rather than by boundary kernels.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from court_fda.grids import GridSpec, grid_integral
from court_fda.ingest import PlayerRecord

#: Points per kernel block in :func:`kde_raw`; it bounds each block's kernels to (nodes, KDE_BLOCK).
KDE_BLOCK = 256

#: The components of a :class:`DensityStack`, in the order of its first axis.
COMPONENTS = ("missed", "made")


class DegenerateBandwidthError(ValueError):
    """Bandwidth selection failed: too few points or a zero-variance axis."""


class DensityError(ValueError):
    """Density estimation failed for a specific player and component."""


@dataclass(frozen=True, eq=False)
class DensityStack:
    """Every player's missed and made densities in one array.

    ``values`` is a C-contiguous float64 array of shape (2, N, nx, ny):
    component-major, missed first and made second, rows in
    ``player_ids`` order. Each field is non-negative and its trapezoidal
    integral over the unit square is 1.
    """

    player_ids: list[str]
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (2, len(self.player_ids), self.grid.nx, self.grid.ny)
        if self.values.shape != shape:
            raise ValueError(f"density values have shape {self.values.shape}, expected {shape}")
        if self.values.dtype != np.float64 or not self.values.flags.c_contiguous:
            raise ValueError("density values must be a C-contiguous float64 array")

    def __len__(self) -> int:
        return len(self.player_ids)

    def take(self, rows) -> "DensityStack":
        """A new stack of the given player rows, in the given order."""
        return DensityStack([self.player_ids[i] for i in rows], self.grid, np.take(self.values, rows, axis=1))


def silverman_bandwidth(points: np.ndarray) -> tuple[float, float]:
    """Per-axis rule-of-thumb bandwidths for a 2-D Gaussian KDE.

    h_j = sigma_j * (4 / ((d + 2) n))**(1 / (d + 4)) with d = 2, which
    reduces to sigma_j * n**(-1/6). sigma_j is the per-axis sample
    standard deviation with the n-1 denominator.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        raise DegenerateBandwidthError(f"need at least 2 points, got {n}")
    sig = pts.std(axis=0, ddof=1)
    if sig[0] == 0.0 or sig[1] == 0.0:
        axis = "x" if sig[0] == 0.0 else "y"
        raise DegenerateBandwidthError(f"zero variance along {axis}")
    factor = n ** (-1.0 / 6.0)
    return float(sig[0] * factor), float(sig[1] * factor)


def kde_raw(
    points: np.ndarray, bandwidth: tuple[float, float], grid: GridSpec = GridSpec(), buffers=None
) -> np.ndarray:
    """Unnormalized Gaussian product-kernel estimate at every grid node.

        f(t) = 1/(n hx hy) * sum_i G((t1 - x_i)/hx) G((t2 - y_i)/hy)

    with G the standard normal density. The sum runs over blocks of
    :data:`KDE_BLOCK` points in input order, one kernel product per block,
    so the working set does not grow with n. The value at a node depends
    only on the node coordinates, not on the rest of the grid.
    Each block's kernels and their product are written into ``buffers``
    (from :func:`_kde_buffers` for ``grid``), allocated for this call when not given.
    """
    hx, hy = bandwidth
    if hx <= 0 or hy <= 0:
        raise ValueError(f"bandwidths must be positive, got ({hx}, {hy})")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("cannot estimate a density from an empty point set")
    kx_buf, ky_buf, prod = _kde_buffers(grid) if buffers is None else buffers
    xs, ys, out = grid.xs, grid.ys, np.zeros(grid.shape)
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
    raw = kde_raw(points, bandwidth, grid, buffers)
    return np.divide(raw, grid_integral(raw), out=out)


def build_samples(records: Sequence[PlayerRecord], grid: GridSpec = GridSpec(), threads: int = 1) -> DensityStack:
    """Estimate both densities of every record into one preallocated stack.

    Each component gets its own bandwidth pair. ``threads`` workers, the caller and
    ``threads - 1`` threads it starts, take players in record order from one shared
    iterator. Rows follow record order and are identical for any thread count: each field is
    evaluated in a fixed node and point order on one worker, and players are independent. With
    BLAS on one thread (:func:`court_fda.native.pin_blas_single_thread`) they are also identical
    for any BLAS thread setting. A failure raises the error of the first failing player in
    record order, as a loop over them would.
    """
    values = np.empty((2, len(records), grid.nx, grid.ny))
    players = iter(range(len(records)))  # next() on it is atomic, so each index goes to one worker
    failures: list[tuple[int, Exception]] = []

    def fill(i: int, buffers) -> None:
        record = records[i]
        for component, pts, slot in zip(COMPONENTS, (record.missed_points, record.made_points), values[:, i]):
            try:
                kde(pts, silverman_bandwidth(pts), grid, out=slot, buffers=buffers)
            except ValueError as exc:
                raise DensityError(f"player {record.player_id}, {component} shots: {exc}") from exc

    def work() -> None:
        buffers = _kde_buffers(grid)
        for i in players:
            try:
                fill(i, buffers)
            except Exception as exc:
                failures.append((i, exc))
                for _ in players:  # the players before this one are all taken, and no later one can fail first
                    pass

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for _ in players:  # on an interrupt, leave the helpers nothing more to take
            pass
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    return DensityStack([r.player_id for r in records], grid, values)
