"""Shared fixtures: grids, planted-factor datasets, and the bundled export."""

from __future__ import annotations

import os
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from court_fda.density import DensityStack
from court_fda.fda import inner_product
from court_fda.grids import GridSpec
from court_fda.pipeline import write_densities

#: The density directories the running test has made; each is removed after it.
_STACK_DIRS: list[str] = []


@pytest.fixture(autouse=True)
def _remove_stack_dirs():
    yield
    while _STACK_DIRS:
        shutil.rmtree(_STACK_DIRS.pop(), ignore_errors=True)


@pytest.fixture
def grid11() -> GridSpec:
    return GridSpec(11, 11)


@pytest.fixture
def grid21() -> GridSpec:
    return GridSpec(21, 21)


def smooth_factor_basis(grid: GridSpec, count: int) -> list[np.ndarray]:
    """Orthonormal bivariate factors built from low-frequency cosine seeds.

    Gram-Schmidt runs in the product-space inner product, so the returned
    fields are exactly orthonormal under the trapezoid quadrature.
    """
    xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    seeds = []
    freq = 1
    while len(seeds) < count:
        cx = np.cos(np.pi * freq * xx)
        cy = np.cos(np.pi * freq * yy)
        seeds.append(np.stack([cx, np.zeros_like(cx)]))
        seeds.append(np.stack([np.zeros_like(cy), cy]))
        seeds.append(np.stack([cx * cy, cy]))
        freq += 1
    basis: list[np.ndarray] = []
    for seed in seeds[:count]:
        f = seed.copy()
        for q in basis:
            f -= inner_product(f, q) * q
        norm = np.sqrt(inner_product(f, f))
        assert norm > 1e-8, "factor seeds collapsed; pick different frequencies"
        basis.append(f / norm)
    return basis


def planted_dataset(
    grid: GridSpec, shares: list[float], n_samples: int, seed: int
) -> tuple[DensityStack, list[np.ndarray], np.ndarray]:
    """Samples with exactly-known factor structure.

    Coefficient columns are orthogonalized and rescaled so each factor's
    sample variance (n-1 denominator) is exactly its share of a unit
    total. Returns (stack of samples named by position, factors,
    coefficients).
    """
    factors = smooth_factor_basis(grid, len(shares))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, len(shares)))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    coef = q * np.sqrt((n_samples - 1) * np.asarray(shares))
    xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    base = np.stack([1.0 + 0.25 * np.cos(np.pi * xx) * yy, 1.0 + 0.25 * np.sin(np.pi * yy) * xx])
    samples = [base + np.tensordot(coef[i], np.stack(factors), axes=1) for i in range(n_samples)]
    return stack_of(samples), factors, coef


def stack_of(fields, ids=None) -> DensityStack:
    """Bivariate (2, nx, ny) fields as one stack; players are named by position unless ids are given."""
    values = np.stack([np.asarray(f, dtype=float) for f in fields], axis=1)
    return stack_from(values, ids or [str(i) for i in range(len(fields))])


def stack_from(values, ids) -> DensityStack:
    """A (2, N, nx, ny) array written through ``write_densities`` into a new temporary directory,
    as the stack on it; the directory is removed after the test."""
    _STACK_DIRS.append(tempfile.mkdtemp(prefix="court-fda-stack-"))
    grid, directory = GridSpec(*values.shape[2:]), Path(_STACK_DIRS[-1])
    write_densities(directory, ids, grid, [np.ascontiguousarray(values, dtype=float)])
    return DensityStack(list(ids), grid, directory)


def values_of(stack: DensityStack) -> np.ndarray:
    """Every field of a stack whose players are listed once each, read whole: (2, N, nx, ny)."""
    return stack.rows(stack.player_ids)


def take(stack: DensityStack, rows) -> DensityStack:
    """A new stack of the given player rows of ``stack``, in that order; a row may come more than once."""
    rows = list(rows)
    return stack_from(values_of(stack)[:, rows], [stack.player_ids[i] for i in rows])


def assert_no_child_left() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fixture_csv() -> Path:
    path = resources.files("court_fda").joinpath("data/fixture_shots.csv")
    return Path(str(path))


def write_mini_export(path: Path, n_per_player: int = 130, seed: int = 5) -> Path:
    """Small four-player CSV export for fast end-to-end tests."""
    rng = np.random.default_rng(seed)
    rows = ["player_id,player_name,position,x_ft,y_ft,made,season"]
    spots = {
        "m1": (10.0, 10.0, "guard"),
        "m2": (40.0, 10.0, "forward"),
        "m3": (25.0, 30.0, "center"),
        "m4": (25.0, 8.0, "forward-guard"),
    }
    for pid, (cx, cy, pos) in spots.items():
        pts = rng.normal([cx, cy], 4.0, size=(n_per_player, 2))
        made = rng.uniform(size=n_per_player) < 0.5
        for (x, y), m in zip(pts, made):
            rows.append(f"{pid},Player {pid},{pos},{x:.2f},{y:.2f},{int(m)},2020-21")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
