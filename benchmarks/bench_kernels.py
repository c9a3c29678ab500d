"""Micro-benchmarks of the court-fda numerical kernels.

Run from the root of a checkout:

    python -m pytest benchmarks/bench_kernels.py --benchmark-only

The file name matches no test pattern, so the default test run does not
collect it. Sizes follow the paper-scale workload (173 players, about
4,100 shots each, 4 components, k = 5, 5 bootstrap replicates) on a
51 x 51 grid instead of 201 x 201, so a full pass takes seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from court_fda.bootstrap import stability_study
from court_fda.cluster import WeightScheme, _pam_medoids, distance_matrix, standardize_scores
from court_fda.density import kde_raw, silverman_bandwidth
from court_fda.fda import QuadratureWeights, eigendecompose, fit_mfpca, gram_matrix, mean_function
from court_fda.grids import GridSpec

GRID = GridSpec(51, 51)
PLAYERS = 173
SHOTS = 4100
COMPONENTS = 4


@pytest.fixture(scope="module")
def samples() -> list[np.ndarray]:
    """Bivariate fields: a positive base plus eight smooth random modes and noise."""
    rng = np.random.default_rng(0)
    xx, yy = np.meshgrid(GRID.xs, GRID.ys, indexing="ij")
    modes = np.stack([
        np.stack([np.cos(np.pi * f * xx) * np.cos(np.pi * g * yy), np.sin(np.pi * g * xx) * np.cos(np.pi * f * yy)])
        for f, g in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]
    ])
    coef = rng.normal(size=(PLAYERS, len(modes))) / np.arange(1, len(modes) + 1)
    noise = 0.01 * rng.normal(size=(PLAYERS, 2, GRID.nx, GRID.ny))
    return list(3.0 + np.tensordot(coef, modes, axes=1) + noise)


@pytest.fixture(scope="module")
def model(samples):
    return fit_mfpca(samples, n_components=COMPONENTS)


def test_kde_raw(benchmark):
    points = np.random.default_rng(1).uniform(size=(SHOTS, 2))
    benchmark(kde_raw, points, silverman_bandwidth(points), GRID)


def test_gram_matrix(benchmark, samples):
    benchmark(gram_matrix, samples, mean_function(samples), QuadratureWeights.for_grid(GRID))


def test_eigendecompose(benchmark, samples):
    gram = gram_matrix(samples, mean_function(samples), QuadratureWeights.for_grid(GRID))
    benchmark(eigendecompose, gram)


def test_pam_medoids(benchmark, model):
    dist = distance_matrix(standardize_scores(model.scores), WeightScheme.EQUAL, model.eigenvalues)
    benchmark(_pam_medoids, dist, 5)


def test_stability_study(benchmark, samples, model):
    benchmark(stability_study, samples, model, n_replicates=5, seed=0)
