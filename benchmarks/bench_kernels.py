"""Micro-benchmarks of the court-fda numerical kernels and output writers.

Run from the root of a checkout:

    python -m pytest benchmarks/bench_kernels.py --benchmark-only

The file name matches no test pattern, so the default test run does not
collect it. Sizes follow the paper-scale workload (173 players, about
4,100 shots each, 4 components, k = 5, 5 bootstrap replicates) on a
51 x 51 grid instead of 201 x 201, so a full pass takes seconds. The
writers and the model loader are timed at the sizes a paper-scale run
writes and reads them, except ``players.json``, which gets a tenth of the
shots, once with coordinates on the 0.01 ft lattice of real exports and
once with no repeated value. ``read_players_json`` reads the lattice file
back, and ``parse_events_json`` parses the same shots as a JSON shot
export, one object per shot. BLAS runs on one thread, as court-fda runs it;
``build_samples`` is timed on one worker and on one per available core.
Stacks are written through ``write_densities`` to a temporary directory and
read from there, block by block, as a run reads them; the page cache holds
them after the first pass.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from court_fda.bootstrap import stability_study
from court_fda.cluster import WeightScheme, _pam_medoids, distance_matrix, standardize_scores
from court_fda.density import KDE_BLOCK, DensityStack, build_samples, kde_raw, silverman_bandwidth
from court_fda.export import write_heatmap_csv
from court_fda.fda import (
    eigendecompose,
    fit_mfpca,
    gram_matrix,
    load_model,
    mean_function,
    save_model,
)
from court_fda.grids import GridSpec
from court_fda.pipeline import write_densities
from court_fda.ingest import (
    CSV_FIELDS,
    PlayerRecord,
    Position,
    parse_events_json,
    read_players_json,
    write_players_json,
)
from court_fda.native import available_cores, pin_blas_single_thread

GRID = GridSpec(51, 51)
PAPER_GRID = GridSpec(201, 201)
PLAYERS = 173
SHOTS = 4100
COMPONENTS = 4


@pytest.fixture(scope="module", autouse=True)
def one_blas_thread():
    pin_blas_single_thread()


def stack_on_disk(directory, values: np.ndarray) -> DensityStack:
    """A (2, N, nx, ny) array written as a density directory, and the stack on it."""
    ids, grid = [f"p{i:03d}" for i in range(values.shape[1])], GridSpec(*values.shape[2:])
    write_densities(directory, ids, grid, [values])
    return DensityStack(ids, grid, directory)


@pytest.fixture(scope="module")
def stack(tmp_path_factory) -> DensityStack:
    """Bivariate fields: a positive base plus eight smooth random modes and noise."""
    rng = np.random.default_rng(0)
    xx, yy = np.meshgrid(GRID.xs, GRID.ys, indexing="ij")
    modes = np.stack([
        np.stack([np.cos(np.pi * f * xx) * np.cos(np.pi * g * yy), np.sin(np.pi * g * xx) * np.cos(np.pi * f * yy)])
        for f, g in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]
    ])
    coef = rng.normal(size=(PLAYERS, len(modes))) / np.arange(1, len(modes) + 1)
    noise = 0.01 * rng.normal(size=(2, PLAYERS, GRID.nx, GRID.ny))
    values = np.ascontiguousarray(3.0 + np.einsum("pm,mcxy->cpxy", coef, modes) + noise)
    return stack_on_disk(tmp_path_factory.mktemp("stack"), values)


@pytest.fixture(scope="module")
def model(stack):
    return fit_mfpca(stack, n_components=COMPONENTS)


@pytest.mark.parametrize("shots", [KDE_BLOCK, SHOTS])
def test_kde_raw(benchmark, shots):
    """One point block, and a player's worth of shots: 16 full blocks and a partial one."""
    points = np.random.default_rng(1).uniform(size=(shots, 2))
    benchmark(kde_raw, points, silverman_bandwidth(points), GRID)


@pytest.mark.parametrize("workers", ["one", "all"])
def test_build_samples(benchmark, workers):
    rng = np.random.default_rng(5)
    records = [
        PlayerRecord(f"p{i:03d}", f"Player {i}", Position.GUARD, rng.uniform(size=(SHOTS // 2, 2)),
                     rng.uniform(size=(SHOTS // 2, 2)))
        for i in range(PLAYERS)
    ]
    threads = 1 if workers == "one" else available_cores()
    benchmark(build_samples, records, GRID, threads=threads)


def test_gram_matrix(benchmark, stack):
    benchmark(gram_matrix, stack, mean_function(stack))


def test_eigendecompose(benchmark, stack):
    gram = gram_matrix(stack, mean_function(stack))
    benchmark(eigendecompose, gram)


def test_fit_mfpca(benchmark, stack):
    benchmark(fit_mfpca, stack, n_components=COMPONENTS)


def test_pam_medoids(benchmark, model):
    dist = distance_matrix(standardize_scores(model.scores), WeightScheme.EQUAL, model.eigenvalues)
    benchmark(_pam_medoids, dist, 5)


def test_stability_study(benchmark, stack, model):
    benchmark(stability_study, stack, model, n_replicates=5, seed=0)


def json_records(coordinates: str) -> list[PlayerRecord]:
    """The players of the ``players.json`` benchmarks: a twentieth of a player's shots on each side.

    ``lattice``: feet at 0.01 ft, as every input has them; ``distinct``: uniform floats, no value repeats.
    """
    rng = np.random.default_rng(2)
    ft = (50.0, 47.0) if coordinates == "lattice" else None

    def points():
        values = rng.uniform(size=(SHOTS // 20, 2))
        return values if ft is None else np.round(values * ft, 2) / ft

    return [PlayerRecord(f"p{i:03d}", f"Player {i}", Position.GUARD, points(), points()) for i in range(PLAYERS)]


@pytest.mark.parametrize("coordinates", ["lattice", "distinct"])
def test_write_players_json(benchmark, tmp_path, coordinates):
    benchmark(write_players_json, json_records(coordinates), tmp_path / "players.json")


def test_read_players_json(benchmark, tmp_path):
    write_players_json(json_records("lattice"), tmp_path / "players.json")
    benchmark(read_players_json, tmp_path / "players.json")


def test_parse_events_json(benchmark):
    shots = [
        dict(zip(CSV_FIELDS, (r.player_id, r.player_name, r.position.value, round(x * 50.0, 2), round(y * 47.0, 2),
                              made, "2018-19")))
        for r in json_records("lattice")
        for made, points in ((1, r.made_points), (0, r.missed_points))
        for x, y in points.tolist()
    ]
    benchmark(parse_events_json, json.dumps(shots))


@pytest.fixture(scope="module")
def paper_model(tmp_path_factory):
    rng = np.random.default_rng(3)
    values = 1.0 + 0.1 * rng.normal(size=(2, PLAYERS, PAPER_GRID.nx, PAPER_GRID.ny))
    return fit_mfpca(stack_on_disk(tmp_path_factory.mktemp("paper"), values), n_components=4)


def test_save_model(benchmark, tmp_path, paper_model):
    benchmark(save_model, paper_model, tmp_path / "model.json")


def test_load_model(benchmark, tmp_path, paper_model):
    save_model(paper_model, tmp_path / "model.json")
    benchmark(load_model, tmp_path / "model.json")


def test_write_heatmap_csv(benchmark, tmp_path):
    values = np.random.default_rng(4).uniform(-1.0, 1.0, size=PAPER_GRID.shape)
    benchmark(write_heatmap_csv, values, PAPER_GRID, tmp_path / "field.csv")
