"""Acceptance gate: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The real-export smoke test only runs when the environment
variable COURT_FDA_REAL_EXPORT points at a full CSV export.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

from court_fda.bootstrap import stability_study
from court_fda.cluster import WeightScheme, distance_matrix, kmedoids
from court_fda.density import kde, kde_raw, silverman_bandwidth
from court_fda.fda import (
    covariance_oracle,
    fit_mfpca,
    h_norm,
    inner_product,
    project_scores,
    project_scores_all,
    reconstruct,
)
from court_fda.grids import GridSpec, grid_integral
from court_fda.ingest import exclude_impossible, filter_players, load_events
from court_fda.metrics import adjusted_rand_index, silhouette
from court_fda.fda import ScoreMatrix
from court_fda.pipeline import PipelineConfig, run_pipeline

from conftest import planted_dataset, stack_of
from test_metrics import FOUR_POINT_D, FOUR_POINT_LABELS, FOUR_POINT_MEAN, FOUR_POINT_S, ari_pair_counting_oracle


def report(name: str, started: float) -> None:
    print(f"[PASS] {name} ({time.perf_counter() - started:.2f}s)")


def ramp_inner_product(n: int) -> float:
    grid = GridSpec(n, n)
    f = np.zeros((2, n, n))
    f[0] = grid.xs[:, None] * np.ones(n)[None, :]
    return inner_product(f, f)


def test_c1_quadrature_correctness():
    started = time.perf_counter()
    values = {n: ramp_inner_product(n) for n in (51, 101, 201)}
    errors = {n: abs(v - 1.0 / 3.0) for n, v in values.items()}
    # second-order convergence: each refinement divides the error by ~4
    assert errors[51] / errors[101] == pytest.approx(4.0, rel=1e-6)
    assert errors[101] / errors[201] == pytest.approx(4.0, rel=1e-6)
    richardson = (4.0 * values[201] - values[101]) / 3.0
    assert abs(richardson - 1.0 / 3.0) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("C1 quadrature: ramp integral converges at h^2, extrapolant within 1e-6 of 1/3", started)


def test_c2_density_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    grid_int = GridSpec(51, 51)
    grid_oracle = GridSpec(11, 11)
    for trial in range(50):
        n = int(np.exp(rng.uniform(math.log(50), math.log(5000))))
        pts = rng.uniform(0.02, 0.98, size=(n, 2))
        bw = silverman_bandwidth(pts)
        field = kde(pts, bw, grid_int)
        assert np.all(field >= 0.0)
        assert abs(grid_integral(field) - 1.0) <= 1e-9
        raw = kde_raw(pts, bw, grid_oracle)
        hx, hy = bw
        scale = 1.0 / (n * hx * hy * 2.0 * math.pi)
        for i, x in enumerate(grid_oracle.xs):
            gx = np.exp(-0.5 * ((x - pts[:, 0]) / hx) ** 2)
            for j, y in enumerate(grid_oracle.ys):
                gy = np.exp(-0.5 * ((y - pts[:, 1]) / hy) ** 2)
                want = math.fsum(gx * gy) * scale
                assert abs(raw[i, j] - want) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("C2 density: 50 random KDEs non-negative, unit mass, match kernel-sum oracle", started)


def test_c3_dual_route_equivalence(grid11):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(3, 16))
        samples = stack_of([rng.normal(size=(2, 11, 11)) for _ in range(n)])
        model = fit_mfpca(samples, n_components=n - 1)
        vals, funcs = covariance_oracle(samples)
        assert len(vals) >= n - 1
        np.testing.assert_allclose(vals[: n - 1], model.eigenvalues, rtol=1e-8)
        for k in range(n - 1):
            align = abs(inner_product(funcs[k], model.eigenfunctions[k]))
            assert align >= 1.0 - 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("C3 dual route: Gram and covariance-operator spectra agree on 20 datasets", started)


def test_c4_karhunen_loeve_invariants(grid11):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    samples = [rng.normal(size=(2, 11, 11)) for _ in range(12)]
    model = fit_mfpca(stack_of(samples), n_components=11)
    for j in range(11):
        for k in range(j, 11):
            ip = inner_product(model.eigenfunctions[j], model.eigenfunctions[k])
            assert abs(ip - (1.0 if j == k else 0.0)) <= 1e-8
    lam = model.eigenvalues
    np.testing.assert_allclose(model.scores.values.var(axis=0, ddof=1), lam, rtol=1e-6)
    projected = project_scores_all(stack_of(samples), model)
    np.testing.assert_allclose(projected.values, model.scores.values, atol=1e-8)
    for s in samples:
        scores = project_scores(s, model)
        errs = [h_norm(reconstruct(scores[:k], model) - s) for k in range(1, 12)]
        assert np.all(np.diff(errs) <= 1e-12)
        assert errs[-1] <= 1e-6
    report("C4 KL invariants: orthonormal basis, score variances, monotone reconstruction", started)


def test_c5_synthetic_factor_recovery(grid21):
    started = time.perf_counter()
    shares = [0.8, 0.15, 0.03, 0.02]  # two factors plus 5% noise spread over two directions
    samples, factors, _ = planted_dataset(grid21, shares, 40, seed=17)
    model = fit_mfpca(samples, n_components=2)
    for k in range(2):
        align = abs(inner_product(model.eigenfunctions[k], factors[k]))
        assert align >= 0.99
    by_threshold = fit_mfpca(samples, variance_threshold=0.90)
    assert by_threshold.n_components == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("C5 factor recovery: planted components aligned >= 0.99, threshold picks K=2", started)


def exhaustive_medoids(dist: np.ndarray, k: int):
    scored = [
        (float(dist[list(s)].min(axis=0).sum()), s)
        for s in combinations(range(dist.shape[0]), k)
    ]
    best = min(cost for cost, _ in scored)
    winners = [set(s) for cost, s in scored if cost <= best + 1e-12]
    return best, winners


def test_c6_pam_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(25):
        n = int(rng.integers(4, 13))
        pts = rng.normal(size=(n, int(rng.integers(2, 5))))
        dist = distance_matrix(ScoreMatrix([str(i) for i in range(n)], pts), WeightScheme.EQUAL)
        for k in (1, 2, 3):
            best_cost, winners = exhaustive_medoids(dist, k)
            if len(winners) != 1:
                continue
            clustering = kmedoids(dist, k)
            assert set(clustering.medoids) == winners[0]
            assert clustering.total_cost == pytest.approx(best_cost, abs=1e-12)
            checked += 1
    assert checked >= 40  # unique-optimum instances actually exercised

    for trial in range(100):
        trng = np.random.default_rng(1000 + trial)
        n_a, n_b = trng.integers(3, 9, size=2)
        gap = trng.uniform(10.0, 30.0)
        pts = np.vstack(
            [trng.normal(0.0, 0.3, size=(n_a, 2)), trng.normal(gap, 0.3, size=(n_b, 2))]
        )
        truth = np.array([0] * n_a + [1] * n_b)
        dist = distance_matrix(ScoreMatrix([str(i) for i in range(n_a + n_b)], pts), WeightScheme.EQUAL)
        clustering = kmedoids(dist, 2)
        assert adjusted_rand_index(clustering.labels, truth) == 1.0
    report("C6 k-medoids: exhaustive-optimal on small instances, perfect 2-blob recovery x100", started)


def test_c7_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(2, 11))
        a = np.unique(rng.integers(0, int(rng.integers(1, 5)), size=n), return_inverse=True)[1]
        b = np.unique(rng.integers(0, int(rng.integers(1, 5)), size=n), return_inverse=True)[1]
        assert adjusted_rand_index(a, b) == pytest.approx(ari_pair_counting_oracle(a, b), abs=1e-12)
    s, mean = silhouette(FOUR_POINT_D, FOUR_POINT_LABELS)
    np.testing.assert_allclose(s, FOUR_POINT_S, atol=1e-12)
    assert mean == pytest.approx(FOUR_POINT_MEAN, abs=1e-12)
    for trial in range(20):
        pts = rng.normal(size=(int(rng.integers(6, 20)), 3))
        labels = rng.integers(0, 3, size=len(pts))
        labels[:3] = [0, 1, 2]
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        values, _ = silhouette(dist, np.unique(labels, return_inverse=True)[1])
        assert np.all(values >= -1.0 - 1e-12) and np.all(values <= 1.0 + 1e-12)
    report("C7 metrics: ARI matches pair-counting on 200 pairs, silhouette hand case exact", started)


def test_c8_bootstrap_stability_ordering(grid21):
    started = time.perf_counter()
    samples, _, _ = planted_dataset(grid21, [0.7, 0.2, 0.1], 60, seed=13)
    study = stability_study(samples, fit_mfpca(samples, n_components=3), n_replicates=5, seed=1)
    means = study.mean_alignment()
    assert study.flagged == []
    assert means[0] > means[2]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("C8 bootstrap: leading component more stable than third across 5 replicates", started)


def test_c9_end_to_end_determinism(tmp_path, fixture_csv):
    started = time.perf_counter()
    out = tmp_path / "run"
    config = PipelineConfig(input=str(fixture_csv), out=str(out), seed=0)
    first_started = time.perf_counter()
    manifest_first = run_pipeline(config)
    first_elapsed = time.perf_counter() - first_started
    assert first_elapsed < 60.0
    manifest_bytes = (out / "run.json").read_bytes()
    model_bytes = (out / "model.json").read_bytes()
    manifest_second = run_pipeline(config)
    assert (out / "run.json").read_bytes() == manifest_bytes
    assert (out / "model.json").read_bytes() == model_bytes
    assert manifest_first == manifest_second
    assert manifest_first["summary"]["players_retained"] == 12
    report(f"C9 determinism: identical reruns on the bundled fixture, pipeline {first_elapsed:.1f}s", started)


REAL_EXPORT = os.environ.get("COURT_FDA_REAL_EXPORT", "")


@pytest.mark.skipif(not REAL_EXPORT, reason="set COURT_FDA_REAL_EXPORT to a full CSV export")
def test_c10_real_data_smoke(tmp_path):
    started = time.perf_counter()
    events = load_events(REAL_EXPORT)
    retained = exclude_impossible(events)
    assert len(retained) == 716114
    records = filter_players(retained, 1000)
    assert len(records) == 173
    config = PipelineConfig(input=REAL_EXPORT, out=str(tmp_path / "real"), seed=0)
    run_pipeline(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    report("C10 real export: 173 players / 716114 shots reproduced, pipeline under 15 min", started)
