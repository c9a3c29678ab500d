"""Standardization, weighted distances, and the PAM clustering against exhaustive search."""

from itertools import combinations

import numpy as np
import pytest

from court_fda.cluster import (
    Clustering,
    WeightScheme,
    distance_matrix,
    format_roster,
    kmedoids,
    resolve_weights,
    standardize_scores,
)
from court_fda.fda import ScoreMatrix
from court_fda.ingest import PlayerRecord, Position


def matrix(values) -> ScoreMatrix:
    values = np.asarray(values, dtype=float)
    return ScoreMatrix([f"p{i}" for i in range(len(values))], values)


def exhaustive_kmedoids(dist: np.ndarray, k: int):
    """All medoid subsets, scored; returns (best cost, sorted best subsets)."""
    n = dist.shape[0]
    scored = [
        (float(dist[list(subset)].min(axis=0).sum()), subset)
        for subset in combinations(range(n), k)
    ]
    best = min(cost for cost, _ in scored)
    winners = [set(s) for cost, s in scored if cost <= best + 1e-12]
    return best, winners


class TestStandardize:
    def test_unit_column(self):
        out = standardize_scores(matrix([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = standardize_scores(matrix(rng.normal(size=(20, 3))))
        twice = standardize_scores(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(1)
        out = standardize_scores(matrix(rng.normal(2.0, 5.0, size=(40, 4))))
        np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.values.var(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(15, 2))
        out1 = standardize_scores(matrix(base))
        out2 = standardize_scores(matrix(3.5 * base + 11.0))
        np.testing.assert_allclose(out1.values, out2.values, atol=1e-12)

    def test_zero_variance_column_named(self):
        values = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ValueError, match="component 2"):
            standardize_scores(matrix(values))


class TestDistanceMatrix:
    def test_identical_rows_zero(self):
        d = distance_matrix(matrix([[1.0, 2.0], [1.0, 2.0]]))
        assert d[0, 1] == 0.0

    def test_closed_form(self):
        d = distance_matrix(matrix([[0.0, 0.0], [2.0, 0.0]]), WeightScheme.EQUAL)
        assert d[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_flat_spectrum_schemes_coincide(self):
        rng = np.random.default_rng(3)
        scores = matrix(rng.normal(size=(10, 4)))
        d_equal = distance_matrix(scores, WeightScheme.EQUAL)
        d_var = distance_matrix(scores, WeightScheme.VARIANCE_PROPORTION, eigenvalues=[1.0] * 4)
        np.testing.assert_allclose(d_equal, d_var, atol=1e-14)

    def test_equal_weights_scale_unweighted_euclidean(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(8, 5))
        d = distance_matrix(matrix(values), WeightScheme.EQUAL)
        raw = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(d, raw / np.sqrt(5), atol=1e-12)

    def test_exact_symmetry_zero_diagonal(self):
        rng = np.random.default_rng(5)
        d = distance_matrix(matrix(rng.normal(size=(12, 3))))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_variance_weights_need_eigenvalues(self):
        with pytest.raises(ValueError):
            distance_matrix(matrix([[1.0], [2.0]]), WeightScheme.VARIANCE_PROPORTION)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            resolve_weights(WeightScheme.VARIANCE_PROPORTION, 2, [1.0, -0.5])

    def test_resolved_weights_normalized(self):
        w = resolve_weights(WeightScheme.VARIANCE_PROPORTION, 3, [6.0, 3.0, 1.0])
        np.testing.assert_allclose(w, [0.6, 0.3, 0.1])
        np.testing.assert_allclose(resolve_weights(WeightScheme.EQUAL, 4), [0.25] * 4)


def blob_distance(n_a=6, n_b=6, seed=0, gap=10.0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(0.0, 0.2, size=(n_a, 2)), rng.normal(gap, 0.2, size=(n_b, 2))])
    return distance_matrix(matrix(pts)), np.array([0] * n_a + [1] * n_b)


class TestKmedoids:
    def test_k_equals_n(self):
        d, _ = blob_distance()
        c = kmedoids(d, 12)
        assert c.total_cost == 0.0
        assert sorted(c.medoids) == list(range(12))
        np.testing.assert_array_equal(np.sort(c.labels), np.arange(12))

    def test_k_one_matches_brute_force(self):
        for seed in range(10):
            pts = np.random.default_rng(seed).normal(size=(9, 3))
            d = distance_matrix(matrix(pts))
            c = kmedoids(d, 1)
            assert c.medoids == [int(np.argmin(d.sum(axis=1)))]
            assert c.total_cost == pytest.approx(d[c.medoids[0]].sum(), abs=1e-12)

    def test_planted_blobs_recovered(self):
        d, truth = blob_distance(seed=7)
        c = kmedoids(d, 2)
        np.testing.assert_array_equal(c.labels, truth)

    def test_matches_exhaustive_on_small_instances(self):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 13))
            pts = rng.normal(size=(n, 2))
            d = distance_matrix(matrix(pts))
            for k in (1, 2, 3):
                best_cost, winners = exhaustive_kmedoids(d, k)
                if len(winners) != 1:
                    continue
                c = kmedoids(d, k)
                assert set(c.medoids) == winners[0], f"seed={seed} n={n} k={k}"
                assert c.total_cost == pytest.approx(best_cost, abs=1e-12)

    def test_one_swap_optimal_on_descent_path(self):
        # 40 choose 4 exceeds the enumeration limit, forcing the swap descent
        rng = np.random.default_rng(8)
        n = 40
        pts = rng.normal(size=(n, 3))
        d = distance_matrix(matrix(pts))
        c = kmedoids(d, 4)
        meds = set(c.medoids)
        for m in c.medoids:
            for h in range(n):
                if h in meds:
                    continue
                trial = sorted((meds - {m}) | {h})
                cost = d[trial].min(axis=0).sum()
                assert cost >= c.total_cost - 1e-12

    def test_descent_path_recovers_planted_blobs(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
        pts = np.vstack([rng.normal(c, 0.3, size=(11, 2)) for c in centers])
        d = distance_matrix(matrix(pts))
        c = kmedoids(d, 4)  # 44 choose 4 exceeds the enumeration limit
        truth = np.repeat(np.arange(4), 11)
        got_groups = {frozenset(np.nonzero(c.labels == j)[0].tolist()) for j in range(4)}
        want_groups = {frozenset(np.nonzero(truth == j)[0].tolist()) for j in range(4)}
        assert got_groups == want_groups

    def test_within_five_percent_of_optimum(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(6, 13))
            d = distance_matrix(matrix(rng.normal(size=(n, 4))))
            k = int(rng.integers(2, 4))
            best_cost, _ = exhaustive_kmedoids(d, k)
            c = kmedoids(d, k)
            assert c.total_cost <= best_cost * 1.05 + 1e-12

    def test_partition_stable_under_row_permutation(self):
        d, _ = blob_distance(seed=9)
        rng = np.random.default_rng(10)
        perm = rng.permutation(12)
        c1 = kmedoids(d, 2)
        c2 = kmedoids(d[np.ix_(perm, perm)], 2)
        # compare as set partitions
        def as_sets(labels, order):
            groups = {}
            for pos, lab in enumerate(labels):
                groups.setdefault(lab, set()).add(int(order[pos]))
            return sorted(map(frozenset, groups.values()), key=min)

        assert as_sets(c1.labels, np.arange(12)) == as_sets(c2.labels, perm)

    def test_medoids_assigned_to_themselves(self):
        d, _ = blob_distance(seed=11)
        c = kmedoids(d, 3)
        for j, m in enumerate(c.medoids):
            assert c.labels[m] == j

    def test_total_cost_recomputes(self):
        d, _ = blob_distance(seed=12)
        c = kmedoids(d, 2)
        recomputed = sum(d[c.medoids[c.labels[i]], i] for i in range(12))
        assert c.total_cost == pytest.approx(recomputed, abs=1e-12)

    def test_duplicate_points_deterministic(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        d = distance_matrix(matrix(pts))
        c1 = kmedoids(d, 2)
        c2 = kmedoids(d, 2)
        assert c1.medoids == c2.medoids
        np.testing.assert_array_equal(c1.labels, c2.labels)
        assert c1.total_cost == 0.0

    def test_bad_k(self):
        d, _ = blob_distance()
        with pytest.raises(ValueError):
            kmedoids(d, 0)
        with pytest.raises(ValueError):
            kmedoids(d, 13)


class TestRoster:
    def test_groups_and_counts(self):
        records = [
            PlayerRecord(f"p{i}", name, pos, np.zeros((1, 2)), np.zeros((1, 2)))
            for i, (name, pos) in enumerate(
                [("Ann", Position.GUARD), ("Bo", Position.GUARD), ("Cy", Position.CENTER), ("Dee", Position.FORWARD)]
            )
        ]
        clustering = Clustering(labels=np.array([0, 0, 1, 1]), medoids=[0, 2], total_cost=1.0)
        text = format_roster(clustering, records)
        assert "Cluster 1 (medoid: Ann)" in text
        assert "Ann, Bo" in text
        assert "guard: 2" in text
        assert "Cluster 2 (medoid: Cy)" in text
        assert "center: 1; " not in text.split("Cluster 2")[0]
