"""Resampler portability and the stability study.

The Gram-space stability study is checked against ``refit_study``, the
former route that refits every replicate on the grid, kept here as the
oracle. The replicate charts are checked against the same refit in
``assert_replicates_match_refit``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from court_fda import bootstrap
from court_fda.bootstrap import (
    ReferenceMismatchError,
    SplitMix64,
    resample_indices,
    stability_study,
    stream_seed,
    report_to_dict,
)
from court_fda.density import DensityStack
from court_fda.fda import (
    RankDeficiencyError,
    eigendecompose,
    fit_mfpca,
    gram_matrix,
    h_norm,
    inner_product,
    mean_function,
)
from court_fda.grids import GridSpec

from conftest import planted_dataset, smooth_factor_basis, stack_of


def tilted_dataset(grid, shares, n_samples, seed):
    """``planted_dataset`` times a field that grows along both axes.

    A planted factor such as cos(pi x) takes its largest magnitude at two
    nodes; the tilt leaves one, so rounding cannot decide an eigenfunction's
    sign. The samples keep the planted rank.
    """
    samples, _, _ = planted_dataset(grid, shares, n_samples, seed)
    xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return DensityStack(samples.player_ids, grid, samples.values * (1.0 + 0.3 * xx + 0.1 * yy))


#: Eigengap, relative to the reference's leading Gram eigenvalue, from which a replicate's
#: eigenfunction is compared with its refit.
FUNCTION_GAP_RTOL = 1e-3


def assert_replicates_match_refit(stack, reference, n_replicates, seed):
    """Each replicate's charted functions match ``fit_mfpca`` refit on its draw at its achieved rank.

    The mean and each eigenfunction of a separated eigenvalue match within 1e-12 of the refit
    function's largest absolute value. The study's Gram matrix is centered on the reference
    mean, so its rounding is on the scale of the reference's leading eigenvalue: an eigenvalue
    of a draw closer than FUNCTION_GAP_RTOL of that to its neighbours fixes its eigenfunction
    by rounding as much as by the data, and that eigenfunction is not compared.
    Returns the report and the (replicate, eigenfunction) pairs compared.
    """
    dumped = {}

    def keep(functions, grid, out_dir, index):
        dumped[index] = functions.copy()

    with mock.patch.object(bootstrap, "_dump_replicate", keep):
        report = stability_study(stack, reference, n_replicates=n_replicates, seed=seed, dump_dir="unwritten")
    assert sorted(dumped) == [r for r in range(n_replicates) if report.achieved_ranks[r] > 0]
    compared = []
    for r, functions in dumped.items():
        draw = stack.take(resample_indices(len(stack), stream_seed(seed, r)))
        refit = fit_mfpca(draw, n_components=int(report.achieved_ranks[r]))
        assert functions.shape == refit.functions.shape
        ell = eigendecompose(gram_matrix(draw, mean_function(draw)))[0]
        spacing = np.abs(np.diff(ell)) / ((len(stack) - 1) * reference.eigenvalues[0])
        gaps = np.minimum(np.append(spacing, np.inf), np.insert(spacing, 0, np.inf))
        separated = [j for j in range(1, len(functions)) if gaps[j - 1] > FUNCTION_GAP_RTOL]
        for j in [0, *separated]:
            peak = np.max(np.abs(refit.functions[j]))
            assert np.max(np.abs(functions[j] - refit.functions[j])) <= 1e-12 * peak, (r, j)
        compared += [(r, j) for j in separated]
    return report, compared


def refit_study(stack, reference, n_replicates, seed):
    """Refit each bootstrap draw on the grid and compare it with the reference.

    Returns (alignments, eigenvalue ratios, mean distances, achieved ranks,
    eigengaps): eigengaps[r, j] is the distance from the j-th eigenvalue of
    draw r to its nearest neighbour in the draw's spectrum, relative to
    the leading one.
    """
    k = reference.n_components
    alignments = np.full((n_replicates, k), np.nan)
    ratios = np.full((n_replicates, k), np.nan)
    mean_distances = np.zeros(n_replicates)
    achieved = np.zeros(n_replicates, dtype=int)
    gaps = np.full((n_replicates, k), np.nan)
    for r in range(n_replicates):
        draw = stack.take(resample_indices(len(stack), stream_seed(seed, r)))
        ell = eigendecompose(gram_matrix(draw, mean_function(draw)))[0]
        spacing = np.abs(np.diff(ell)) / ell[0] if ell[0] > 0 else np.zeros(len(ell) - 1)
        nearest = np.minimum(np.append(spacing, np.inf), np.insert(spacing, 0, np.inf))
        gaps[r] = nearest[:k]
        try:
            model = fit_mfpca(draw, n_components=k)
        except RankDeficiencyError as exc:
            if exc.achievable_rank < 1:
                mean_distances[r] = np.nan
                continue
            model = fit_mfpca(draw, n_components=exc.achievable_rank)
        achieved[r] = model.n_components
        for j in range(model.n_components):
            ip = inner_product(model.eigenfunctions[j], reference.eigenfunctions[j])
            alignments[r, j] = min(abs(ip), 1.0)
            ratios[r, j] = model.eigenvalues[j] / reference.eigenvalues[j]
        mean_distances[r] = h_norm(model.mean - reference.mean)
    return alignments, ratios, mean_distances, achieved, gaps


class TestSplitMix64:
    def test_published_reference_sequence(self):
        # first outputs for seed 0 as published for the reference algorithm
        gen = SplitMix64(0)
        assert gen.next_uint64() == 0xE220A8397B1DCDAF
        assert gen.next_uint64() == 0x6E789E6AA1B965F4
        assert gen.next_uint64() == 0x06C45D188009454F

    def test_below_is_unbiased_range(self):
        gen = SplitMix64(123)
        draws = [gen.below(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)


class TestResample:
    def test_deterministic(self):
        i1 = resample_indices(20, seed=99)
        i2 = resample_indices(20, seed=99)
        np.testing.assert_array_equal(i1, i2)

    def test_different_seeds_differ(self):
        assert not np.array_equal(resample_indices(20, 1), resample_indices(20, 2))

    def test_frequencies_uniform(self):
        # 10000 resamples of 5 items: each index near frequency 0.2
        counts = np.zeros(5)
        for r in range(10000):
            idx = resample_indices(5, stream_seed(3, r))
            counts += np.bincount(idx, minlength=5)
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.2) <= 0.02)

    def test_stream_seeds_distinct(self):
        seeds = {stream_seed(7, r) for r in range(1000)}
        assert len(seeds) == 1000


class TestStabilityStudy:
    def test_noiseless_rank_one_is_stable(self, grid11):
        psi = smooth_factor_basis(grid11, 1)[0]
        rng = np.random.default_rng(7)
        samples = stack_of([np.ones((2, 11, 11)) + c * psi for c in rng.normal(size=16)])
        report = stability_study(samples, fit_mfpca(samples, n_components=1), n_replicates=5, seed=0)
        assert np.all(report.alignments[:, 0] >= 1.0 - 1e-6)
        assert report.flagged == []

    def test_replicate_count_validated(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 10, seed=8)
        with pytest.raises(ValueError):
            stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=0)

    def test_identity_draw_reproduces_reference_eigenvalues(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.5, 0.3, 0.2], 12, seed=9)
        reference = fit_mfpca(samples, n_components=3)
        redraw = fit_mfpca(samples.take(range(12)), n_components=3)
        assert np.array_equal(redraw.eigenvalues, reference.eigenvalues)

    def test_a_given_gram_gives_the_same_report(self, grid11):
        # run hands the fit's Gram matrix to the study instead of building it again
        samples, _, _ = planted_dataset(grid11, [0.6, 0.25, 0.15], 15, seed=12)
        reference = fit_mfpca(samples, n_components=2)
        gram = gram_matrix(samples, mean_function(samples))
        assert np.array_equal(fit_mfpca(samples, n_components=2, gram=gram).functions, reference.functions)
        built = stability_study(samples, reference, n_replicates=3, seed=4)
        assert report_to_dict(stability_study(samples, reference, n_replicates=3, seed=4, gram=gram)) == \
            report_to_dict(built)

    def test_bit_reproducible(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.6, 0.25, 0.15], 15, seed=10)
        r1 = stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=3, seed=11)
        r2 = stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=3, seed=11)
        np.testing.assert_array_equal(r1.alignments, r2.alignments)
        np.testing.assert_array_equal(r1.eigenvalue_ratios, r2.eigenvalue_ratios)
        np.testing.assert_array_equal(r1.mean_distances, r2.mean_distances)

    def test_rank_deficient_replicate_flagged(self, grid11):
        # three samples, rank 2; hunt for a seed whose draw collapses to
        # at most two distinct indices so the replicate rank drops below 2
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 3, seed=12)
        seed = next(
            s for s in range(200) if len(set(resample_indices(3, stream_seed(s, 0)).tolist())) < 3
        )
        report = stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=1, seed=seed)
        assert report.flagged == [0]
        assert report.achieved_ranks[0] < 2
        assert np.isnan(report.alignments[0, -1])

    def test_three_factor_leading_component_more_stable(self, grid21):
        samples, _, _ = planted_dataset(grid21, [0.7, 0.2, 0.1], 60, seed=13)
        report = stability_study(samples, fit_mfpca(samples, n_components=3), n_replicates=5, seed=1)
        means = report.mean_alignment()
        assert means[0] > means[2]

    def test_report_dict_serializes_nan_as_none(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 3, seed=14)
        seed = next(
            s for s in range(200) if len(set(resample_indices(3, stream_seed(s, 0)).tolist())) < 3
        )
        report = stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=1, seed=seed)
        doc = report_to_dict(report)
        assert doc["alignments"][0][-1] is None
        assert doc["flagged_replicates"] == [0]

    def test_reference_is_not_refit(self, grid11, monkeypatch, tmp_path):
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 10, seed=16)
        reference = fit_mfpca(samples, n_components=2)
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(kwargs)
            return fit_mfpca(*args, **kwargs)

        monkeypatch.setattr(bootstrap, "fit_mfpca", counting_fit)
        report = stability_study(samples, reference, n_replicates=3, seed=4)
        assert fits == [] and report.n_components == 2
        # the replicate charts come from the study's own eigenpairs
        stability_study(samples, reference, n_replicates=3, seed=4, dump_dir=tmp_path / "boot")
        assert fits == [] and len(list((tmp_path / "boot").iterdir())) == 3 * 3 * 4

    def test_dump_dir_writes_heatmaps(self, grid11, tmp_path):
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 10, seed=15)
        stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=2, seed=3, dump_dir=tmp_path / "boot")
        files = sorted(p.name for p in (tmp_path / "boot").iterdir())
        assert "replicate0_mean_missed.csv" in files
        assert "replicate1_eigenfunction_2_made.pgm" in files

    def test_single_player_draw_has_rank_zero(self, grid11):
        # the refit route decides this case by rounding noise in the draw's mean
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 3, seed=17)
        seed = next(s for s in range(500) if len(set(resample_indices(3, stream_seed(s, 0)).tolist())) == 1)
        report = stability_study(samples, fit_mfpca(samples, n_components=2), n_replicates=1, seed=seed)
        assert report.achieved_ranks[0] == 0 and report.flagged == [0]
        assert np.all(np.isnan(report.alignments[0])) and np.isnan(report.mean_distances[0])

    def test_replicate_charts_match_refit_with_a_flagged_replicate(self, grid11):
        # three samples of rank 2: a draw of two distinct players reaches rank 1 and is flagged
        samples = tilted_dataset(grid11, [0.7, 0.3], 3, seed=12)
        seed = next(
            s for s in range(200) if len(set(resample_indices(3, stream_seed(s, 0)).tolist())) == 2
        )
        report, compared = assert_replicates_match_refit(samples, fit_mfpca(samples, n_components=2), 4, seed)
        assert 0 in report.flagged and report.achieved_ranks[0] == 1 and (0, 1) in compared

    def test_replicate_charts_match_refit_on_forty_players(self, grid21):
        samples = tilted_dataset(grid21, [0.5, 0.25, 0.15, 0.1], 40, seed=18)
        report, compared = assert_replicates_match_refit(samples, fit_mfpca(samples, n_components=4), 5, 2)
        assert report.flagged == [] and len(compared) == 5 * 4

    def test_forty_players_match_refit_route(self, grid21):
        samples, _, _ = planted_dataset(grid21, [0.5, 0.25, 0.15, 0.1], 40, seed=18)
        reference = fit_mfpca(samples, n_components=4)
        report = stability_study(samples, reference, n_replicates=5, seed=2)
        alignments, ratios, distances, ranks, gaps = refit_study(samples, reference, 5, 2)
        assert np.min(gaps) > 1e-3
        np.testing.assert_allclose(report.alignments, alignments, rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.eigenvalue_ratios, ratios, rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.mean_distances, distances, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(report.achieved_ranks, ranks)


GAP_RTOL = 1e-4


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 12),
    nx=st.integers(5, 11),
    ny=st.integers(5, 11),
    shares=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    data_seed=st.integers(0, 2**16),
    boot_seed=st.integers(0, 2**32),
    n_replicates=st.integers(1, 4),
    k=st.integers(1, 3),
)
def test_gram_route_matches_refit_route(n, nx, ny, shares, data_seed, boot_seed, n_replicates, k):
    shares = shares[: n - 1]
    k = min(k, len(shares))
    samples, _, _ = planted_dataset(GridSpec(nx, ny), shares, n, seed=data_seed)
    reference = fit_mfpca(samples, n_components=k)
    report = stability_study(samples, reference, n_replicates=n_replicates, seed=boot_seed)
    alignments, ratios, distances, ranks, gaps = refit_study(samples, reference, n_replicates, boot_seed)
    # an eigenvector of a (nearly) repeated eigenvalue is fixed by rounding
    # alone, so its alignment is compared only where the draw separates it
    separated = gaps > GAP_RTOL
    for r in range(n_replicates):
        if len(set(resample_indices(n, stream_seed(boot_seed, r)).tolist())) == 1:
            # one player drawn n times: no variance, whatever the refit's rounding says
            assert report.achieved_ranks[r] == 0
            assert np.all(np.isnan(report.alignments[r])) and np.isnan(report.mean_distances[r])
            continue
        assert report.achieved_ranks[r] == ranks[r]
        keep = separated[r] | np.isnan(alignments[r])
        np.testing.assert_allclose(report.alignments[r][keep], alignments[r][keep], rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.eigenvalue_ratios[r], ratios[r], rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.mean_distances[r], distances[r], rtol=0, atol=1e-10)
    assert report.flagged == [r for r in range(n_replicates) if report.achieved_ranks[r] < k]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 9),
    rank=st.integers(1, 3),
    data_seed=st.integers(0, 2**16),
    boot_seed=st.integers(0, 2**32),
)
def test_replicate_charts_match_refit(n, rank, data_seed, boot_seed):
    rank = min(rank, n - 1)
    shares = [0.55, 0.3, 0.15][:rank]
    samples = tilted_dataset(GridSpec(9, 7), shares, n, seed=data_seed)
    assert_replicates_match_refit(samples, fit_mfpca(samples, n_components=rank), 4, boot_seed)


class TestReferenceMismatch:
    def dataset(self, grid, n=8, seed=20):
        samples, _, _ = planted_dataset(grid, [0.6, 0.4], n, seed=seed)
        return samples

    def test_other_sample_count(self, grid11):
        samples = self.dataset(grid11)
        reference = fit_mfpca(samples.take(range(len(samples) - 1)), n_components=2)
        with pytest.raises(ReferenceMismatchError, match="7 samples"):
            stability_study(samples, reference)

    def test_other_players(self, grid11):
        samples = self.dataset(grid11)
        renamed = DensityStack([f"q{i}" for i in range(len(samples))], samples.grid, samples.values)
        with pytest.raises(ReferenceMismatchError, match="different players"):
            stability_study(samples, fit_mfpca(renamed, n_components=2))

    def test_other_grid(self, grid11, grid21):
        reference = fit_mfpca(self.dataset(grid21), n_components=2)
        with pytest.raises(ReferenceMismatchError, match="grid"):
            stability_study(self.dataset(grid11), reference)

    def test_other_values(self, grid11):
        samples = self.dataset(grid11)
        reference = fit_mfpca(self.dataset(grid11, seed=21), n_components=2)
        with pytest.raises(ReferenceMismatchError, match="values"):
            stability_study(samples, reference)

    def test_a_given_gram_of_other_values(self, grid11):
        samples, other = self.dataset(grid11), self.dataset(grid11, seed=21)
        with pytest.raises(ReferenceMismatchError, match="values"):
            stability_study(samples, fit_mfpca(samples, n_components=2), gram=gram_matrix(other, mean_function(other)))
