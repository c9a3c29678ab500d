"""Bandwidth selection and kernel density estimation against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from court_fda import native, pipeline
from court_fda.density import (
    KDE_BLOCK,
    DegenerateBandwidthError,
    DensityError,
    _kde_buffers,
    build_samples,
    kde,
    kde_raw,
    silverman_bandwidth,
)
from court_fda.grids import GridSpec, grid_integral
from court_fda.ingest import PlayerRecord, Position

from conftest import assert_no_child_left

# Fixed 5-point configuration; value at node (0.5, 0.5) of the 11x11 grid,
# bandwidths 0.1, computed with 50-digit arithmetic before normalization.
FIVE_POINTS = np.array([(0.1, 0.2), (0.35, 0.5), (0.5, 0.5), (0.72, 0.4), (0.9, 0.85)])
FIVE_POINT_CENTER_VALUE = 4.388190217971534680459

# Fixed 6-point set; per-axis bandwidths recomputed with 50-digit arithmetic.
SIX_POINTS = np.array(
    [(0.12, 0.9), (0.3, 0.6), (0.42, 0.51), (0.77, 0.2), (0.95, 0.33), (0.58, 0.11)]
)
SIX_POINT_BANDWIDTHS = (0.2272813617631882906446, 0.2151794415125164439837)


def kernel_sum_oracle(points, hx, hy, x, y):
    """Plain double-loop kernel sum with exact compensated summation."""
    terms = []
    for px, py in points:
        gx = math.exp(-0.5 * ((x - px) / hx) ** 2) / math.sqrt(2 * math.pi)
        gy = math.exp(-0.5 * ((y - py) / hy) ** 2) / math.sqrt(2 * math.pi)
        terms.append(gx * gy)
    return math.fsum(terms) / (len(points) * hx * hy)


class TestSilverman:
    def test_frozen_six_point_values(self):
        hx, hy = silverman_bandwidth(SIX_POINTS)
        assert hx == pytest.approx(SIX_POINT_BANDWIDTHS[0], abs=1e-15)
        assert hy == pytest.approx(SIX_POINT_BANDWIDTHS[1], abs=1e-15)

    def test_closed_form_n64(self):
        # 32 points at +a, 32 at -a per axis: sample std exactly 0.25,
        # and 64**(-1/6) = 1/2, so h = 0.125.
        a = 0.25 * math.sqrt(63.0 / 64.0)
        pts = np.array([(a, -a)] * 32 + [(-a, a)] * 32)
        hx, hy = silverman_bandwidth(pts)
        assert hx == pytest.approx(0.125, abs=1e-12)
        assert hy == pytest.approx(0.125, abs=1e-12)

    def test_matches_formula_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(37, 2))
        hx, hy = silverman_bandwidth(pts)
        for axis, h in ((0, hx), (1, hy)):
            col = [mp.mpf(float(v)) for v in pts[:, axis]]
            mu = sum(col) / len(col)
            var = sum((v - mu) ** 2 for v in col) / (len(col) - 1)
            want = mp.sqrt(var) * mp.power(len(col), mp.mpf(-1) / 6)
            assert abs(h - float(want)) < 1e-13

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(25, 2))
        hx, hy = silverman_bandwidth(pts)
        for a in (2.0, 0.3, 7.5):
            sx, sy = silverman_bandwidth(pts * a)
            assert sx == pytest.approx(a * hx, rel=1e-12)
            assert sy == pytest.approx(a * hy, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateBandwidthError):
            silverman_bandwidth(np.array([(0.5, 0.5)]))

    def test_zero_variance_axis(self):
        pts = np.array([(0.3, 0.1), (0.3, 0.5), (0.3, 0.9)])
        with pytest.raises(DegenerateBandwidthError, match="x"):
            silverman_bandwidth(pts)

    @staticmethod
    def lattice_points(seed: int, axis: int, n: int) -> np.ndarray:
        """``n`` points of the court's 0.01 ft lattice, in feet, with two distinct values on the other axis."""
        ft = np.random.default_rng(seed).integers(0, 4701, size=(n, 2)) / 100
        ft[:2, 1 - axis] = 0, 1
        return ft

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([0, 1]), k=st.integers(0, 4700),
           n=st.integers(2, 5000))
    def test_a_constant_lattice_coordinate_is_refused(self, seed, axis, k, n):
        # normalized as the ingest does it, a constant column's spread is rarely exactly 0 (10.00 ft gives 2.8e-17)
        ft = self.lattice_points(seed, axis, n)
        ft[:, axis] = k / 100
        with pytest.raises(DegenerateBandwidthError, match=f"zero variance along {'xy'[axis]}"):
            silverman_bandwidth(ft / np.array([50.0, 47.0]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([0, 1]), k=st.integers(0, 4700),
           step=st.integers(1, 4700), n=st.integers(2, 5000), data=st.data())
    def test_two_distinct_lattice_values_are_accepted(self, seed, axis, k, step, n, data):
        ft = self.lattice_points(seed, axis, n)
        ft[:, axis] = k / 100
        ft[:data.draw(st.integers(1, n - 1)), axis] = (k + step) % 4701 / 100
        assert min(silverman_bandwidth(ft / np.array([50.0, 47.0]))) > 0


class TestKdeRaw:
    def test_frozen_center_value(self, grid11):
        raw = kde_raw(FIVE_POINTS, (0.1, 0.1), grid11)
        assert abs(raw[5, 5] - FIVE_POINT_CENTER_VALUE) <= 1e-12

    def test_matches_double_loop_oracle_everywhere(self, grid11):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(40, 2))
        hx, hy = 0.13, 0.21
        raw = kde_raw(pts, (hx, hy), grid11)
        for i in range(grid11.nx):
            for j in range(grid11.ny):
                want = kernel_sum_oracle(pts, hx, hy, grid11.xs[i], grid11.ys[j])
                assert abs(raw[i, j] - want) <= 1e-12

    def test_single_center_point_symmetry(self):
        grid = GridSpec(21, 21)
        raw = kde_raw(np.array([(0.5, 0.5)]), (0.2, 0.2), grid)
        assert np.unravel_index(np.argmax(raw), raw.shape) == (10, 10)
        np.testing.assert_allclose(raw, raw[::-1, :], atol=1e-15)
        np.testing.assert_allclose(raw, raw[:, ::-1], atol=1e-15)

    def test_mirror_symmetric_point_set(self, grid11):
        pts = np.array([(0.3, 0.4), (0.7, 0.4), (0.2, 0.8), (0.8, 0.8), (0.5, 0.1)])
        raw = kde_raw(pts, (0.15, 0.15), grid11)
        np.testing.assert_allclose(raw, raw[::-1, :], atol=1e-12)

    def test_permutation_invariance(self, grid11):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, size=(30, 2))
        raw1 = kde_raw(pts, (0.1, 0.1), grid11)
        raw2 = kde_raw(pts[::-1], (0.1, 0.1), grid11)
        np.testing.assert_allclose(raw1, raw2, atol=1e-13)

    def test_duplicated_point_reweights_as_predicted(self, grid11):
        pts = FIVE_POINTS
        dup = np.vstack([pts, pts[2]])
        raw_n = kde_raw(pts, (0.1, 0.1), grid11)
        raw_dup = kde_raw(dup, (0.1, 0.1), grid11)
        single = kde_raw(pts[2:3], (0.1, 0.1), grid11)
        want = (5 * raw_n + single) / 6
        np.testing.assert_allclose(raw_dup, want, atol=1e-13)

    def test_grid_refinement_pointwise(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 1, size=(20, 2))
        bw = (0.12, 0.18)
        f11 = kde_raw(pts, bw, GridSpec(11, 11))
        f21 = kde_raw(pts, bw, GridSpec(21, 21))
        f41 = kde_raw(pts, bw, GridSpec(41, 41))
        np.testing.assert_allclose(f11, f21[::2, ::2], atol=1e-12)
        np.testing.assert_allclose(f21, f41[::2, ::2], atol=1e-12)

    def test_bad_bandwidth(self, grid11):
        with pytest.raises(ValueError):
            kde_raw(FIVE_POINTS, (0.0, 0.1), grid11)

    def test_empty_points(self, grid11):
        with pytest.raises(ValueError):
            kde_raw(np.empty((0, 2)), (0.1, 0.1), grid11)


def former_kde_raw(points, bandwidth, grid):
    """kde_raw as one expression per kernel matrix over all points, each kernel scaled by 1/sqrt(2 pi)."""
    hx, hy = bandwidth
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    inv = 1.0 / math.sqrt(2.0 * math.pi)
    kx = inv * np.exp(-0.5 * ((grid.xs[:, None] - pts[None, :, 0]) / hx) ** 2)
    ky = inv * np.exp(-0.5 * ((grid.ys[:, None] - pts[None, :, 1]) / hy) ** 2)
    return (kx @ ky.T) / (len(pts) * hx * hy)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3 * KDE_BLOCK + 1),
    nx=st.integers(2, 41),
    ny=st.integers(2, 41),
    hx=st.floats(1e-3, 2.0),
    hy=st.floats(1e-3, 2.0),
    seed=st.integers(0, 2**16),
)
def test_in_place_kernels_match_former_expression(n, nx, ny, hx, hy, seed):
    # the point blocks and the four-pass kernels change the rounding, not the sum; below 1e-300 the
    # products have underflowed to subnormals, whose few significant bits no relative bound covers
    pts = np.random.default_rng(seed).uniform(-0.1, 1.1, size=(n, 2))
    grid = GridSpec(nx, ny)
    np.testing.assert_allclose(kde_raw(pts, (hx, hy), grid), former_kde_raw(pts, (hx, hy), grid), rtol=1e-12,
                               atol=1e-300)


def allocating_kde_raw(points, bandwidth, grid):
    """kde_raw as it was before the block buffers: fresh kernels and a fresh product for every block."""
    hx, hy = bandwidth
    pts = np.asarray(points, dtype=float).reshape(-1, 2)

    def kernel(nodes, coords, h):
        k = np.subtract.outer(nodes, coords)
        np.square(k, out=k)
        k *= -0.5 / (h * h)
        np.exp(k, out=k)
        return k

    out = np.zeros(grid.shape)
    for block in (pts[i:i + KDE_BLOCK] for i in range(0, len(pts), KDE_BLOCK)):
        out += kernel(grid.xs, block[:, 0], hx) @ kernel(grid.ys, block[:, 1], hy).T
    out /= 2.0 * math.pi * len(pts) * hx * hy
    return out


@pytest.mark.parametrize("n", [KDE_BLOCK // 3, KDE_BLOCK, 2 * KDE_BLOCK + 37])
def test_block_buffers_match_allocating_expression(n):
    # the same operations in the same order, written into buffers: the same bits
    rng = np.random.default_rng(n)
    pts = rng.uniform(-0.1, 1.1, size=(n, 2))
    grid, bandwidth = GridSpec(53, 47), (0.07, 0.11)
    want = allocating_kde_raw(pts, bandwidth, grid).tobytes()
    assert kde_raw(pts, bandwidth, grid).tobytes() == want
    buffers = _kde_buffers(grid)  # reused, as a worker does, after a call that filled every row
    kde_raw(rng.uniform(size=(3 * KDE_BLOCK, 2)), (0.2, 0.3), grid, buffers)
    assert kde_raw(pts, bandwidth, grid, buffers).tobytes() == want


class TestKde:
    def test_normalized_integral_and_positivity(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(51, 51)
        for _ in range(10):
            n = rng.integers(20, 400)
            pts = rng.uniform(0, 1, size=(n, 2))
            field = kde(pts, silverman_bandwidth(pts), grid)
            assert np.all(field >= 0)
            assert abs(grid_integral(field) - 1.0) <= 1e-9


class TestBuildSample:
    def make_record(self, made, missed, pid="p1"):
        return PlayerRecord(pid, "P One", Position.GUARD, np.asarray(made, float), np.asarray(missed, float))

    def build(self, made, missed, grid):
        """(missed, made) fields of a one-player stack."""
        fields = build_samples([self.make_record(made, missed)], grid)
        return fields[0, 0], fields[1, 0]

    def test_identical_point_sets_give_identical_fields(self, grid11):
        pts = FIVE_POINTS
        missed, made = self.build(pts, pts, grid11)
        np.testing.assert_array_equal(made, missed)

    def test_swapping_lists_swaps_fields(self, grid11):
        a, b = FIVE_POINTS, SIX_POINTS
        missed1, made1 = self.build(a, b, grid11)
        missed2, made2 = self.build(b, a, grid11)
        np.testing.assert_array_equal(made1, missed2)
        np.testing.assert_array_equal(missed1, made2)

    def test_bandwidths_are_per_component(self, grid11):
        tight = np.array([(0.5 + dx, 0.5 + dy) for dx in (-0.01, 0, 0.01) for dy in (-0.01, 0, 0.01)])
        wide = SIX_POINTS
        missed, made = self.build(tight, wide, grid11)
        assert made.max() > 5 * missed.max()

    def test_error_tagged_with_player_and_component(self, grid11):
        record = self.make_record([(0.5, 0.5)], FIVE_POINTS)
        with pytest.raises(DensityError, match=r"p1.*made"):
            build_samples([record], grid11)

    @pytest.mark.parametrize("shares", [1, 3, 8])
    def test_the_first_failing_player_in_record_order_wins(self, grid11, tmp_path, monkeypatch, shares):
        # at 3 and 8 shares p05, p09 and p17 fail in three different shares, and p05's share comes first
        monkeypatch.setattr(native, "available_cores", lambda: 8)
        monkeypatch.setattr(pipeline, "_SHOT_NODES_PER_WORKER", 1)
        cuts, write = [], pipeline.write_densities
        monkeypatch.setattr(pipeline, "write_densities", lambda *args: cuts.append(args[-1]) or write(*args))
        rng = np.random.default_rng(14)
        records = [
            self.make_record(rng.uniform(size=(30, 2)), rng.uniform(size=(25, 2)), pid=f"p{i:02d}") for i in range(24)
        ]
        for i, side in ((17, "made"), (5, "missed"), (9, "made")):
            record = records[i]
            setattr(record, f"{side}_points", np.array([(0.5, 0.5)]))
        with pytest.raises(DensityError, match=r"^player p05, missed shots: need at least 2 points, got 1$"):
            pipeline.estimate_densities(records, grid11, shares, tmp_path)
        assert_no_child_left()
        [bounds] = cuts
        owners = [sum(b <= i for b in bounds[1:]) for i in (5, 9, 17)]
        assert len(bounds) == shares + 1 and (shares == 1 or owners == sorted(set(owners)))
