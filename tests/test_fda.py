"""Inner products, the Gram-route decomposition, and its direct-route oracle."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from court_fda import fda
from court_fda.bootstrap import stability_study
from court_fda.density import DensityStack
from court_fda.fda import (
    GridMismatchError,
    ModelFileError,
    RankDeficiencyError,
    covariance_oracle,
    eigendecompose,
    fit_mfpca,
    gram_matrix,
    h_norm,
    inner_product,
    load_model,
    mean_function,
    project_scores,
    project_scores_all,
    reconstruct,
    save_model,
)
from court_fda.grids import GridSpec, trapezoid_weights
from court_fda.pipeline import write_densities

from conftest import planted_dataset, smooth_factor_basis, stack_from, stack_of, values_of

# Exact rational values of the trapezoid sum of t^2 on n uniform nodes.
RAMP_TRAPEZOID = {51: 0.3334, 101: 0.33335, 201: 0.3333375}

# Hand-evaluated centered inner products of the three step samples below.
HAND_GRAM = np.array(
    [
        [29 / 36, -5 / 18, -19 / 36],
        [-5 / 18, 23 / 36, -13 / 36],
        [-19 / 36, -13 / 36, 8 / 9],
    ]
)


def hand_gram_samples():
    ones = np.ones((3, 3))
    zeros = np.zeros((3, 3))
    s3_missed = zeros.copy()
    s3_missed[0, 0] = 4.0
    s3_made = zeros.copy()
    s3_made[1, 2] = 3.0
    s3_made[2, 1] = 1.0
    return [
        np.stack([ones, zeros]),
        np.stack([zeros, ones]),
        np.stack([s3_missed, s3_made]),
    ]


def random_dataset(grid, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(2, grid.nx, grid.ny)) for _ in range(n)]


class TestInnerProduct:
    def test_constant_ones_give_two(self, grid11):
        ones = np.ones((2, 11, 11))
        assert inner_product(ones, ones) == pytest.approx(2.0, abs=1e-14)

    def test_disjoint_components_orthogonal(self, grid11):
        f = np.zeros((2, 11, 11))
        g = np.zeros((2, 11, 11))
        f[0] = 1.0
        g[1] = 1.0
        assert inner_product(f, g) == 0.0

    @pytest.mark.parametrize("n", [51, 101, 201])
    def test_linear_ramp_matches_exact_trapezoid(self, n):
        grid = GridSpec(n, n)
        f = np.zeros((2, n, n))
        f[0] = grid.xs[:, None] * np.ones(n)[None, :]
        value = inner_product(f, f)
        assert value == pytest.approx(RAMP_TRAPEZOID[n], abs=1e-15)

    def test_linear_ramp_converges_to_third(self):
        grid = GridSpec(201, 201)
        f = np.zeros((2, 201, 201))
        f[0] = grid.xs[:, None] * np.ones(201)[None, :]
        assert abs(inner_product(f, f) - 1.0 / 3.0) <= 5e-6

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            inner_product(np.zeros((2, 11, 11)), np.zeros((2, 5, 5)))
        with pytest.raises(GridMismatchError):
            inner_product(np.zeros((2, 11, 11)), np.zeros((2, 11, 5)))


class TestMeanFunction:
    def test_single_sample_identity(self, grid11):
        sample = random_dataset(grid11, 1, 1)[0]
        np.testing.assert_array_equal(mean_function(stack_of([sample])), sample)

    def test_mirror_pair_averages_to_one(self, grid11):
        f = random_dataset(grid11, 1, 2)[0]
        np.testing.assert_allclose(mean_function(stack_of([f, 2.0 - f])), np.ones_like(f), atol=1e-15)

    def test_identical_samples_idempotent(self, grid11):
        f = random_dataset(grid11, 1, 3)[0]
        np.testing.assert_allclose(mean_function(stack_of([f] * 5)), f, atol=1e-15)

    def test_empty_rejected(self, grid11):
        with pytest.raises(ValueError):
            mean_function(stack_from(np.empty((2, 0, 11, 11)), []))


class TestGramMatrix:
    def test_hand_computed_three_by_three(self):
        samples = hand_gram_samples()
        grid = GridSpec(3, 3)
        g = gram_matrix(stack_of(samples), mean_function(stack_of(samples)))
        np.testing.assert_allclose(g, HAND_GRAM, atol=1e-14)

    def test_identical_samples_center_to_zero(self, grid11):
        f = random_dataset(grid11, 1, 4)[0]
        g = gram_matrix(stack_of([f, f.copy()]), mean_function(stack_of([f, f])))
        np.testing.assert_allclose(g, np.zeros((2, 2)), atol=1e-14)

    def test_duplicated_rows_match(self, grid11):
        samples = random_dataset(grid11, 4, 5)
        samples.append(samples[1].copy())
        g = gram_matrix(stack_of(samples), mean_function(stack_of(samples)))
        np.testing.assert_allclose(g[1], g[4], atol=1e-13)

    def test_exactly_symmetric(self, grid11):
        samples = random_dataset(grid11, 6, 6)
        g = gram_matrix(stack_of(samples), mean_function(stack_of(samples)))
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) >= 0)


class TestEigendecompose:
    def test_diagonal(self):
        vals, vecs = eigendecompose(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3), atol=1e-14)

    def test_two_by_two_closed_form(self):
        vals, vecs = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(vecs[:, 0] @ expected) - 1.0) <= 1e-14
        expected2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(vecs[:, 1] @ expected2) - 1.0) <= 1e-14

    def test_rank_one(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        vals, _ = eigendecompose(np.outer(v, v))
        assert vals[0] == pytest.approx(v @ v, rel=1e-12)
        assert np.all(np.abs(vals[1:]) <= 1e-10)
        assert np.all(vals[1:] >= 0.0)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        g = a @ a.T
        g = np.triu(g) + np.triu(g, 1).T
        vals, vecs = eigendecompose(g)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_asymmetric_rejected(self):
        g = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            eigendecompose(g)


class TestFitMfpca:
    def test_two_samples_single_component(self, grid11):
        a, b = random_dataset(grid11, 2, 8)
        model = fit_mfpca(stack_of([a, b]), n_components=1)
        diff = (a - b) / h_norm(a - b)
        assert abs(abs(inner_product(model.eigenfunctions[0], diff)) - 1.0) <= 1e-12

    def test_component_count_bounded_by_n_minus_one(self, grid11):
        samples = random_dataset(grid11, 2, 9)
        with pytest.raises(ValueError):
            fit_mfpca(stack_of(samples), n_components=2)

    def test_rank_one_synthetic(self, grid21):
        psi = smooth_factor_basis(grid21, 1)[0]
        rng = np.random.default_rng(10)
        coeffs = rng.normal(0.0, 2.0, size=12)
        mu = np.ones((2, 21, 21))
        samples = [mu + c * psi for c in coeffs]
        model = fit_mfpca(stack_of(samples), n_components=1)
        assert abs(inner_product(model.eigenfunctions[0], psi)) >= 1.0 - 1e-6
        assert model.eigenvalues[0] == pytest.approx(np.var(coeffs, ddof=1), rel=1e-10)

    def test_threshold_selects_two_factors(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.8, 0.15, 0.05], 20, seed=11)
        model = fit_mfpca(samples, variance_threshold=0.90)
        assert model.n_components == 2

    def test_requesting_beyond_rank_reports_achievable(self, grid11):
        samples, _, _ = planted_dataset(grid11, [0.7, 0.3], 10, seed=12)
        with pytest.raises(RankDeficiencyError) as err:
            fit_mfpca(samples, n_components=5)
        assert err.value.achievable_rank == 2

    def test_selection_arguments_exclusive(self, grid11):
        samples = random_dataset(grid11, 4, 13)
        with pytest.raises(ValueError):
            fit_mfpca(stack_of(samples))
        with pytest.raises(ValueError):
            fit_mfpca(stack_of(samples), n_components=2, variance_threshold=0.9)

    def test_threshold_of_one_selects_full_rank(self, grid11):
        samples = random_dataset(grid11, 6, 19)
        model = fit_mfpca(stack_of(samples), variance_threshold=1.0)
        assert model.n_components == 5

    def test_orthonormal_eigenfunctions(self, grid11):
        samples = random_dataset(grid11, 8, 14)
        model = fit_mfpca(stack_of(samples), n_components=5)
        for j in range(5):
            for k in range(j, 5):
                ip = inner_product(model.eigenfunctions[j], model.eigenfunctions[k])
                assert abs(ip - (1.0 if j == k else 0.0)) <= 1e-8

    def test_variance_ratios_monotone_and_bounded(self, grid11):
        samples = random_dataset(grid11, 9, 15)
        model = fit_mfpca(stack_of(samples), n_components=6)
        assert np.all(np.diff(model.variance_ratios) <= 1e-15)
        assert model.variance_ratios.sum() <= 1.0 + 1e-12

    def test_score_columns_centered_with_eigenvalue_variance(self, grid11):
        samples = random_dataset(grid11, 10, 16)
        model = fit_mfpca(stack_of(samples), n_components=6)
        values = model.scores.values
        lam = model.eigenvalues
        assert np.all(np.abs(values.mean(axis=0)) <= 1e-8 * np.sqrt(lam))
        np.testing.assert_allclose(values.var(axis=0, ddof=1), lam, rtol=1e-6)

    def test_bit_identical_refits(self, grid11):
        samples = random_dataset(grid11, 7, 17)
        m1 = fit_mfpca(stack_of(samples), n_components=4)
        m2 = fit_mfpca(stack_of(samples), n_components=4)
        assert np.array_equal(m1.scores.values, m2.scores.values)
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)
        assert np.array_equal(m1.functions, m2.functions)

    def test_scores_carry_stack_player_ids(self, grid11):
        rng = np.random.default_rng(18)
        stack = stack_from(rng.uniform(0.5, 1.5, size=(2, 5, 11, 11)), [f"p{i}" for i in range(5)])
        model = fit_mfpca(stack, n_components=3)
        assert model.scores.player_ids == [f"p{i}" for i in range(5)]
        assert model.grid == grid11


class TestScoresAndReconstruction:
    def test_mean_sample_has_zero_scores(self, grid11):
        samples = random_dataset(grid11, 6, 20)
        model = fit_mfpca(stack_of(samples), n_components=4)
        scores = project_scores(model.mean, model)
        np.testing.assert_allclose(scores, np.zeros(4), atol=1e-12)

    def test_basis_direction_recovers_coefficient(self, grid11):
        samples = random_dataset(grid11, 6, 21)
        model = fit_mfpca(stack_of(samples), n_components=4)
        target = model.mean + 3.0 * model.eigenfunctions[1]
        scores = project_scores(target, model)
        np.testing.assert_allclose(scores, [0.0, 3.0, 0.0, 0.0], atol=1e-8)

    def test_projection_matches_gram_route(self, grid11):
        samples = random_dataset(grid11, 9, 22)
        model = fit_mfpca(stack_of(samples), n_components=6)
        projected = project_scores_all(stack_of(samples), model)
        np.testing.assert_allclose(projected.values, model.scores.values, atol=1e-8)

    def test_zero_scores_reconstruct_mean(self, grid11):
        samples = random_dataset(grid11, 5, 23)
        model = fit_mfpca(stack_of(samples), n_components=3)
        np.testing.assert_array_equal(reconstruct(np.zeros(0), model), model.mean)
        np.testing.assert_allclose(reconstruct(np.zeros(3), model), model.mean, atol=1e-15)

    def test_full_rank_reconstruction(self, grid11):
        samples = random_dataset(grid11, 6, 24)
        model = fit_mfpca(stack_of(samples), n_components=5)
        for s in samples:
            err = h_norm(reconstruct(project_scores(s, model), model) - s)
            assert err <= 1e-6

    def test_reconstruction_error_monotone_in_k(self, grid11):
        samples = random_dataset(grid11, 7, 25)
        model = fit_mfpca(stack_of(samples), n_components=6)
        for s in samples:
            scores = project_scores(s, model)
            errs = [h_norm(reconstruct(scores[:k], model) - s) for k in range(1, 7)]
            assert np.all(np.diff(errs) <= 1e-12)

    def test_too_many_scores_rejected(self, grid11):
        samples = random_dataset(grid11, 5, 26)
        model = fit_mfpca(stack_of(samples), n_components=2)
        with pytest.raises(ValueError):
            reconstruct(np.zeros(3), model)

    def test_grid_mismatch_rejected(self, grid11):
        samples = random_dataset(grid11, 5, 27)
        model = fit_mfpca(stack_of(samples), n_components=2)
        with pytest.raises(GridMismatchError):
            project_scores(np.zeros((2, 5, 5)), model)


class TestCovarianceOracle:
    def test_matches_gram_route(self, grid11):
        samples = random_dataset(grid11, 7, 30)
        model = fit_mfpca(stack_of(samples), n_components=6)
        vals, funcs = covariance_oracle(stack_of(samples))
        np.testing.assert_allclose(vals[:6], model.eigenvalues, rtol=1e-8)
        for k in range(6):
            align = abs(inner_product(funcs[k], model.eigenfunctions[k]))
            assert align >= 1.0 - 1e-6

    def test_rank_one_agreement(self, grid11):
        psi = smooth_factor_basis(grid11, 1)[0]
        samples = [np.ones((2, 11, 11)) + c * psi for c in (-1.0, 0.5, 2.0, -0.25)]
        vals, _ = covariance_oracle(stack_of(samples))
        model = fit_mfpca(stack_of(samples), n_components=1)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(model.eigenvalues[0], rel=1e-10)

    def test_refuses_large_grids(self):
        grid = GridSpec(22, 22)
        samples = random_dataset(grid, 3, 31)
        with pytest.raises(ValueError, match="refuses"):
            covariance_oracle(stack_of(samples))


class TestRectangularGrids:
    def test_ramp_along_each_axis(self):
        grid = GridSpec(9, 17)
        fx = np.zeros((2, 9, 17))
        fx[0] = grid.xs[:, None] * np.ones(17)[None, :]
        fy = np.zeros((2, 9, 17))
        fy[1] = np.ones(9)[:, None] * grid.ys[None, :]
        # exact trapezoid values of t^2 with 9 and 17 nodes: 1/3 + h^2/6
        assert inner_product(fx, fx) == pytest.approx(1.0 / 3.0 + 1.0 / (6 * 64), abs=1e-15)
        assert inner_product(fy, fy) == pytest.approx(1.0 / 3.0 + 1.0 / (6 * 256), abs=1e-15)

    @pytest.mark.parametrize("nx, ny, name", [(201.0, 201, "nx"), (float("nan"), 11, "nx"), (11, 11.5, "ny"),
                                              (11, "11", "ny")])
    def test_a_node_count_that_is_not_an_integer_is_refused(self, nx, ny, name):
        with pytest.raises(ValueError, match=f"grid node count {name} must be an integer"):
            GridSpec(nx, ny)

    def test_numpy_integer_node_counts_are_accepted(self):
        assert GridSpec(np.int64(9), np.int32(13)) == GridSpec(9, 13)

    def test_dual_route_on_rectangular_grid(self):
        grid = GridSpec(9, 13)
        rng = np.random.default_rng(50)
        samples = [rng.normal(size=(2, 9, 13)) for _ in range(6)]
        model = fit_mfpca(stack_of(samples), n_components=5)
        vals, funcs = covariance_oracle(stack_of(samples))
        np.testing.assert_allclose(vals[:5], model.eigenvalues, rtol=1e-8)
        for k in range(5):
            assert abs(inner_product(funcs[k], model.eigenfunctions[k])) >= 1.0 - 1e-6


class TestSerialization:
    @pytest.fixture
    def saved(self, grid11, tmp_path):
        model = fit_mfpca(stack_of(random_dataset(grid11, 6, 40)), n_components=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        return model, path

    def test_round_trip_bit_identical(self, saved):
        model, path = saved
        loaded = load_model(path)
        assert loaded.grid == model.grid
        assert loaded.n_samples == model.n_samples
        assert loaded.total_variance == model.total_variance
        assert loaded.functions.tobytes() == model.functions.tobytes() and loaded.functions.flags.c_contiguous
        assert loaded.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        np.testing.assert_array_equal(loaded.variance_ratios, model.variance_ratios)
        np.testing.assert_array_equal(loaded.scores.values, model.scores.values)
        assert loaded.scores.player_ids == model.scores.player_ids

    def test_file_layout(self, saved):
        model, path = saved
        functions = np.load(path.with_name("model_functions.npy"))
        assert functions.dtype == np.float64 and functions.flags.c_contiguous
        assert functions.tobytes() == model.functions.tobytes()
        doc = json.loads(path.read_text())
        assert sorted(doc) == [
            "eigenvalues", "grid", "n_samples", "player_ids", "scores", "total_variance", "variance_ratios",
        ]

    def test_array_is_written_before_the_document(self, saved, monkeypatch):
        model, path = saved
        path.unlink()

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert not path.exists()

    @staticmethod
    def edit_doc(path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("scores"), "a key is missing or a field has the wrong type: 'scores'"),
        (lambda doc: doc["grid"].pop("ny"), "a key is missing or a field has the wrong type: 'ny'"),
        (lambda doc: doc.update(grid=[11, 11]), "a field has the wrong type: list indices"),
        (lambda doc: doc["grid"].update(nx=11.0), "grid sizes and n_samples must be integers"),
        (lambda doc: doc.update(n_samples=True), "grid sizes and n_samples must be integers"),
        (lambda doc: doc["player_ids"].__setitem__(0, 7), "player_ids must be a list of strings"),
        (lambda doc: doc.update(player_ids="abcdef"), "player_ids must be a list of strings"),
        (lambda doc: doc["player_ids"].__setitem__(4, doc["player_ids"][1]), "player '.+' is listed twice"),
        (lambda doc: doc.update(total_variance="1.0"), r"total_variance holds <U3 of shape \(\), expected numbers"),
        (lambda doc: doc.update(eigenvalues=1.0), "a field has the wrong type: .* has no len"),
        (lambda doc: doc["eigenvalues"].__setitem__(0, "1.0"), r"eigenvalues holds <U\d+ of shape \(3,\)"),
        (lambda doc: doc["variance_ratios"].pop(), r"variance_ratios holds float64 of shape \(2,\), expected numbers of shape \(3,\)"),
        (lambda doc: doc["scores"].pop(), r"scores holds float64 of shape \(5, 3\), expected numbers of shape \(6, 3\)"),
        (lambda doc: [row.pop() for row in doc["scores"]], r"scores holds float64 of shape \(6, 2\)"),
        (lambda doc: doc["scores"][0].pop(), "inhomogeneous"),
        (lambda doc: doc["eigenvalues"].__setitem__(1, float("nan")), "eigenvalues holds a non-finite value"),
        (lambda doc: doc["eigenvalues"].__setitem__(0, True), "eigenvalues holds true or false where a number belongs"),
        (lambda doc: doc["scores"][3].__setitem__(0, False), "scores holds true or false where a number belongs"),
        (lambda doc: doc["variance_ratios"].__setitem__(0, float("inf")), "variance_ratios holds a non-finite value"),
        (lambda doc: doc["scores"][2].__setitem__(1, float("-inf")), "scores holds a non-finite value"),
    ])
    def test_malformed_document(self, saved, edit, message):
        _, path = saved
        self.edit_doc(path, edit)
        with pytest.raises(ModelFileError, match=message):
            load_model(path)

    @pytest.mark.parametrize("text, message", [(None, "No such file"), ("{", "Expecting"), ("[]", "a field has the wrong type")])
    def test_unreadable_document(self, saved, text, message):
        _, path = saved
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        with pytest.raises(ModelFileError, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda f: b"", "EOF"),
        (lambda f: b"PK\x03\x04 an archive, not an array", "magic string"),
        (lambda f: f.astype(np.float32), "model_functions.npy holds float32, not float64"),
        (lambda f: f[:-1], r"shape \(3, 2, 11, 11\), expected numbers of shape \(4, 2, 11, 11\)"),
        (lambda f: f[:, :, :, :-1], r"shape \(4, 2, 11, 10\)"),
        (lambda f: np.concatenate([f.ravel()[:300], [np.nan], f.ravel()[301:]]).reshape(f.shape), "non-finite"),
    ])
    def test_malformed_array(self, saved, edit, message):
        _, path = saved
        array_path = path.with_name("model_functions.npy")
        edited = edit(np.load(array_path))
        if isinstance(edited, bytes):
            array_path.write_bytes(edited)
        else:
            np.save(array_path, edited)
        with pytest.raises(ModelFileError, match=message):
            load_model(path)

    def test_text_only_model_is_refused(self, saved):
        # the former single-document layout held the functions as JSON lists and had no array file
        model, path = saved
        self.edit_doc(path, lambda doc: doc.update(
            mean=model.mean.ravel().tolist(),
            eigenfunctions=[f.ravel().tolist() for f in model.eigenfunctions],
            quadrature={"wx": trapezoid_weights(11).tolist(), "wy": trapezoid_weights(11).tolist()},
        ))
        path.with_name("model_functions.npy").unlink()
        with pytest.raises(ModelFileError, match="No such file.*model_functions.npy"):
            load_model(path)


def dense_gram(stack, mean):
    """The former unblocked Gram matrix: one centered, weighted N x 2·nx·ny copy."""
    flat = (values_of(stack).transpose(1, 0, 2, 3) - mean).reshape(len(stack), -1)
    weighted = flat * np.sqrt(np.tile(stack.grid.weights.ravel(), 2))
    raw = weighted @ weighted.T
    return np.triu(raw) + np.triu(raw, 1).T


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 9),
    nx=st.integers(2, 9),
    ny=st.integers(2, 9),
    block=st.integers(1, 90),
    seed=st.integers(0, 2**16),
)
def test_blocked_gram_matches_dense_formula(n, nx, ny, block, seed):
    # small blocks split grid rows and end part-way through a component
    rng = np.random.default_rng(seed)
    stack = stack_from(rng.normal(size=(2, n, nx, ny)), [str(i) for i in range(n)])
    mean = mean_function(stack)
    want = dense_gram(stack, mean)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fda, "GRAM_BLOCK", block)
        got = gram_matrix(stack, mean)
    assert np.array_equal(got, got.T)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 10),
    nx=st.integers(3, 9),
    ny=st.integers(3, 9),
    block=st.sampled_from([1, 7, 25, 4096]),
    seed=st.integers(0, 2**16),
)
def test_stack_fit_matches_covariance_oracle(n, nx, ny, block, seed):
    rng = np.random.default_rng(seed)
    stack = stack_from(rng.normal(size=(2, n, nx, ny)), [str(i) for i in range(n)])
    vals, funcs = covariance_oracle(stack)
    k = len(vals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fda, "GRAM_BLOCK", block)
        model = fit_mfpca(stack, n_components=k)
        projected = project_scores_all(stack, model)
    np.testing.assert_allclose(model.eigenvalues, vals, rtol=1e-9)
    # only an eigenvalue separated from its neighbours pins its eigenfunction
    gaps = np.abs(np.diff(vals)) / vals[0]
    separated = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-6
    for j in np.flatnonzero(separated):
        np.testing.assert_allclose(model.eigenfunctions[j], funcs[j], atol=1e-7)
    np.testing.assert_allclose(projected.values, model.scores.values, atol=1e-9 * np.max(np.abs(model.scores.values)))


def copied_blocks(stack, mean):
    """The former centering: a fresh ``rows[:, cols] - m[cols]`` copy for every block of the stack read whole."""
    n, nodes = len(stack), stack.grid.nx * stack.grid.ny
    for c in range(2):
        rows, m = values_of(stack)[c].reshape(n, nodes), mean[c].ravel()
        for lo in range(0, nodes, fda.GRAM_BLOCK):
            cols = slice(lo, lo + fda.GRAM_BLOCK)
            yield c, cols, rows[:, cols] - m[cols]


def stack_results(stack, n_components):
    """The mean, Gram matrix, model functions and projected scores of a stack."""
    mean = fda.mean_function(stack)
    model = fit_mfpca(stack, n_components=n_components)
    return mean, gram_matrix(stack, mean), model.functions, project_scores_all(stack, model).values


def whole_array_results(stack, n_components):
    """:func:`stack_results` by the whole-array formulas: the stack read whole, its mean taken over
    the player axis at once, and each column block a centered copy (:func:`copied_blocks`)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fda, "_centered_blocks", copied_blocks)
        mp.setattr(fda, "mean_function", lambda stack: values_of(stack).mean(axis=1))
        return stack_results(stack, n_components)


@pytest.mark.parametrize("side", [21, 64, 71])  # nodes below one block, exactly one block, a block and a remainder
def test_one_block_buffer_matches_a_copy_per_block_bit_for_bit(side):
    n = 12
    values = np.random.default_rng(side).uniform(0.5, 1.5, size=(2, n, side, side))
    stack = stack_from(values, [str(i) for i in range(n)])
    for got, want in zip(stack_results(stack, 3), whole_array_results(stack, 3)):
        assert np.array_equal(got, want)


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, as ``tracemalloc`` sees it (numpy's buffers included)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("kind", ["gram", "fit"])
def test_centering_holds_one_block_at_a_time(kind):
    # a block copy per step kept the previous block alive beside the next one: about 2.1 blocks
    n, grid = 40, GridSpec(101, 101)
    rng = np.random.default_rng(61)
    stack = stack_from(rng.uniform(0.5, 1.5, size=(2, n, 101, 101)), [str(i) for i in range(n)])
    mean = mean_function(stack)
    block = n * fda.GRAM_BLOCK * 8
    if kind == "gram":
        gram, peak = traced_peak(lambda: gram_matrix(stack, mean))
        extra = peak - gram.nbytes
    else:
        model, peak = traced_peak(lambda: fit_mfpca(stack, n_components=4))
        extra = peak - model.functions.nbytes - model.scores.values.nbytes
    assert extra <= 1.5 * block


def test_fit_peak_memory_below_one_stack():
    # the fit centers the stack block by block, never a whole copy of it
    n, grid = 48, GridSpec(201, 201)
    rng = np.random.default_rng(60)
    stack = stack_from(rng.uniform(0.5, 1.5, size=(2, n, 201, 201)), [str(i) for i in range(n)])
    model, peak = traced_peak(lambda: fit_mfpca(stack, n_components=4))
    assert model.n_components == 4
    assert peak < 2 * n * grid.nx * grid.ny * 8


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    nx=st.integers(11, 21),
    ny=st.integers(11, 21),
    shares=st.integers(1, 3),
    block=st.sampled_from([1, 13, 64, 121, 200, 4096]),
    seed=st.integers(0, 2**16),
)
def test_a_stack_on_disk_gives_the_whole_array_results_bit_for_bit(n, nx, ny, shares, block, seed):
    # runs of players written by forked shares on the write side and blocks of nodes on the read side, dividing the
    # player and node counts or not, change no bit of the mean, the Gram matrix, the model or the scores
    values = np.random.default_rng(seed).uniform(0.5, 1.5, size=(2, n, nx, ny))
    ids, grid = [f"p{i}" for i in range(n)], GridSpec(nx, ny)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        bounds = [n * share // shares for share in range(shares + 1)]
        write_densities(directory, ids, grid, lambda i: values[:, i], bounds)
        for comp, component in zip(("missed", "made"), values):
            np.save(directory / f"{comp}.npy", component)
            assert (directory / f"densities_{comp}.npy").read_bytes() == (directory / f"{comp}.npy").read_bytes()
        stack = DensityStack(ids, grid, directory)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fda, "GRAM_BLOCK", block)
            got = stack_results(stack, min(3, n - 1))
            want = whole_array_results(stack, min(3, n - 1))
    for ours, theirs in zip(got, want):
        assert np.array_equal(ours, theirs)


def test_fit_and_study_trace_less_than_half_a_stack(tmp_path):
    # the stack stays in its files: the fit and the study hold a block of it, never its rows
    n, grid = 40, GridSpec(101, 101)
    values = np.random.default_rng(62).uniform(0.5, 1.5, size=(2, n, 101, 101))
    ids = [str(i) for i in range(n)]
    write_densities(tmp_path, ids, grid, lambda i: values[:, i])
    stack, stack_bytes = DensityStack(ids, grid, tmp_path), values.nbytes
    del values

    def fit_and_study():
        model = fit_mfpca(stack, n_components=4)
        return stability_study(stack, model, n_replicates=5, seed=0)

    report, peak = traced_peak(fit_and_study)
    assert report.n_replicates == 5
    assert peak < stack_bytes / 2
