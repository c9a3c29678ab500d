"""Command-line surface and pipeline orchestration."""

import hashlib
import json
import stat

import numpy as np
import pytest

from court_fda.cli import main
from court_fda.density import DensityStack
from court_fda.export import export_heatmap
from court_fda.fda import ScoreMatrix
from court_fda.grids import GridSpec
from court_fda.pipeline import (
    DensityFileError,
    PipelineConfig,
    ScoresFileError,
    StageError,
    read_densities,
    read_scores_csv,
    run_pipeline,
    write_densities,
    write_scores_csv,
)

from conftest import write_mini_export

CORE_FILES = [
    "clusters_equal.json",
    "clusters_variance.json",
    "densities_made.npy",
    "densities_meta.json",
    "densities_missed.npy",
    "evaluation.json",
    "model.json",
    "players.json",
    "roster_equal.txt",
    "roster_variance.txt",
    "scores.csv",
    "stability.json",
]


@pytest.fixture
def mini_csv(tmp_path):
    return write_mini_export(tmp_path / "mini.csv")


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestStageCommands:
    def test_full_stage_chain(self, tmp_path, mini_csv, capsys):
        out = tmp_path / "work"
        assert run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100) == 0
        assert (out / "players.json").exists()

        assert run_cli(
            "density", "--players", out / "players.json", "--out", out, "--grid", 21,
            "--dump-densities", out / "dumps",
        ) == 0
        assert (out / "densities_missed.npy").exists()
        assert (out / "dumps" / "m1_missed.csv").exists()

        assert run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2) == 0
        assert (out / "model.json").exists() and (out / "scores.csv").exists()

        scores_dir = tmp_path / "scores2"
        assert run_cli("mfpca", "scores", "--model", out / "model.json", "--densities", out, "--out", scores_dir) == 0
        direct = (out / "scores.csv").read_text().splitlines()
        projected = (scores_dir / "scores.csv").read_text().splitlines()
        assert direct[0] == projected[0]
        for a, b in zip(direct[1:], projected[1:]):
            va = [float(x) for x in a.split(",")[1:]]
            vb = [float(x) for x in b.split(",")[1:]]
            np.testing.assert_allclose(va, vb, atol=1e-8)

        assert run_cli(
            "cluster", "--scores", out / "scores.csv", "--k", 2, "--weights", "variance",
            "--model", out / "model.json", "--players", out / "players.json", "--out", out,
        ) == 0
        doc = json.loads((out / "clusters_variance.json").read_text())
        assert doc["k"] == 2 and len(doc["players"]) == 4
        assert (out / "roster_variance.txt").exists()

        assert run_cli(
            "cluster", "--scores", out / "scores.csv", "--k", 2, "--weights", "equal", "--out", out,
        ) == 0

        eval_path = tmp_path / "eval.json"
        assert run_cli(
            "evaluate", "--clusters", out / "clusters_equal.json", "--against", "nba",
            "--scores", out / "scores.csv", "--players", out / "players.json", "--out", eval_path,
        ) == 0
        report = json.loads(eval_path.read_text())
        assert "ari" in report["comparison"] and "mean" in report["silhouette"]

        assert run_cli(
            "evaluate", "--clusters", out / "clusters_equal.json",
            "--against", out / "clusters_variance.json", "--scores", out / "scores.csv",
        ) == 0

        boot_dir = tmp_path / "boot"
        assert run_cli(
            "bootstrap", "--densities", out, "--replicates", 2, "--components", 2,
            "--seed", 3, "--out", boot_dir,
        ) == 0
        assert sorted(p.name for p in boot_dir.rglob("*")) == ["stability.json"]
        assert run_cli(
            "bootstrap", "--densities", out, "--replicates", 2, "--components", 2,
            "--seed", 3, "--out", boot_dir, "--dump-replicates", boot_dir / "replicates",
        ) == 0
        assert (boot_dir / "replicates" / "replicate0_mean_missed.csv").exists()
        assert (boot_dir / "replicates" / "replicate1_eigenfunction_1_made.csv").exists()

        exp_dir = tmp_path / "exports"
        assert run_cli("export", "mean", "--model", out / "model.json", "--out", exp_dir) == 0
        assert run_cli("export", "eigenfunction", "--k", 1, "--model", out / "model.json", "--out", exp_dir) == 0
        assert run_cli(
            "export", "player", "--player", "m1", "--model", out / "model.json",
            "--densities", out, "--out", exp_dir,
        ) == 0
        assert run_cli(
            "export", "medoids", "--clusters", out / "clusters_equal.json",
            "--densities", out, "--out", exp_dir,
        ) == 0
        assert (exp_dir / "mean_missed.pgm").exists()
        assert (exp_dir / "eigenfunction_1_made.csv").exists()
        assert (exp_dir / "player_m1_component_2_made.csv").exists()
        assert (exp_dir / "medoid_equal_cluster1_missed.pgm").exists()

        assert run_cli(
            "mfpca", "reconstruct", "--model", out / "model.json", "--player", "m2",
            "--k", 1, "--out", exp_dir,
        ) == 0
        assert (exp_dir / "reconstruction_m2_k1_made.csv").exists()

    def test_bootstrap_rejects_a_reference_fitted_elsewhere(self, tmp_path, mini_csv, monkeypatch, capsys):
        from court_fda import cli

        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        fit = cli.fit_mfpca
        monkeypatch.setattr(cli, "fit_mfpca", lambda stack, **kw: fit(stack.take(range(len(stack))[::-1]), **kw))
        code = run_cli("bootstrap", "--densities", out, "--components", 2, "--out", tmp_path / "boot")
        assert code == 7  # bootstrap stage exit code
        assert "different players" in capsys.readouterr().err

    def test_unknown_player_errors(self, tmp_path, mini_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2)
        code = run_cli("mfpca", "reconstruct", "--model", out / "model.json", "--player", "nobody", "--out", out)
        assert code == 4  # mfpca stage exit code

    def test_variance_weights_need_model(self, tmp_path, mini_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2)
        code = run_cli("cluster", "--scores", out / "scores.csv", "--k", 2, "--weights", "variance", "--out", out)
        assert code == 5  # cluster stage exit code

    def test_export_eigenfunction_k_out_of_range(self, tmp_path, mini_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2)
        code = run_cli("export", "eigenfunction", "--k", 9, "--model", out / "model.json", "--out", out)
        assert code == 8  # export stage exit code

    def test_fit_defaults_to_four_components(self, tmp_path, fixture_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", fixture_csv, "--out", out)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        assert run_cli("mfpca", "fit", "--densities", out, "--out", out) == 0
        model = json.loads((out / "model.json").read_text())
        assert len(model["eigenvalues"]) == 4

    def test_fit_variance_threshold_mode(self, tmp_path, fixture_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", fixture_csv, "--out", out)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 21)
        assert run_cli("mfpca", "fit", "--densities", out, "--out", out, "--variance", 0.90) == 0
        model = json.loads((out / "model.json").read_text())
        ratios = model["variance_ratios"]
        assert sum(ratios) >= 0.90 - 1e-12
        assert sum(ratios[:-1]) < 0.90


class TestRunCommand:
    def test_manifest_and_outputs(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 21,
            "--components", 2, "--k", 2, "--replicates", 1, "--seed", 0,
        )
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        for name in CORE_FILES:
            assert name in manifest["files"], name
            assert (out / name).exists()
        assert manifest["summary"]["players_retained"] == 4

    def test_rerun_is_byte_identical(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        args = (
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 21,
            "--components", 2, "--k", 2, "--replicates", 1, "--seed", 7,
        )
        assert run_cli(*args) == 0
        first = (out / "run.json").read_bytes()
        first_scores = (out / "scores.csv").read_bytes()
        assert run_cli(*args) == 0
        assert (out / "run.json").read_bytes() == first
        assert (out / "scores.csv").read_bytes() == first_scores

    def test_config_file_with_flag_override(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        config = {
            "input": str(mini_csv), "out": str(out), "min_attempts": 100, "grid": 11,
            "components": 2, "clusters": 2, "bootstrap_replicates": 0, "seed": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("run", "--config", cfg_path, "--grid", 21) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["grid"] == 21
        assert manifest["config"]["min_attempts"] == 100
        assert "stability.json" not in manifest["files"]

    def test_variance_flag_overrides_component_count(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 11,
            "--variance", 0.99, "--k", 2, "--replicates", 0,
        )
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["components"] is None
        assert manifest["config"]["variance_threshold"] == 0.99

    def test_empty_input_exits_with_ingest_code(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("player_id,player_name,position,x_ft,y_ft,made,season\n")
        code = run_cli("run", "--input", empty, "--out", tmp_path / "o", "--replicates", 0)
        assert code == 2

    def test_failed_stage_removes_partial_outputs(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 11,
            "--components", 10, "--replicates", 0,
        )
        assert code == 4  # mfpca stage: 10 components from 4 players
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.csv"]  # no output, no staging directory

    def test_evaluate_matches_pipeline_silhouettes(self, tmp_path, fixture_csv):
        out = tmp_path / "run"
        assert run_cli("run", "--input", fixture_csv, "--out", out, "--grid", 21, "--replicates", 0) == 0
        pipeline_eval = json.loads((out / "evaluation.json").read_text())
        for scheme in ("equal", "variance"):
            eval_path = tmp_path / f"eval_{scheme}.json"
            assert run_cli(
                "evaluate", "--clusters", out / f"clusters_{scheme}.json", "--against", "nba",
                "--scores", out / "scores.csv", "--players", out / "players.json", "--out", eval_path,
            ) == 0
            standalone = json.loads(eval_path.read_text())
            assert standalone["silhouette"] == pipeline_eval["silhouettes"][scheme]
            assert standalone["comparison"] == pipeline_eval["comparisons"][f"{scheme}_vs_nba"]

    def test_dump_densities_flag(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 11,
            "--components", 2, "--k", 2, "--replicates", 0, "--dump-densities",
        )
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        dumps = [f for f in manifest["files"] if f.startswith("density_dumps/")]
        assert len(dumps) == 8  # 4 players x 2 components
        assert (out / "density_dumps" / "m3_made.csv").read_text().splitlines()[0] == "x,y,value"

    def test_single_scheme_run(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 21,
            "--components", 2, "--k", 2, "--replicates", 0, "--weights", "equal",
        )
        assert code == 0
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert sorted(evaluation["comparisons"]) == ["equal_vs_nba"]
        assert sorted(evaluation["silhouettes"]) == ["equal", "nba_on_equal_distance"]
        manifest = json.loads((out / "run.json").read_text())
        assert not any("variance" in f for f in manifest["files"])

    def test_threads_env_variable(self, tmp_path, mini_csv, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ("--input", mini_csv, "--min-attempts", 100, "--grid", 21, "--components", 2,
                "--k", 2, "--replicates", 0)
        monkeypatch.setenv("COURT_FDA_THREADS", "3")
        assert run_cli("run", "--out", out1, *args) == 0
        monkeypatch.delenv("COURT_FDA_THREADS")
        assert run_cli("run", "--out", out2, "--threads", 1, *args) == 0
        assert (out1 / "densities_missed.npy").read_bytes() == (out2 / "densities_missed.npy").read_bytes()
        m1 = json.loads((out1 / "run.json").read_text())
        m2 = json.loads((out2 / "run.json").read_text())
        assert m1["files"] == m2["files"]


class TestAtomicRun:
    ARGS = ("--min-attempts", 100, "--grid", 11, "--k", 2, "--replicates", 0)

    @staticmethod
    def snapshot(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_failed_rerun_keeps_the_previous_output(self, tmp_path, fixture_csv):
        out = tmp_path / "run"
        args = ("run", "--input", fixture_csv, "--out", out, "--grid", 11, "--replicates", 0)
        assert run_cli(*args) == 0
        before = self.snapshot(out)
        assert run_cli(*args, "--components", 12) == 4  # mfpca stage: 12 components from 12 players
        assert self.snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_successful_rerun_holds_only_its_listed_files(self, tmp_path, mini_csv):
        out = tmp_path / "run"
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 2, "--dump-densities") == 0
        assert (out / "density_dumps").is_dir()
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 1) == 0
        manifest = json.loads((out / "run.json").read_text())
        files = self.snapshot(out)
        assert sorted(files) == sorted([*manifest["files"], "run.json"])
        for name, digest in manifest["files"].items():
            assert hashlib.sha256(files[name]).hexdigest() == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.csv", "run"]

    def test_refuses_a_directory_that_is_not_a_run(self, tmp_path, mini_csv, capsys):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 2) == 1
        assert "holds no run.json" in capsys.readouterr().err
        assert self.snapshot(out) == {"notes.txt": b"keep me"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mine", "mini.csv"]

    def test_an_empty_directory_is_filled_with_plain_permissions(self, tmp_path, mini_csv):
        out, plain = tmp_path / "empty", tmp_path / "plain"
        out.mkdir(mode=0o700)
        plain.mkdir()
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 2) == 0
        assert (out / "run.json").is_file()
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.fixture
def work(tmp_path, mini_csv):
    """A stage-by-stage work directory up to an equal-weight clustering."""
    out = tmp_path / "work"
    assert run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100) == 0
    assert run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11) == 0
    assert run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2) == 0
    assert run_cli("cluster", "--scores", out / "scores.csv", "--k", 2, "--out", out) == 0
    return out


def evaluate_nba(work):
    return run_cli(
        "evaluate", "--clusters", work / "clusters_equal.json", "--against", "nba",
        "--scores", work / "scores.csv", "--players", work / "players.json",
    )


class TestLoaderErrors:
    @pytest.mark.parametrize("text, message", [
        ("", "header"),
        ("player,c1\nm1,1.0\n", "header"),
        ("player_id\nm1\n", "header"),
        ("player_id,c1,c3\nm1,1.0,2.0\n", "header"),
        ("player_id,c1,c2\n", "no score rows"),
        ("player_id,c1,c2\nm1,1.0,2.0\nm2,1.0\n", "line 3: 2 fields"),
        ("player_id,c1,c2\nm1,1.0,abc\n", "finite numbers"),
        ("player_id,c1,c2\nm1,1.0,nan\n", "finite numbers"),
        ("player_id,c1,c2\nm1,-inf,1.0\n", "finite numbers"),
        ("player_id,c1,c2\nm1,1.0,2.0\nm1,3.0,4.0\n", "'m1' is listed twice"),
    ])
    def test_malformed_scores(self, tmp_path, text, message):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(ScoresFileError, match=message):
            read_scores_csv(path)

    def test_scores_round_trip(self, tmp_path):
        scores = ScoreMatrix(["a", "b"], np.array([[0.1, -0.0], [1e-300, 2.5]]))
        write_scores_csv(scores, tmp_path / "scores.csv")
        loaded = read_scores_csv(tmp_path / "scores.csv")
        assert loaded.player_ids == scores.player_ids
        assert loaded.values.tobytes() == scores.values.tobytes()

    def test_bad_scores_exit_with_the_stage_code(self, work, capsys):
        path = work / "scores.csv"
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, "m1,nan,nan", *rest]) + "\n")
        assert run_cli("cluster", "--scores", path, "--k", 2, "--out", work) == 5
        assert evaluate_nba(work) == 6
        assert "finite numbers" in capsys.readouterr().err
        path.write_text(header + "\n")
        assert run_cli("cluster", "--scores", path, "--k", 2, "--out", work) == 5
        assert evaluate_nba(work) == 6
        assert "no score rows" in capsys.readouterr().err

    def edit_players(self, work, edit):
        path = work / "players.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    def test_a_scored_player_missing_from_players_json(self, work, capsys):
        self.edit_players(work, lambda doc: doc.pop(1))
        assert run_cli("cluster", "--scores", work / "scores.csv", "--players", work / "players.json",
                       "--k", 2, "--out", work) == 5
        assert evaluate_nba(work) == 6
        assert "player 'm2' is not in the file" in capsys.readouterr().err

    def test_a_missing_key(self, work, capsys):
        self.edit_players(work, lambda doc: doc[0].pop("position"))
        assert evaluate_nba(work) == 6
        assert "no key 'position'" in capsys.readouterr().err

    def test_a_non_finite_coordinate(self, work, tmp_path, capsys):
        self.edit_players(work, lambda doc: doc[2]["missed_points"][0].__setitem__(1, float("nan")))
        assert run_cli("density", "--players", work / "players.json", "--out", tmp_path / "d", "--grid", 11) == 3
        assert "player 'm3' missed_points holds a non-finite coordinate" in capsys.readouterr().err
        assert not (tmp_path / "d" / "densities_made.npy").exists()

    def test_ingest_exits_2_when_no_player_is_retained(self, tmp_path, mini_csv, capsys):
        out = tmp_path / "work"
        assert run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 1000) == 2
        assert "no player exceeds 1000 attempts" in capsys.readouterr().err
        assert not (out / "players.json").exists()


class TestBundledFixture:
    def test_golden_structure(self, tmp_path, fixture_csv):
        # file inventory generated once from a reference run and frozen
        out = tmp_path / "out"
        config = PipelineConfig(
            input=str(fixture_csv), out=str(out), grid=31, components=4,
            clusters=5, bootstrap_replicates=2, seed=0,
        )
        manifest = run_pipeline(config)
        files = sorted(manifest["files"])
        assert [f for f in files if not f.startswith("heatmaps/")] == CORE_FILES
        heat = [f for f in files if f.startswith("heatmaps/")]
        assert sum(f.startswith("heatmaps/bootstrap/") for f in heat) == 0
        assert sum("medoid_" in f for f in heat) == 40
        assert sum(f.startswith("heatmaps/eigenfunction_") for f in heat) == 16
        assert sum(f.startswith("heatmaps/mean_") for f in heat) == 4
        assert len(files) == 72

        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "player_id,c1,c2,c3,c4"
        assert len(scores) == 13
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert set(evaluation["comparisons"]) == {"equal_vs_nba", "variance_vs_nba", "equal_vs_variance"}
        assert set(evaluation["silhouettes"]) == {
            "equal", "variance", "nba_on_equal_distance", "nba_on_variance_distance",
        }
        for doc_name in ("clusters_equal.json", "clusters_variance.json"):
            doc = json.loads((out / doc_name).read_text())
            assert doc["k"] == 5 and len(doc["medoids"]) == 5
            labels = {p["cluster"] for p in doc["players"]}
            assert labels == set(range(5))

    def test_shared_medoid_charts_are_copied(self, tmp_path, fixture_csv, monkeypatch):
        from court_fda import export

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(args[2])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(export, "export_heatmap", counted(export.export_heatmap))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(input=str(fixture_csv), out=str(out), grid=31, bootstrap_replicates=0))
        monkeypatch.undo()
        equal = json.loads((out / "clusters_equal.json").read_text())["medoids"]
        variance = json.loads((out / "clusters_variance.json").read_text())["medoids"]
        shared = [(j, row) for j, row in enumerate(variance, start=1) if row in equal]
        assert [row for _, row in shared] == [2, 5, 8, 11]
        # mean 2 + eigenfunctions 8 + medoids 20, less the shared rows' 2 x 4 charts
        assert len(calls) == 30 - 2 * len(shared)
        stack = read_densities(out)
        for j, row in shared:
            for c, comp in enumerate(("missed", "made")):
                fresh = export_heatmap(stack.values[c, row], stack.grid, tmp_path / "fresh" / f"{j}_{comp}", mode="unit")
                copied = out / "heatmaps" / f"medoid_variance_cluster{j}_{comp}"
                for path, suffix in zip(fresh, (".csv", ".pgm")):
                    assert copied.with_suffix(suffix).read_bytes() == path.read_bytes()

    def test_stage_error_type(self, tmp_path, fixture_csv):
        config = PipelineConfig(
            input=str(fixture_csv), out=str(tmp_path / "o"), grid=11, components=12,
            clusters=5, bootstrap_replicates=0, seed=0,
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "mfpca"


class TestReadDensities:
    @pytest.fixture
    def density_dir(self, tmp_path):
        rng = np.random.default_rng(70)
        stack = DensityStack(["a", "b", "c"], GridSpec(5, 7), rng.uniform(size=(2, 3, 5, 7)))
        write_densities(tmp_path, stack)
        return tmp_path, stack

    def edit_meta(self, path, **changes):
        meta = json.loads((path / "densities_meta.json").read_text())
        meta.update(changes)
        (path / "densities_meta.json").write_text(json.dumps(meta))

    def test_round_trip(self, density_dir):
        path, stack = density_dir
        loaded = read_densities(path)
        assert loaded.player_ids == stack.player_ids and loaded.grid == stack.grid
        assert np.array_equal(loaded.values, stack.values)
        assert np.array_equal(np.load(path / "densities_made.npy"), stack.values[1])

    def test_wrong_player_count(self, density_dir):
        path, _ = density_dir
        self.edit_meta(path, player_ids=["a", "b"])
        with pytest.raises(DensityFileError, match=r"densities_missed.npy has shape \(3, 5, 7\)"):
            read_densities(path)

    def test_wrong_grid(self, density_dir):
        path, _ = density_dir
        self.edit_meta(path, grid={"nx": 7, "ny": 5})
        with pytest.raises(DensityFileError, match="descriptor lists"):
            read_densities(path)

    def test_missing_file(self, density_dir):
        path, _ = density_dir
        (path / "densities_made.npy").unlink()
        with pytest.raises(DensityFileError, match="densities_made.npy"):
            read_densities(path)

    def test_nan_value(self, density_dir):
        path, stack = density_dir
        made = stack.values[1].copy()
        made[2, 4, 6] = np.nan
        np.save(path / "densities_made.npy", made)
        with pytest.raises(DensityFileError, match="non-finite"):
            read_densities(path)

    def test_selected_rows(self, density_dir):
        path, stack = density_dir
        loaded = read_densities(path, ["c", "a"])
        assert loaded.player_ids == ["c", "a"] and loaded.grid == stack.grid
        assert np.array_equal(loaded.values, stack.values[:, [2, 0]])

    def test_selected_rows_checks(self, density_dir):
        path, stack = density_dir
        with pytest.raises(DensityFileError, match="'d' is not in the density set"):
            read_densities(path, ["a", "d"])
        made = stack.values[1].copy()
        made[2, 4, 6] = np.nan
        np.save(path / "densities_made.npy", made)
        assert np.array_equal(read_densities(path, ["b"]).values, stack.values[:, [1]])
        with pytest.raises(DensityFileError, match="non-finite"):
            read_densities(path, ["c"])
        self.edit_meta(path, player_ids=["a", "b"])
        with pytest.raises(DensityFileError, match=r"densities_missed.npy has shape \(3, 5, 7\)"):
            read_densities(path, ["a"])

    def test_errors_map_to_the_calling_stage(self, density_dir, tmp_path, capsys):
        path, stack = density_dir
        values = stack.values[0].copy()
        values[0, 0, 0] = np.inf
        np.save(path / "densities_missed.npy", values)
        assert run_cli("mfpca", "fit", "--densities", path, "--out", tmp_path / "fit", "--components", 1) == 4
        assert run_cli("bootstrap", "--densities", path, "--components", 1, "--out", tmp_path / "boot") == 7
        assert "non-finite" in capsys.readouterr().err


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(input="a.csv", out="o", grid=51, components=None,
                                variance_threshold=0.9, seed=3)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config.to_dict()))
        assert PipelineConfig.from_file(path) == config

    def test_rejects_double_selection(self):
        with pytest.raises(ValueError):
            PipelineConfig(input="a", components=4, variance_threshold=0.9)

    def test_threshold_only_config_clears_default_components(self):
        config = PipelineConfig.from_dict({"input": "a.csv", "variance_threshold": 0.85})
        assert config.components is None
        assert config.variance_threshold == 0.85

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"inputs": "a.csv"})

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            PipelineConfig(input="a", weight_scheme="all")
