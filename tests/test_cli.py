"""Command-line surface and pipeline orchestration."""

import hashlib
import importlib
import json
import os
import pkgutil
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import court_fda
from court_fda import bootstrap as bt
from court_fda import export, fda, ingest, native
from court_fda import pipeline as pl
from court_fda.cli import build_parser, main
from court_fda.density import DensityStack, build_samples
from court_fda.export import export_heatmap, write_heatmap_csv
from court_fda.fda import ScoreMatrix, fit_mfpca, gram_matrix, load_model, mean_function, reconstruct
from court_fda.grids import GridSpec
from court_fda.ingest import PlayerRecord, Position, filter_players, read_players_json
from court_fda.native import run_shares
from court_fda.pipeline import (
    DensityFileError,
    PipelineConfig,
    ScoresFileError,
    StageError,
    fit_and_save,
    read_densities,
    read_scores_csv,
    run_pipeline,
    write_densities,
    write_scores_csv,
)

from conftest import assert_no_child_left, take, values_of, write_mini_export

CORE_FILES = [
    "clusters_equal.json",
    "clusters_variance.json",
    "densities_made.npy",
    "densities_meta.json",
    "densities_missed.npy",
    "evaluation.json",
    "model.json",
    "model_functions.npy",
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

        assert run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 21) == 0
        assert (out / "densities_missed.npy").exists()

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
            "bootstrap", "--densities", out, "--replicates", 2,
            "--seed", 3, "--out", boot_dir,
        ) == 0
        assert sorted(p.name for p in boot_dir.rglob("*")) == ["stability.json"]
        assert run_cli(
            "bootstrap", "--densities", out, "--replicates", 2,
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
        assert run_cli("export", "densities", "--densities", out, "--out", exp_dir) == 0
        assert (exp_dir / "density_m1_missed.csv").exists()
        assert (exp_dir / "mean_missed.pgm").exists()
        assert (exp_dir / "eigenfunction_1_made.csv").exists()
        assert (exp_dir / "player_m1_component_2_made.csv").exists()
        assert (exp_dir / "medoid_equal_cluster1_missed.pgm").exists()

        assert run_cli(
            "mfpca", "reconstruct", "--model", out / "model.json", "--player", "m2",
            "--k", 1, "--out", exp_dir,
        ) == 0
        assert (exp_dir / "reconstruction_m2_k1_made.csv").exists()

    def test_chart_names_from_player_ids_stay_inside_out(self, tmp_path, mini_csv):
        mini_csv.write_text(mini_csv.read_text().replace("\nm1,", "\n../../../evil,"))
        work, figs = tmp_path / "work", tmp_path / "a" / "figs"
        assert run_cli("ingest", "--input", mini_csv, "--out", work, "--min-attempts", 100) == 0
        assert run_cli("density", "--players", work / "players.json", "--out", work, "--grid", 11) == 0
        assert run_cli("mfpca", "fit", "--densities", work, "--out", work, "--components", 2) == 0
        before = set(tmp_path.rglob("*"))
        model = ("--model", work / "model.json")
        for player in ("../../../evil", "m2"):
            assert run_cli("export", "player", "--player", player, *model, "--densities", work, "--out", figs) == 0
            assert run_cli("mfpca", "reconstruct", "--player", player, *model, "--k", 1, "--out", figs) == 0
        written = set(tmp_path.rglob("*")) - before
        assert written - {tmp_path / "a", figs} == {p for p in figs.iterdir() if p.is_file()}
        names = {p.name for p in figs.iterdir()}
        for player in ("_________evil", "m2"):
            assert {f"player_{player}_made.csv", f"reconstruction_{player}_k1_made.pgm"} <= names

    def test_density_dumps_whose_names_collide_are_refused(self, tmp_path, mini_csv, capsys):
        mini_csv.write_text(mini_csv.read_text().replace("\nm1,", "\na/b,").replace("\nm2,", "\na_b,"))
        work, dumps = tmp_path / "work", tmp_path / "dumps"
        assert run_cli("ingest", "--input", mini_csv, "--out", work, "--min-attempts", 100) == 0
        assert run_cli("density", "--players", work / "players.json", "--out", work, "--grid", 11) == 0
        assert run_cli("export", "densities", "--densities", work, "--out", dumps) == 8  # export stage exit code
        assert "players 'a/b' and 'a_b' would share the chart name a_b" in capsys.readouterr().err
        assert not dumps.exists()

    def test_charts_whose_names_collide_are_refused(self, tmp_path, mini_csv, capsys):
        mini_csv.write_text(mini_csv.read_text().replace("\nm1,", "\na/b,").replace("\nm2,", "\na_b,"))
        work, figs = tmp_path / "work", tmp_path / "figs"
        assert run_cli("ingest", "--input", mini_csv, "--out", work, "--min-attempts", 100) == 0
        assert run_cli("density", "--players", work / "players.json", "--out", work, "--grid", 11) == 0
        assert run_cli("mfpca", "fit", "--densities", work, "--out", work, "--components", 2) == 0
        model = ("--model", work / "model.json")
        for player, other in (("a/b", "a_b"), ("a_b", "a/b")):
            assert run_cli("export", "player", "--player", player, *model, "--densities", work, "--out", figs) == 8
            assert run_cli("mfpca", "reconstruct", "--player", player, *model, "--out", figs) == 4
            err = capsys.readouterr().err
            assert err.count(f"players {player!r} and {other!r} would share the chart name a_b") == 2
        assert not figs.exists()
        assert run_cli("export", "player", "--player", "m3", *model, "--densities", work, "--out", figs) == 0

    def test_cluster_accepts_one_cluster(self, work):
        assert run_cli("cluster", "--scores", work / "scores.csv", "--k", 1, "--out", work) == 0
        assert json.loads((work / "clusters_equal.json").read_text())["k"] == 1

    def test_bootstrap_rejects_a_reference_fitted_elsewhere(self, work, tmp_path, capsys):
        stack, other = read_densities(work), tmp_path / "reversed"
        other.mkdir()
        values = stack.rows(stack.player_ids[::-1])
        write_densities(other, stack.player_ids[::-1], stack.grid, lambda i: values[:, i])
        assert run_cli("mfpca", "fit", "--densities", other, "--out", other, "--components", 2) == 0
        code = run_cli("bootstrap", "--densities", work, "--model", other / "model.json", "--out", tmp_path / "boot")
        assert code == 7  # bootstrap stage exit code
        assert "different players" in capsys.readouterr().err
        assert not (tmp_path / "boot").exists()

    def test_bootstrap_without_a_fitted_model_leaves_no_out(self, tmp_path, mini_csv, capsys):
        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        assert run_cli("bootstrap", "--densities", out, "--out", tmp_path / "boot") == 7
        assert "model.json" in capsys.readouterr().err
        assert not (tmp_path / "boot").exists()

    def test_bootstrap_studies_the_fitted_component_count(self, tmp_path, fixture_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", fixture_csv, "--out", out)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        assert run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 3) == 0
        assert run_cli("bootstrap", "--densities", out, "--replicates", 2, "--out", tmp_path / "boot") == 0
        report = json.loads((tmp_path / "boot" / "stability.json").read_text())
        assert report["n_components"] == 3 and len(report["alignments"][0]) == 3

    def test_unknown_player_errors(self, tmp_path, mini_csv):
        out = tmp_path / "work"
        run_cli("ingest", "--input", mini_csv, "--out", out, "--min-attempts", 100)
        run_cli("density", "--players", out / "players.json", "--out", out, "--grid", 11)
        run_cli("mfpca", "fit", "--densities", out, "--out", out, "--components", 2)
        code = run_cli("mfpca", "reconstruct", "--model", out / "model.json", "--player", "nobody", "--out", out)
        assert code == 4  # mfpca stage exit code

    @pytest.mark.parametrize("k", [9, -1])
    def test_reconstruct_k_out_of_range(self, work, tmp_path, capsys, k):
        out = tmp_path / "recon"
        argv = ("mfpca", "reconstruct", "--model", work / "model.json", "--player", "m2", "--k", k, "--out", out)
        assert run_cli(*argv) == 4  # mfpca stage exit code
        assert "--k must be in [1, 2]" in capsys.readouterr().err
        assert not out.exists()

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
    SMALL = ("--min-attempts", 100, "--grid", 11, "--components", 2, "--k", 2, "--replicates", 0)

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

    def test_export_densities_writes_the_raw_fields_of_a_run(self, tmp_path, mini_csv):
        out, dumps, oracle = tmp_path / "run", tmp_path / "dumps", tmp_path / "oracle"
        code = run_cli(
            "run", "--input", mini_csv, "--out", out, "--min-attempts", 100, "--grid", 11,
            "--components", 2, "--k", 2, "--replicates", 0,
        )
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        assert sorted(manifest["files"]) == [f for f in CORE_FILES if f != "stability.json"]
        assert "dump_densities" not in manifest["config"]
        assert run_cli("export", "densities", "--densities", out, "--out", dumps) == 0
        stack = read_densities(out)
        values = values_of(stack)
        oracle.mkdir()
        for i, pid in enumerate(stack.player_ids):
            for c, comp in enumerate(("missed", "made")):
                write_heatmap_csv(values[c, i], stack.grid, oracle / f"density_{pid}_{comp}.csv")
        written = {p.name: p.read_bytes() for p in dumps.iterdir()}
        assert len(written) == 8  # 4 players x 2 components
        assert written == {p.name: p.read_bytes() for p in oracle.iterdir()}

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
        # COURT_FDA_THREADS sets no cap; run's cap is its flag or config, density's its flag; no cap changes a byte
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ("--input", mini_csv, "--min-attempts", 100, "--grid", 21, "--components", 2,
                "--k", 2, "--replicates", 0)
        seen = []

        def spy(work, shares, name):
            seen.append(shares)
            return run_shares(work, shares, name)

        monkeypatch.setattr(pl, "run_shares", spy)
        monkeypatch.setattr(native, "available_cores", lambda: 3)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)  # four players: room for up to four workers
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 2}))
        monkeypatch.setenv("COURT_FDA_THREADS", "1")
        assert run_cli("run", "--out", out1, *args) == 0
        assert run_cli("run", "--config", config, "--out", out2, *args) == 0
        assert seen == [3, 2, 2, 2]  # each run: the KDE's shares, then players.json beside the fit
        assert (out1 / "densities_missed.npy").read_bytes() == (out2 / "densities_missed.npy").read_bytes()
        m1 = json.loads((out1 / "run.json").read_text())
        m2 = json.loads((out2 / "run.json").read_text())
        assert m1["files"] == m2["files"]
        assert "threads" not in m1["config"]  # a worker count that changes no byte is not echoed

        assert run_cli("density", "--players", out1 / "players.json", "--out", tmp_path / "d", "--grid", 11) == 0
        assert run_cli("density", "--players", out1 / "players.json", "--out", tmp_path / "e", "--grid", 11,
                       "--threads", 1) == 0
        assert seen[4:] == [3, 1]


    def test_shot_points_are_freed_before_the_fit(self, tmp_path, mini_csv, monkeypatch):
        # the rosters and the position partition need no points; the fit should not sit on top of them
        seen = {}

        def filter_spy(*args, **kwargs):
            records = filter_players(*args, **kwargs)
            seen["points"] = weakref.ref(records[0].made_points.base)
            return records

        def fit_spy(*args, **kwargs):
            seen["alive_at_fit"] = seen["points"]() is not None
            return fit_and_save(*args, **kwargs)

        monkeypatch.setattr(pl, "filter_players", filter_spy)
        monkeypatch.setattr(pl, "fit_and_save", fit_spy)
        run_pipeline(PipelineConfig(input=str(mini_csv), out=str(tmp_path / "run"), min_attempts=100, grid=21,
                                    components=2, clusters=2, bootstrap_replicates=0))
        assert seen["alive_at_fit"] is False
        rosters = (tmp_path / "run" / "roster_equal.txt").read_text()
        assert all(f"Player m{i}" in rosters for i in range(1, 5))

    def test_players_json_is_written_beside_the_fit(self, tmp_path, mini_csv, monkeypatch):
        # a forked share writes players.json and hashes it and the density arrays while the caller fits
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(native, "available_cores", lambda: 2)
        hashed = []
        sha256 = pl._sha256
        monkeypatch.setattr(pl, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
        out = tmp_path / "run"
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.SMALL) == 0
        assert len(forks) == 1  # four players make one KDE share; the side share is the one fork
        assert_no_child_left()
        assert sorted(hashed) == sorted(set(CORE_FILES) - {"players.json", "densities_missed.npy",
                                                            "densities_made.npy", "stability.json"})
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["files"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                     for p in sorted(out.iterdir()) if p.name != "run.json"}

    def test_one_share_forks_nothing(self, tmp_path, mini_csv, monkeypatch):
        # --threads 1: players.json is written before the fit, in the caller, with the same bytes
        assert run_cli("run", "--input", mini_csv, "--out", tmp_path / "forked", *self.SMALL) == 0

        def no_fork():
            raise OSError("fork is not allowed here")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "run"
        assert run_cli("run", "--input", mini_csv, "--out", out, "--threads", 1, *self.SMALL) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"} == {
            p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir() if p.name != "run.json"}
        assert (json.loads((out / "run.json").read_text())["files"]
                == json.loads((tmp_path / "forked" / "run.json").read_text())["files"])

    def test_a_cap_of_1_forks_no_stage(self, tmp_path, monkeypatch):
        # a CSV over 1 MiB is worth two parse processes, and its 28,000 shots two KDE workers on the
        # 201 x 201 grid: with fork refused, run fails at the parse and density at the KDE unless capped
        shots = write_mini_export(tmp_path / "big.csv", n_per_player=7000)
        assert shots.stat().st_size > 1 << 20
        monkeypatch.setattr(native, "available_cores", lambda: 2)

        def no_fork():
            raise OSError("fork is not allowed here")

        monkeypatch.setattr(os, "fork", no_fork)
        run = ("run", "--input", shots, "--out", tmp_path / "run", *self.SMALL)
        assert run_cli(*run) == 2
        assert run_cli(*run, "--threads", 1) == 0
        density = ("density", "--players", tmp_path / "run" / "players.json", "--out", tmp_path / "d")
        assert run_cli(*density) == 3
        assert run_cli(*density, "--threads", 1) == 0

    def test_the_cap_bounds_every_forked_stage_and_changes_no_byte(self, tmp_path, mini_csv, monkeypatch):
        # on three cores with every floor at 1, cap c gives the parse and the KDE c shares each, and
        # players.json a share of its own from cap 2; every file is the same bytes at each cap
        shares = []

        def spy(work, count, name):
            shares.append((name, count))
            return run_shares(work, count, name)

        monkeypatch.setattr(native, "available_cores", lambda: 3)
        monkeypatch.setattr(ingest, "_BYTES_PER_WORKER", 1)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)
        for module in (ingest, pl):
            monkeypatch.setattr(module, "run_shares", spy)
        written = []
        for cap in (1, 2, 3):
            shares.clear()
            out = tmp_path / f"cap{cap}"
            assert run_cli("run", "--input", mini_csv, "--out", out, "--threads", cap, *self.SMALL) == 0
            assert shares == [("parse", cap), ("density", cap)] + [("players.json", 2)] * (cap > 1), cap
            written.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"})
            written[-1]["run.json files"] = json.loads((out / "run.json").read_text())["files"]
        assert written[0] == written[1] == written[2]

    def test_a_failing_players_json_share_is_the_ingest_stage(self, tmp_path, mini_csv, monkeypatch, capsys):
        # the writer fails in the forked share: exit 2, the child reaped, no --out and no staging directory
        monkeypatch.setattr(native, "available_cores", lambda: 2)

        def failing(records, path):
            Path(path).write_text("[", encoding="utf-8")  # cut short
            raise OSError("players.json write failed")

        monkeypatch.setattr(pl, "write_players_json", failing)
        assert run_cli("run", "--input", mini_csv, "--out", tmp_path / "run", *self.SMALL) == 2
        assert "error: ingest stage failed: players.json write failed" in capsys.readouterr().err
        assert_no_child_left()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.csv"]

    def test_a_failing_fit_reaps_the_players_json_share(self, tmp_path, mini_csv, monkeypatch, capsys):
        shares = []

        def spy(work, count, name):
            shares.append((name, count))
            return run_shares(work, count, name)

        monkeypatch.setattr(native, "available_cores", lambda: 2)
        monkeypatch.setattr(pl, "run_shares", spy)
        assert run_cli("run", "--input", mini_csv, "--out", tmp_path / "run", "--min-attempts", 100, "--grid", 11,
                       "--components", 10, "--replicates", 0) == 4  # mfpca: 10 components from 4 players
        assert shares[-1] == ("players.json", 2)
        assert "mfpca stage failed" in capsys.readouterr().err
        assert_no_child_left()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.csv"]

    def test_run_builds_the_gram_matrix_once(self, tmp_path, mini_csv, monkeypatch):
        # the fit's Gram matrix serves the bootstrap too; only --dump-replicates refits
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return gram_matrix(*args, **kwargs)

        for module in (pl, fda, bt):
            monkeypatch.setattr(module, "gram_matrix", spy)
        run_pipeline(PipelineConfig(input=str(mini_csv), out=str(tmp_path / "run"), min_attempts=100, grid=21,
                                    components=2, clusters=2, bootstrap_replicates=3))
        assert len(calls) == 1

    def test_run_takes_the_stack_mean_once(self, tmp_path, mini_csv, monkeypatch):
        # the fit gets the mean the shared Gram matrix was built from
        calls = []

        def spy(stack):
            calls.append(len(stack))
            return mean_function(stack)

        for module in (pl, fda):
            monkeypatch.setattr(module, "mean_function", spy)
        run_pipeline(PipelineConfig(input=str(mini_csv), out=str(tmp_path / "run"), min_attempts=100, grid=21,
                                    components=2, clusters=2, bootstrap_replicates=3))
        assert calls == [4]

    def test_a_closed_stdout_does_not_fail_a_finished_run(self, tmp_path, fixture_csv):
        out = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=str(Path(court_fda.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "court_fda.cli", "run", "--input", str(fixture_csv), "--out", str(out),
                "--grid", "21", "--replicates", "1"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env)
        proc.stdout.close()  # the reader is gone before the closing status line
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 0, err
        assert err == ""  # no traceback, no "Exception ignored" line from the exit-time flush
        files = json.loads((out / "run.json").read_text())["files"]
        assert sorted(files) == CORE_FILES

    @pytest.mark.parametrize("players, cores, cap, workers", [
        (12, 8, None, 1),  # under one worker's floor: one worker however many cores
        (64, 8, None, 2),
        (173, 8, None, 5),
        (173, 2, None, 2),
        (173, 8, 3, 3),
        (173, 1, 4, 1),
    ])
    def test_density_workers_follow_cores_players_and_cap(self, tmp_path, monkeypatch, players, cores, cap, workers):
        seen = []

        def spy(work, shares, name):
            seen.append(shares)
            return run_shares(work, shares, name)

        monkeypatch.setattr(pl, "run_shares", spy)
        monkeypatch.setattr(native, "available_cores", lambda: cores)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 32 * 10 * 25)  # a worker per 32 players' shot-nodes
        rng = np.random.default_rng(0)
        records = [PlayerRecord(f"p{i}", f"Player {i}", Position.GUARD, rng.uniform(size=(5, 2)),
                                rng.uniform(size=(5, 2))) for i in range(players)]
        pl.estimate_densities(records, GridSpec(5, 5), cap, tmp_path)
        assert seen == [workers]

    @pytest.mark.parametrize("shots, workers, bounds", [
        ([300, 100, 100, 100], 2, [0, 1, 4]),  # the first player alone is half the work
        ([100, 100, 100, 100, 100, 500], 2, [0, 5, 6]),
        ([100] * 6, 3, [0, 2, 4, 6]),
    ])
    def test_density_workers_get_about_equal_shot_counts(self, tmp_path, monkeypatch, shots, workers, bounds):
        seen, write = [], pl.write_densities
        monkeypatch.setattr(pl, "write_densities", lambda *args: seen.append(args[-1]) or write(*args))
        monkeypatch.setattr(native, "available_cores", lambda: workers)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)
        rng = np.random.default_rng(1)
        records = [PlayerRecord(f"p{i}", f"Player {i}", Position.GUARD, rng.uniform(size=(n // 2, 2)),
                                rng.uniform(size=(n - n // 2, 2))) for i, n in enumerate(shots)]
        pl.estimate_densities(records, GridSpec(5, 5), None, tmp_path)
        assert seen == [bounds]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["ingest"],
        ["cluster", "--scores", "scores.csv", "--k", "notanint"],
        ["export", "mean"],
        ["export", "eigenfunction", "--model", "model.json"],
        ["export", "player", "--player", "m1"],
        ["export", "medoids", "--densities", "work"],
        ["export", "densities"],
        ["density", "--players", "players.json", "--dump-densities", "dumps"],
        ["run", "--input", "shots.csv", "--dump-densities"],
    ])
    def test_a_usage_error_exits_1_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv, "--out", out)
        assert stop.value.code == 1
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["density", "--threads", "0"], "argument --threads: must be a positive integer, got '0'",
                     id="density-flag-0"),
        pytest.param(["run", "--threads", "0"], "argument --threads: must be a positive integer, got '0'",
                     id="run-flag-0"),
    ])
    def test_a_worker_cap_must_be_a_positive_integer(self, tmp_path, capsys, argv, message):
        # the missing input would fail the stage itself (exit 2 or 3); the cap is refused first
        source = {"density": "--players", "run": "--input"}[argv[0]]
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv, source, tmp_path / "missing", "--out", tmp_path / "out")
        assert stop.value.code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_every_readme_command_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("court-fda ")]
        assert {line.split()[1] for line in commands} == {"run", *pl.STAGES}
        for line in commands:
            try:
                build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


    def test_every_readme_module_name_resolves(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        modules = {m.name for m in pkgutil.iter_modules(court_fda.__path__)}
        names = [(m, attr) for m, attr in re.findall(r"`(\w+)\.(\w+)", readme) if m in modules]
        assert len(names) >= 8
        missing = [f"{m}.{attr}" for m, attr in names if not hasattr(importlib.import_module(f"court_fda.{m}"), attr)]
        assert missing == []

    def test_stage_defaults_are_the_config_defaults(self):
        config, parser = PipelineConfig(), build_parser()
        stages = {
            ("ingest", "--input", "x.csv"): {"min_attempts": "min_attempts", "court_width": "court_width",
                                             "court_depth": "court_depth"},
            ("density", "--players", "players.json"): {"grid": "grid"},
            ("mfpca", "fit", "--densities", "work"): {"components": "components"},
            ("cluster", "--scores", "scores.csv"): {"k": "clusters"},
            ("bootstrap", "--densities", "work"): {"replicates": "bootstrap_replicates", "seed": "seed"},
        }
        for argv, fields in stages.items():
            args = parser.parse_args([*argv, "--out", "o"])
            for flag, field in fields.items():
                assert getattr(args, flag) == getattr(config, field), (argv[0], flag)


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
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 2, "--replicates", 1) == 0
        assert (out / "stability.json").is_file()
        assert run_cli("run", "--input", mini_csv, "--out", out, *self.ARGS, "--components", 1) == 0
        assert not (out / "stability.json").exists()
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
        ("player_id,c1,c2\nm1,1.0,2.0\nm2,1.0,2.0", "line 3: no line end; the file is cut short"),
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

    def test_an_undecodable_byte_exits_2_naming_its_line(self, tmp_path, fixture_csv, capsys):
        # the 0.7 MB fixture is parsed as one byte range; its byte 500,023 is on line 11128
        data = bytearray(fixture_csv.read_bytes())
        data[500_023] = 0xFF
        bad = tmp_path / "bad.csv"
        bad.write_bytes(bytes(data))
        assert run_cli("ingest", "--input", bad, "--out", tmp_path / "work") == 2
        assert capsys.readouterr().err == "error: row 11128: 'utf-8' codec can't decode byte 0xff: invalid start byte\n"

    def test_a_bad_row_piped_to_ingest_is_located(self, tmp_path):
        # a pipe is read once: the bad row's line must come from that one read
        text = "player_id,player_name,position,x_ft,y_ft,made,season\np1,A,guard,1,2,1,s\np1,A,pivot,1,2,1,s\n"
        env = dict(os.environ, PYTHONPATH=str(Path(court_fda.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "court_fda.cli", "ingest", "--input", "/dev/stdin", "--out", str(tmp_path / "o")]
        proc = subprocess.run(argv, input=text, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, "error: row 3: unknown position label 'pivot'\n")
        assert not (tmp_path / "o").exists()

    def test_an_undecodable_byte_piped_to_ingest_is_located(self, tmp_path, fixture_csv):
        # the byte's line comes from the one read of the pipe: the lines the reader took and the failed input
        data = b"".join(fixture_csv.read_bytes().splitlines(keepends=True)[:5]) + b"p9,Name \xff,guard,1.0,2.0,1,2019\n"
        env = dict(os.environ, PYTHONPATH=str(Path(court_fda.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "court_fda.cli", "ingest", "--input", "/dev/stdin", "--out", str(tmp_path / "o")]
        proc = subprocess.run(argv, input=data, capture_output=True, cwd=tmp_path, env=env, timeout=120)
        want = "error: row 6: 'utf-8' codec can't decode byte 0xff: invalid start byte\n"
        assert (proc.returncode, proc.stderr.decode()) == (2, want)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("row", [0, 3])
    def test_a_non_finite_density_exits_with_the_reading_stage_code(self, work, tmp_path, capsys, row):
        made = np.load(work / "densities_made.npy")
        made[row, 5, 4] = np.nan
        np.save(work / "densities_made.npy", made)
        for argv, code in (
            (["mfpca", "fit", "--densities", work, "--components", 2], 4),
            (["mfpca", "scores", "--model", work / "model.json", "--densities", work], 4),
            (["bootstrap", "--densities", work, "--replicates", 2], 7),
        ):
            assert run_cli(*argv, "--out", tmp_path / "new") == code, argv
            err = capsys.readouterr().err
            assert err == f"error: density directory {work}: densities_made.npy holds a non-finite value\n", argv
            assert not (tmp_path / "new").exists(), argv

    @pytest.mark.parametrize("argv, code", [
        (lambda work: ["ingest", "--input", work.parent / "mini.csv", "--min-attempts", 100000], 2),
        (lambda work: ["mfpca", "fit", "--densities", work, "--components", 12], 4),
        (lambda work: ["cluster", "--scores", work / "scores.csv", "--k", 9], 5),
    ])
    def test_a_failed_stage_leaves_no_out(self, work, tmp_path, argv, code):
        assert run_cli(*argv(work), "--out", tmp_path / "new") == code
        assert not (tmp_path / "new").exists()

    def test_scores_on_another_grid_leave_no_out(self, work, tmp_path):
        assert run_cli("density", "--players", work / "players.json", "--out", tmp_path / "d21", "--grid", 21) == 0
        assert run_cli("mfpca", "scores", "--model", work / "model.json", "--densities", tmp_path / "d21",
                       "--out", tmp_path / "new") == 4
        assert not (tmp_path / "new").exists()

    def test_a_player_chart_on_another_grid_leaves_no_out(self, work, tmp_path, capsys):
        assert run_cli("density", "--players", work / "players.json", "--out", tmp_path / "d21", "--grid", 21) == 0
        assert run_cli("export", "player", "--player", "m1", "--model", work / "model.json",
                       "--densities", tmp_path / "d21", "--out", tmp_path / "new") == 8
        err = capsys.readouterr().err
        assert "the densities lie on GridSpec(nx=21, ny=21), the model on GridSpec(nx=11, ny=11)" in err
        assert not (tmp_path / "new").exists()

    @staticmethod
    def edit_functions(work, edit):
        path = work / "model_functions.npy"
        np.save(path, edit(np.load(path)))

    def test_a_non_finite_mean_exits_4(self, work, tmp_path, capsys):
        def nan_mean(functions):
            functions[0, 1, 5, 5] = np.nan
            return functions

        self.edit_functions(work, nan_mean)
        scored = tmp_path / "scored"
        assert run_cli("mfpca", "scores", "--model", work / "model.json", "--densities", work, "--out", scored) == 4
        assert "model_functions.npy holds a non-finite value" in capsys.readouterr().err
        assert not (scored / "scores.csv").exists()

    def test_a_missing_function_array_exits_5(self, work, capsys):
        (work / "model_functions.npy").unlink()
        assert run_cli("cluster", "--scores", work / "scores.csv", "--k", 2, "--weights", "variance",
                       "--model", work / "model.json", "--out", work) == 5
        assert "model_functions.npy" in capsys.readouterr().err
        assert not (work / "clusters_variance.json").exists()

    def test_a_misshapen_function_array_exits_8(self, work, tmp_path, capsys):
        self.edit_functions(work, lambda functions: functions[:, :, :-1])
        assert run_cli("export", "mean", "--model", work / "model.json", "--out", tmp_path / "figs") == 8
        assert "expected numbers of shape (3, 2, 11, 11)" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "not a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "medoid_player_ids"}, "no key 'medoid_player_ids'"),
        (lambda doc: {**doc, "players": [{"player_id": "m1"}, *doc["players"][1:]]}, "a player has no key 'cluster'"),
        (lambda doc: {**doc, "players": [{**p, "cluster": "a"} for p in doc["players"]]}, "cluster label 'a'"),
        (lambda doc: {**doc, "players": [{**p, "cluster": True} for p in doc["players"]]}, "cluster label True"),
        (lambda doc: {**doc, "players": [{**p, "cluster": -1} for p in doc["players"]]}, "cluster label -1"),
        (lambda doc: {**doc, "medoid_player_ids": ["nobody"]}, "medoid 'nobody' is not among the players"),
        (lambda doc: {**doc, "weights": [-1, 1]}, "weights [-1, 1] are not finite non-negative numbers"),
        (lambda doc: {**doc, "weights": [0, 0]}, "weights [0, 0] are not finite non-negative numbers, not all zero"),
        (lambda doc: {**doc, "weights": [float("nan")] * 2}, "weights [nan, nan] are not finite"),
        (lambda doc: {**doc, "weights": [True, True]}, "weights [True, True] are not finite"),
        (lambda doc: {**doc, "weights": [10**400, 1]}, "weights [1" + "0" * 9),
        (lambda doc: {**doc, "weights": "0.5,0.5"}, "weights '0.5,0.5' are not finite"),
        (lambda doc: {**doc, "scheme": "x/../../../escaped"}, "scheme 'x/../../../escaped' is not 'equal' or"),
        (lambda doc: {**doc, "scheme": 5}, "scheme 5 is not 'equal' or 'variance'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "medoids"}, "no key 'medoids'"),
        (lambda doc: {**doc, "players": [*doc["players"][:-1], {**doc["players"][-1], "player_id": "m1"}]},
         "player 'm1' is listed twice"),
        (lambda doc: {**doc, "total_cost": float("inf")}, "total_cost inf is not a finite non-negative number"),
        (lambda doc: {**doc, "total_cost": "1.5"}, "total_cost '1.5' is not a finite non-negative number"),
        # two medoids are never one player, so at least one of these indices names the wrong player
        (lambda doc: {**doc, "medoids": [1, 1]}, "medoids [1, 1] are not the indices of the medoids"),
        (lambda doc: {**doc, "medoids": [0, 99]}, "medoids [0, 99] are not the indices"),
        (lambda doc: {**doc, "medoids": [0]}, "medoids [0] are not the indices"),
        (lambda doc: {**doc, "k": 9}, "k 9 is not the number of medoids, 2"),
        (lambda doc: {**doc, "k": True}, "k True is not the number of medoids"),
        (lambda doc: {k: v for k, v in doc.items() if k != "k"}, "no key 'k'"),
        (lambda doc: {**doc, "players": [{**p, "is_medoid": not p["is_medoid"]} for p in doc["players"]]},
         "player 'm1' has is_medoid True, but medoids are ["),
        (lambda doc: {**doc, "players": [{**p, "is_medoid": int(p["is_medoid"])} for p in doc["players"]]},
         "player 'm1' has is_medoid 0, but medoids"),
        (lambda doc: {**doc, "players": [{**p, "cluster": 1 - p["cluster"]} for p in doc["players"]]},
         "medoid 0 ("),
        (lambda doc: {**doc, "players": [{**p, "cluster": p["cluster"] + 5 * (not p["is_medoid"])}
                                         for p in doc["players"]]}, "cluster label 5 is not below k, 2"),
    ])
    def test_a_malformed_clustering_document(self, work, tmp_path, capsys, edit, message):
        good, bad = work / "clusters_equal.json", tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(good.read_text()))))
        scores = ("--scores", work / "scores.csv", "--players", work / "players.json")
        assert run_cli("evaluate", "--clusters", bad, "--against", "nba", *scores) == 6
        assert run_cli("evaluate", "--clusters", good, "--against", bad, *scores) == 6
        assert run_cli("export", "medoids", "--clusters", bad, "--densities", work, "--out", tmp_path / "figs") == 8
        assert capsys.readouterr().err.count(f"clustering document {bad}: {message}") == 3
        assert not (tmp_path / "figs").exists()

    def test_a_weight_per_score_column(self, work, tmp_path, capsys):
        doc = json.loads((work / "clusters_equal.json").read_text())
        (tmp_path / "one.json").write_text(json.dumps({**doc, "weights": [1.0]}))
        assert run_cli("evaluate", "--clusters", tmp_path / "one.json", "--against", "nba",
                       "--scores", work / "scores.csv", "--players", work / "players.json") == 6
        assert "the clustering has 1 weights for 2 score columns" in capsys.readouterr().err


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
        assert files == CORE_FILES and len(files) == 13
        assert not (out / "heatmaps").exists()

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

    def test_readme_exports_draw_the_charts_of_a_run(self, tmp_path, fixture_csv):
        run_dir = tmp_path / "fixture"
        run_pipeline(PipelineConfig(input=str(fixture_csv), out=str(run_dir), grid=31, bootstrap_replicates=0))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = re.findall(r"^court-fda export .*out/fixture\b.*$", readme, re.M)
        assert len(lines) == 7
        for line in lines:
            assert main(shlex.split(line.replace("out/fixture", str(run_dir)))[1:]) == 0
        charts = sorted(tmp_path.glob("fixture-charts/*"))
        names = [p.name for p in charts]
        assert len(names) == 60
        assert sum(n.startswith("mean_") for n in names) == 4
        assert sum(n.startswith("eigenfunction_") for n in names) == 16
        assert sum(n.startswith("medoid_") for n in names) == 40
        equal = json.loads((run_dir / "clusters_equal.json").read_text())["medoids"]
        variance = json.loads((run_dir / "clusters_variance.json").read_text())["medoids"]
        shared = [(equal.index(row) + 1, j, row) for j, row in enumerate(variance, start=1) if row in equal]
        assert [row for *_, row in shared] == [2, 5, 8, 11]
        figs = tmp_path / "fixture-charts"
        for i, j, _ in shared:
            for name in ("missed.csv", "missed.pgm", "made.csv", "made.pgm"):
                drawn = (figs / f"medoid_variance_cluster{j}_{name}").read_bytes()
                assert drawn == (figs / f"medoid_equal_cluster{i}_{name}").read_bytes()

    def test_stage_error_type(self, tmp_path, fixture_csv):
        config = PipelineConfig(
            input=str(fixture_csv), out=str(tmp_path / "o"), grid=11, components=12,
            clusters=5, bootstrap_replicates=0, seed=0,
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "mfpca"


class TestChartOracle:
    """Each chart producer writes ``export_heatmap`` of each component of its field, under the documented names."""

    @staticmethod
    def draw(root, charts):
        """``charts`` maps a base name to ``(field, mode)``; each ``(2, nx, ny)`` field is drawn per component."""
        root.mkdir()
        for base, (field, mode) in charts.items():
            for comp, values in zip(("missed", "made"), field):
                export_heatmap(values, GridSpec(*values.shape), root / f"{base}_{comp}", mode=mode)
        return {p.name: p.read_bytes() for p in root.iterdir()}

    @staticmethod
    def readme_patterns():
        """Each kind of README's ``export`` table with one file-name regex per pattern it lists."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| `export` kind |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        subs = {"{missed,made}": "(missed|made)", "*": "(missed|made)", "{j}": r"\d+", "{id}": "m1",
                "{scheme}": "equal"}
        patterns = {}
        for row in table:
            kind, names = row.strip("| ").split(" | ")
            patterns[kind.strip("`").split()[0]] = [
                "".join(subs.get(part, re.escape(part)) for part in re.split(r"(\{[^}]*\}|\*)", name)) + r"\.(csv|pgm)"
                for name in re.findall(r"`([^`]+)`", names)
            ]
        return patterns

    def test_every_chart_is_export_heatmap_of_its_field(self, work, tmp_path):
        model, stack = load_model(work / "model.json"), read_densities(work)
        doc = json.loads((work / "clusters_equal.json").read_text())
        density = {pid: values_of(stack)[:, i] for i, pid in enumerate(stack.player_ids)}
        scores = dict(zip(model.scores.player_ids, model.scores.values))
        model_args = ("--model", work / "model.json")
        producers = {
            "mean": (["export", "mean", *model_args], {"mean": (model.mean, "symmetric")}),
            "player": (
                ["export", "player", "--player", "m1", *model_args, "--densities", work],
                {"player_m1": (density["m1"], "unit"), "player_m1_mean": (model.mean, "symmetric"),
                 **{f"player_m1_component_{j}": (s * phi, "symmetric")
                    for j, (s, phi) in enumerate(zip(scores["m1"], model.eigenfunctions), start=1)}},
            ),
            "medoids": (
                ["export", "medoids", "--clusters", work / "clusters_equal.json", "--densities", work],
                {f"medoid_equal_cluster{j}": (density[pid], "unit")
                 for j, pid in enumerate(doc["medoid_player_ids"], start=1)},
            ),
            "reconstruct": (
                ["mfpca", "reconstruct", *model_args, "--player", "m2", "--k", 1],
                {"reconstruction_m2_k1": (reconstruct(scores["m2"][:1], model), "unit")},
            ),
        }
        for k, phi in enumerate(model.eigenfunctions, start=1):
            producers[f"eigenfunction{k}"] = (["export", "eigenfunction", "--k", k, *model_args],
                                              {f"eigenfunction_{k}": (phi, "symmetric")})
        patterns = self.readme_patterns()
        assert sorted(patterns) == ["eigenfunction", "mean", "medoids", "player"]
        for name, (argv, charts) in producers.items():
            assert run_cli(*argv, "--out", tmp_path / name) == 0
            written = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            assert written == self.draw(tmp_path / f"{name}_oracle", charts), name
            kind = name.rstrip("0123456789")
            if kind in patterns:
                for regex in patterns[kind]:
                    assert any(re.fullmatch(regex, n) for n in written), (kind, regex)
                for n in written:
                    assert any(re.fullmatch(regex, n) for regex in patterns[kind]), (kind, n)

    def test_every_replicate_chart_is_export_heatmap_of_its_refit(self, work, tmp_path):
        stack, dump = read_densities(work), tmp_path / "replicates"
        assert run_cli("bootstrap", "--densities", work, "--replicates", 3, "--seed", 1, "--out", tmp_path / "boot",
                       "--dump-replicates", dump) == 0
        ranks = json.loads((tmp_path / "boot" / "stability.json").read_text())["achieved_ranks"]
        charts = {}
        for r, rank in enumerate(ranks):
            refit = fit_mfpca(take(stack, bt.resample_indices(len(stack), bt.stream_seed(1, r))), n_components=rank)
            charts[f"replicate{r}_mean"] = (refit.mean, "symmetric")
            for j, phi in enumerate(refit.eigenfunctions, start=1):
                charts[f"replicate{r}_eigenfunction_{j}"] = (phi, "symmetric")
        # the charts come from the study's eigenpairs, the oracle from a refit: equal up to the last digits
        oracle, written = self.draw(tmp_path / "oracle", charts), {p.name: p.read_bytes() for p in dump.iterdir()}
        assert sorted(written) == sorted(oracle)
        for name, data in written.items():
            if name.endswith(".csv"):
                ours, theirs = (np.loadtxt(text.decode().splitlines()[1:], delimiter=",")
                                for text in (data, oracle[name]))
                assert data.startswith(b"x,y,value\n") and np.array_equal(ours[:, :2], theirs[:, :2]), name
                np.testing.assert_allclose(ours[:, 2], theirs[:, 2], rtol=0, atol=1e-12, err_msg=name)
            else:
                (head, ours), (oracle_head, theirs) = (text.split(b"\n255\n", 1) for text in (data, oracle[name]))
                assert head == oracle_head and len(ours) == len(theirs), name
                gray = np.frombuffer(ours, np.uint8).astype(int) - np.frombuffer(theirs, np.uint8)
                assert np.max(np.abs(gray)) <= 1, name


class TestChartWorkers:
    """Every chart command writes the same bytes over any number of forked chart workers, and reaps them all."""

    @staticmethod
    def commands(work, out):
        """Each chart command's argv writing into ``out``, with its component count."""
        model = ("--model", work / "model.json")
        return {
            "mean": (["export", "mean", *model, "--out", out], 2),
            "eigenfunction": (["export", "eigenfunction", "--k", 2, *model, "--out", out], 2),
            "player": (["export", "player", "--player", "m1", *model, "--densities", work, "--out", out], 8),
            "medoids": (["export", "medoids", "--clusters", work / "clusters_equal.json", "--densities", work,
                         "--out", out], 4),
            "densities": (["export", "densities", "--densities", work, "--out", out], 8),
            "reconstruct": (["mfpca", "reconstruct", *model, "--player", "m2", "--k", 2, "--out", out], 2),
            "replicates": (["bootstrap", "--densities", work, "--replicates", 2, "--seed", 1, "--out", out / "boot",
                            "--dump-replicates", out], 6),  # a mean and two eigenfunctions per replicate call
        }

    def test_the_bytes_do_not_depend_on_the_worker_count(self, work, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "_NODES_PER_WORKER", 1)  # fork for the 11 x 11 charts too
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        written = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(native, "available_cores", lambda: cores)
            for name in self.commands(work, tmp_path):
                out = tmp_path / f"{cores}" / name
                argv, components = self.commands(work, out)[name]
                forks.clear()
                assert run_cli(*argv) == 0, (name, cores)
                calls = 2 if name == "replicates" else 1
                assert len(forks) == calls * (min(cores, components) - 1), (name, cores)
                assert_no_child_left()
                written.setdefault(name, []).append(
                    {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        for name, runs in written.items():
            assert runs[0] and runs[0] == runs[1] == runs[2], name

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_a_failing_chart_gives_the_one_worker_message(self, work, tmp_path, monkeypatch, capsys, cores):
        # the second medoid's made density is chart 3: the last of worker 1's run at two workers, of worker 2's at three
        monkeypatch.setattr(export, "_NODES_PER_WORKER", 1)
        monkeypatch.setattr(native, "available_cores", lambda: cores)
        rows = DensityStack.rows

        def planted(self, player_ids):
            fields = rows(self, player_ids)
            fields[1, 1, 5, 5] = np.nan
            return fields

        monkeypatch.setattr(DensityStack, "rows", planted)
        argv, _ = self.commands(work, tmp_path / "out")["medoids"]
        assert run_cli(*argv) == 8
        assert capsys.readouterr().err == "error: field contains non-finite values\n"
        assert_no_child_left()


class TestWriteDensities:
    @pytest.mark.parametrize("shares, fork", [(1, True), (2, True), (3, True), (3, False)],
                             ids=["1", "2", "3", "3 without fork"])
    def test_shares_write_the_bytes_of_one_array(self, work, tmp_path, monkeypatch, shares, fork):
        # the header np.save writes for all rows, then each share's rows at their offsets: the files do not
        # depend on the share count, nor on whether the shares run in forked processes or one after another
        counts = []
        monkeypatch.setattr(native, "available_cores", lambda: 3)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)
        monkeypatch.setattr(pl, "run_shares", lambda *args: counts.append(args[1]) or run_shares(*args))
        if not fork:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / "shared"
        assert run_cli("density", "--players", work / "players.json", "--out", out, "--grid", 11,
                       "--threads", shares) == 0
        assert counts == [shares]
        stack = read_densities(work)
        for comp, values in zip(("missed", "made"), values_of(stack)):
            whole = tmp_path / f"{comp}.npy"
            np.save(whole, values)
            assert (out / f"densities_{comp}.npy").read_bytes() == whole.read_bytes() == \
                (work / f"densities_{comp}.npy").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["densities_made.npy", "densities_meta.json",
                                                         "densities_missed.npy"]
        assert_no_child_left()

    def test_a_failed_rewrite_leaves_a_set_the_loader_refuses(self, work, monkeypatch, capsys):
        # the KDE fails on the last player, in the second share, after the first share wrote its rows: the earlier
        # set's descriptor is gone and its arrays are untouched, so the next stage exits with the loader's code
        before = {p.name: p.read_bytes() for p in work.iterdir()}

        def failing(records, grid):
            if records[-1].player_id == "m4":
                raise ValueError("the last player failed")
            return build_samples(records, grid)

        monkeypatch.setattr(pl, "build_samples", failing)
        monkeypatch.setattr(native, "available_cores", lambda: 2)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)
        assert run_cli("density", "--players", work / "players.json", "--out", work, "--grid", 11) == 3
        assert "the last player failed" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in work.iterdir()}
        assert sorted(after) == sorted(set(before) - {"densities_meta.json"})
        assert all(after[name] == before[name] for name in after)
        assert run_cli("mfpca", "fit", "--densities", work, "--out", work / "new", "--components", 2) == 4
        assert "densities_meta.json" in capsys.readouterr().err
        assert not (work / "new").exists()

    def test_a_worker_that_ends_without_reporting_leaves_no_file(self, work, tmp_path, monkeypatch):
        # share 1's process exits in the KDE: its share fails by name, and the caller leaves neither a
        # temporary array nor a descriptor behind
        parent = os.getpid()

        def dying(records, grid):
            if os.getpid() != parent:
                os._exit(3)
            return build_samples(records, grid)

        monkeypatch.setattr(pl, "build_samples", dying)
        monkeypatch.setattr(native, "available_cores", lambda: 2)
        monkeypatch.setattr(pl, "_SHOT_NODES_PER_WORKER", 1)
        records = read_players_json(work / "players.json")
        with pytest.raises(ChildProcessError, match="^density worker 1 ended with wait status 768 before reporting$"):
            pl.estimate_densities(records, GridSpec(11, 11), None, tmp_path / "d")
        assert_no_child_left()
        assert list((tmp_path / "d").iterdir()) == []

    def test_the_kde_holds_one_player_at_a_time(self, tmp_path):
        # on the 801 x 801 grid a player's field pair outweighs the KDE's own buffers (0.82 of one), so the
        # parent, estimating every player as one share, stays under two pairs only if it holds one at a time
        rng = np.random.default_rng(71)
        records = [PlayerRecord(f"p{i}", f"Player {i}", Position.GUARD, rng.uniform(size=(40, 2)),
                                rng.uniform(size=(40, 2))) for i in range(3)]
        grid = GridSpec(801, 801)
        pair_bytes = 2 * grid.nx * grid.ny * 8
        tracemalloc.start()
        try:
            stack = pl.estimate_densities(records, grid, 1, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stack) == 3 and (tmp_path / "densities_made.npy").stat().st_size > 3 * pair_bytes // 2
        assert peak < 2 * pair_bytes

    def test_a_pair_off_the_grid_is_refused(self, tmp_path):
        values = np.ones((2, 3, 5, 4))
        with pytest.raises(ValueError, match=r"^a density pair of float64 \(2, 5, 4\) does not lie on GridSpec"):
            write_densities(tmp_path, ["a", "b", "c"], GridSpec(5, 5), lambda i: values[:, i])
        assert list(tmp_path.iterdir()) == []


class TestFitAndSave:
    @pytest.mark.parametrize("module, name", [(pl, "write_scores_csv"), (np, "save"), (fda, "write_json")],
                             ids=["scores", "array", "document"])
    def test_a_failed_refit_leaves_a_model_the_loaders_refuse(self, work, tmp_path, monkeypatch, capsys, module, name):
        # a refit into a directory that holds a complete fit fails at one of its three writes: the earlier
        # model.json is gone and no temporary file is left, so the model's readers exit with their loader's
        # code instead of pairing the earlier document with this fit's files
        def failing(*args, **kwargs):
            raise OSError(f"{name} failed")

        before = {p.name for p in work.iterdir()}
        monkeypatch.setattr(module, name, failing)
        assert run_cli("mfpca", "fit", "--densities", work, "--out", work, "--components", 3) == 4
        monkeypatch.undo()
        assert f"{name} failed" in capsys.readouterr().err
        assert {p.name for p in work.iterdir()} == before - {"model.json"}
        assert run_cli("export", "mean", "--model", work / "model.json", "--out", tmp_path / "mean") == 8
        assert run_cli("mfpca", "scores", "--model", work / "model.json", "--densities", work,
                       "--out", tmp_path / "scores") == 4
        err = capsys.readouterr().err
        assert err.count("No such file") == 2 and "Traceback" not in err
        assert not (tmp_path / "mean").exists() and not (tmp_path / "scores").exists()

    def test_a_refit_replaces_every_file(self, work, tmp_path):
        assert run_cli("mfpca", "fit", "--densities", work, "--out", work, "--components", 3) == 0
        assert run_cli("mfpca", "fit", "--densities", work, "--out", tmp_path / "fresh", "--components", 3) == 0
        for name in ("model.json", "model_functions.npy", "scores.csv"):
            assert (work / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
        assert not [p.name for p in work.iterdir() if p.name.startswith(".")]


class TestStageWrites:
    def test_a_failed_roster_write_leaves_no_clustering_document(self, work, monkeypatch, capsys):
        # a reclustering into a directory that holds an earlier clustering and roster fails at the roster:
        # the earlier document is gone, the earlier roster is whole and no temporary file is left, so the
        # next evaluate exits with its loader's code instead of reading the earlier clustering
        assert run_cli("cluster", "--scores", work / "scores.csv", "--k", 3, "--players", work / "players.json",
                       "--out", work) == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        write_text = Path.write_text

        def failing(self, *args, **kwargs):
            if self.name.startswith(".roster_equal.txt."):
                raise OSError("roster write failed")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        assert run_cli("cluster", "--scores", work / "scores.csv", "--k", 2, "--players", work / "players.json",
                       "--out", work) == 5
        monkeypatch.undo()
        assert "roster write failed" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in work.iterdir()}
        assert sorted(after) == sorted(set(before) - {"clusters_equal.json"})
        assert after["roster_equal.txt"] == before["roster_equal.txt"]
        assert evaluate_nba(work) == 6
        assert "No such file" in capsys.readouterr().err

    def test_a_failed_rescore_keeps_the_earlier_scores(self, work, monkeypatch, capsys):
        before = (work / "scores.csv").read_bytes()

        def failing(scores, path):
            Path(path).write_text("player_id,c1\n", encoding="utf-8")  # cut short
            raise OSError("scores write failed")

        monkeypatch.setattr(pl, "write_scores_csv", failing)
        assert run_cli("mfpca", "scores", "--model", work / "model.json", "--densities", work, "--out", work) == 4
        assert "scores write failed" in capsys.readouterr().err
        assert (work / "scores.csv").read_bytes() == before
        assert not [p.name for p in work.iterdir() if p.name.startswith(".")]


class TestReadDensities:
    @pytest.fixture
    def density_dir(self, tmp_path):
        rng = np.random.default_rng(70)
        values = rng.uniform(size=(2, 3, 5, 7))
        write_densities(tmp_path, ["a", "b", "c"], GridSpec(5, 7), lambda i: values[:, i])
        return tmp_path, values

    def edit_meta(self, path, **changes):
        meta = json.loads((path / "densities_meta.json").read_text())
        meta.update(changes)
        (path / "densities_meta.json").write_text(json.dumps(meta))

    def test_round_trip(self, density_dir):
        path, values = density_dir
        loaded = read_densities(path)
        assert loaded.player_ids == ["a", "b", "c"] and loaded.grid == GridSpec(5, 7)
        assert np.array_equal(values_of(loaded), values)
        assert np.array_equal(np.load(path / "densities_made.npy"), values[1])

    def test_wrong_player_count(self, density_dir):
        path, _ = density_dir
        self.edit_meta(path, player_ids=["a", "b"])
        with pytest.raises(DensityFileError, match=r"densities_missed.npy has shape \(3, 5, 7\)"):
            read_densities(path)

    def test_wrong_grid(self, density_dir):
        path, _ = density_dir
        self.edit_meta(path, grid={"nx": 7, "ny": 5})
        with pytest.raises(DensityFileError, match=r"has shape \(3, 5, 7\), expected numbers of shape \(3, 7, 5\)"):
            read_densities(path)

    def test_missing_file(self, density_dir):
        path, _ = density_dir
        (path / "densities_made.npy").unlink()
        with pytest.raises(DensityFileError, match="densities_made.npy"):
            read_densities(path)

    def test_nan_value(self, density_dir):
        # the stack holds no field: a non-finite value is refused by the read that meets it
        path, values = density_dir
        made = values[1].copy()
        made[2, 4, 6] = np.nan
        np.save(path / "densities_made.npy", made)
        stack = read_densities(path)
        for read in (mean_function, values_of, lambda stack: list(stack.blocks(4))):
            with pytest.raises(DensityFileError, match="densities_made.npy holds a non-finite value"):
                read(stack)

    @pytest.mark.parametrize("dtype", [np.float32, bool])
    def test_array_that_is_not_float64(self, density_dir, dtype):
        path, values = density_dir
        np.save(path / "densities_made.npy", values[1].astype(dtype))
        with pytest.raises(DensityFileError, match=f"densities_made.npy holds {np.dtype(dtype)}, not float64"):
            read_densities(path)

    @pytest.mark.parametrize("player_ids", [None, ["a"]])
    def test_truncated_file(self, density_dir, player_ids):
        # a file cut short is refused even when the rows asked for lie before the cut
        path, _ = density_dir
        data = (path / "densities_made.npy").read_bytes()
        (path / "densities_made.npy").write_bytes(data[:-8])
        with pytest.raises(DensityFileError, match="densities_made.npy is shorter than its header says"):
            stack = read_densities(path)
            stack.rows(player_ids or stack.player_ids)

    def test_fortran_order_array(self, density_dir):
        path, values = density_dir
        np.save(path / "densities_made.npy", np.asfortranarray(values[1]))
        with pytest.raises(DensityFileError, match="densities_made.npy is stored in Fortran order"):
            read_densities(path)

    def test_repeated_player(self, density_dir):
        path, _ = density_dir
        self.edit_meta(path, player_ids=["a", "b", "a"])
        with pytest.raises(DensityFileError, match="player 'a' is listed twice"):
            read_densities(path)

    def test_selected_rows(self, density_dir):
        path, values = density_dir
        assert np.array_equal(read_densities(path).rows(["c", "a"]), values[:, [2, 0]])

    def test_selected_rows_checks(self, density_dir):
        path, values = density_dir
        with pytest.raises(DensityFileError, match="'d' is not in the density set"):
            read_densities(path).rows(["a", "d"])
        made = values[1].copy()
        made[2, 4, 6] = np.nan
        np.save(path / "densities_made.npy", made)
        assert np.array_equal(read_densities(path).rows(["b"]), values[:, [1]])
        with pytest.raises(DensityFileError, match="non-finite"):
            read_densities(path).rows(["c"])
        self.edit_meta(path, player_ids=["a", "b"])
        with pytest.raises(DensityFileError, match=r"densities_missed.npy has shape \(3, 5, 7\)"):
            read_densities(path)

    def test_an_empty_set_reads_as_empty_blocks(self, tmp_path):
        write_densities(tmp_path, [], GridSpec(5, 7), lambda i: np.empty((2, 5, 7)))
        stack = read_densities(tmp_path)
        assert [(c, cols, block.shape) for c, cols, block in stack.blocks(20)] == \
            [(c, slice(lo, lo + 20), (0, min(20, 35 - lo))) for c in (0, 1) for lo in (0, 20)]
        assert stack.rows([]).shape == (2, 0, 5, 7)

    def test_errors_map_to_the_calling_stage(self, density_dir, tmp_path, capsys):
        path, values = density_dir
        values = values[0].copy()
        values[0, 0, 0] = np.inf
        np.save(path / "densities_missed.npy", values)
        assert run_cli("mfpca", "fit", "--densities", path, "--out", tmp_path / "fit", "--components", 1) == 4
        assert run_cli("bootstrap", "--densities", path, "--out", tmp_path / "boot") == 7
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

    def test_run_refuses_a_config_that_sets_dump_densities(self, tmp_path, mini_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dump_densities": True}))
        assert run_cli("run", "--config", config, "--input", mini_csv, "--out", tmp_path / "o") == 1
        assert "unknown config keys: ['dump_densities']" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "mini.csv"]

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            PipelineConfig(input="a", weight_scheme="all")

    @pytest.mark.parametrize("key, value", [
        ("grid", "x"), ("grid", True), ("seed", 1.5), ("components", "4"), ("variance_threshold", "0.9"),
        ("court_width", None), ("input", None),
    ])
    def test_rejects_a_value_of_the_wrong_type(self, tmp_path, mini_csv, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert run_cli("run", "--config", config, "--input", mini_csv, "--out", tmp_path / "o") == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "mini.csv"]

    def test_run_refuses_fewer_than_two_clusters_before_any_stage(self, tmp_path, capsys):
        # a missing input would fail ingest with exit 2; the config is refused first
        assert run_cli("run", "--input", tmp_path / "missing.csv", "--out", tmp_path / "o", "--k", 1) == 1
        assert "config key 'clusters' must be at least 2, got 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (("--components", 0), "config key 'components' must be at least 1, got 0"),
        (("--variance", 0), "config key 'variance_threshold' must be in (0, 1], got 0"),
        (("--variance", 1.5), "config key 'variance_threshold' must be in (0, 1], got 1.5"),
    ])
    def test_run_refuses_an_out_of_range_value_before_any_stage(self, tmp_path, capsys, flags, message):
        # a missing input would fail ingest with exit 2; the config is refused first
        assert run_cli("run", "--input", tmp_path / "missing.csv", "--out", tmp_path / "o", *flags) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_refuses_a_config_threads_below_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 0}))
        assert run_cli("run", "--config", config, "--input", tmp_path / "missing.csv", "--out", tmp_path / "o") == 1
        assert "config key 'threads' must be at least 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_accepts_an_int_for_a_float_field(self):
        config = PipelineConfig(input="a.csv", court_width=50, components=None, variance_threshold=1)
        assert (config.court_width, config.variance_threshold) == (50, 1)
