"""The benchmark's trace hooks (perfbench/spans.py) name functions that the package binds and calls."""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from court_fda import native
from court_fda.cli import main
from court_fda.density import DensityStack

from conftest import write_mini_export

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKER = SPANS.with_name("worker.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    missing = [f"{m}.{attr}" for m, attr, *_ in spans.WRAPS if not hasattr(importlib.import_module(m), attr)]
    assert missing == []


def test_a_traced_run_records_every_stage(spans, tmp_path, monkeypatch):
    recorder = spans.Recorder("test")
    for module_name, attr, name, count in spans.WRAPS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
    # forked chart workers record their spans in their own copy of the recorder: draw every chart here
    monkeypatch.setattr(native, "available_cores", lambda: 1)
    mini = write_mini_export(tmp_path / "mini.csv")
    args = ["--min-attempts", "100", "--grid", "11", "--components", "2", "--k", "2", "--replicates", "1"]
    assert main(["run", "--input", str(mini), "--out", str(tmp_path / "run"), *args]) == 0
    assert main(["export", "mean", "--model", f"{tmp_path}/run/model.json", "--out", str(tmp_path / "figs")]) == 0
    work = str(tmp_path / "work")
    assert main(["ingest", "--input", str(mini), "--out", work, "--min-attempts", "100"]) == 0
    assert main(["density", "--players", f"{work}/players.json", "--out", work, "--grid", "11"]) == 0
    assert main(["export", "densities", "--densities", work, "--out", str(tmp_path / "dumps")]) == 0
    names = [span["name"] for span in recorder.spans]
    for name in ("ingest.load_events", "ingest.filter_players",
                 "ingest.write_players_json", "ingest.read_players_json", "density.build_samples",
                 "pipeline.write_densities", "fda.fit_mfpca", "fda.save_model", "pipeline.write_scores_csv",
                 "cluster.kmedoids", "metrics.silhouette", "bootstrap.stability_study",
                 "export.export_heatmap", "export.write_heatmap_csv", "export.write_heatmap_pgm"):
        assert name in names, name
    # the run and the ingest subcommand each parse the export once, and group its in-bounds rows through a
    # mask, without a table of them
    assert names.count("ingest.load_events") == names.count("ingest.filter_players") == 2
    assert "ingest.exclude_impossible" not in names
    # export mean writes two tables through export_heatmap, export densities eight straight
    assert names.count("export.write_heatmap_csv") == 2 + 8


def test_the_stage_chain_fits_the_model_once(spans, tmp_path, monkeypatch):
    # bootstrap reads the model that mfpca fit wrote instead of fitting its own, and draws its
    # replicate charts from its own eigenpairs without reading any player's fields whole
    recorder = spans.Recorder("test")
    for module_name, attr, name, count in spans.WRAPS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
    work = str(tmp_path / "work")
    assert main(["ingest", "--input", str(write_mini_export(tmp_path / "mini.csv")), "--out", work,
                 "--min-attempts", "100"]) == 0
    assert main(["density", "--players", f"{work}/players.json", "--out", work, "--grid", "11"]) == 0
    assert main(["mfpca", "fit", "--densities", work, "--out", work, "--components", "2"]) == 0
    rows_read = []
    monkeypatch.setattr(DensityStack, "rows", lambda self, player_ids: rows_read.append(player_ids))
    assert main(["bootstrap", "--densities", work, "--replicates", "2", "--out", str(tmp_path / "boot"),
                 "--dump-replicates", str(tmp_path / "charts")]) == 0
    names = [span["name"] for span in recorder.spans]
    assert names.count("fda.fit_mfpca") == 1
    assert names.count("bootstrap.stability_study") == 1 and "bootstrap.refit" not in names
    assert names.count("bootstrap.dump") == 2 and rows_read == []


def run_worker(tmp_path, *mode) -> dict:
    """One benchmark worker process, as perfbench/run.py starts it; returns its report."""
    report = tmp_path / "report.json"
    argv = [sys.executable, str(WORKER), str(report), repr(time.monotonic()), *map(str, mode)]
    assert subprocess.run(argv, cwd=tmp_path, timeout=300).returncode == 0
    return json.loads(report.read_text(encoding="utf-8"))


def test_the_benchmark_probe_reads_the_default_config(tmp_path):
    # the probe reads PipelineConfig().threads; without it every benchmark run fails at its first probe
    report = run_worker(tmp_path, "--probe")
    assert {"setup_s", "threads", "blas_threads"} <= set(report)


def test_the_benchmark_worker_runs_the_pipeline(tmp_path, fixture_csv):
    report = run_worker(tmp_path, "--run", "--", "run", "--input", fixture_csv, "--out", tmp_path / "run", "--grid", 21)
    assert report["exit"] == 0
    assert (tmp_path / "run" / "run.json").exists()
