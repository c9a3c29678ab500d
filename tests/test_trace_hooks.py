"""The benchmark's trace hooks (perfbench/spans.py) name functions that the package binds and calls."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from court_fda.cli import main

from conftest import write_mini_export

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    mini = write_mini_export(tmp_path / "mini.csv")
    args = ["--min-attempts", "100", "--grid", "11", "--components", "2", "--k", "2", "--replicates", "1"]
    assert main(["run", "--input", str(mini), "--out", str(tmp_path / "run"), *args]) == 0
    work = str(tmp_path / "work")
    assert main(["ingest", "--input", str(mini), "--out", work, "--min-attempts", "100"]) == 0
    assert main(["density", "--players", f"{work}/players.json", "--out", work, "--grid", "11",
                 "--dump-densities", f"{work}/dumps"]) == 0
    names = [span["name"] for span in recorder.spans]
    for name in ("ingest.load_events", "ingest.exclude_impossible", "ingest.filter_players",
                 "ingest.write_players_json", "ingest.read_players_json", "density.build_samples",
                 "pipeline.write_densities", "fda.fit_mfpca", "fda.save_model", "pipeline.write_scores_csv",
                 "cluster.kmedoids", "metrics.silhouette", "bootstrap.stability_study",
                 "export.export_heatmap", "export.write_heatmap_csv", "export.write_heatmap_pgm"):
        assert name in names, name
    # the run and the ingest subcommand each parse the export once
    assert names.count("ingest.load_events") == 2
