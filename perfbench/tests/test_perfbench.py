"""Tests of the benchmark's input generator and output check."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402

FIXTURE = ROOT / "src" / "court_fda" / "data" / "fixture_shots.csv"
SMALL = gen.InputSpec(players=4, min_shots=1050, max_shots=1200)


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = gen.write_export(ROOT, SMALL, 3, tmp_path / "a.csv")
    again = gen.write_export(ROOT, SMALL, 3, tmp_path / "b.csv")
    gen.write_export(ROOT, SMALL, 4, tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()
    assert first == again == gen.count_export(tmp_path / "a.csv")
    assert first.rows == 1050 + 1100 + 1150 + 1200
    assert first.players == 4 and first.in_bounds <= first.rows


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    from court_fda.pipeline import PipelineConfig, run_pipeline

    out = tmp_path_factory.mktemp("run")
    run_pipeline(PipelineConfig(input=str(FIXTURE), out=str(out), grid=21, seed=1))
    return out


@pytest.fixture()
def copy(run_dir, tmp_path) -> Path:
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    return out


def _expected() -> dict:
    counts = gen.count_export(FIXTURE)
    return {"rows": counts.rows, "in_bounds": counts.in_bounds, "players": counts.players}


def _edit(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_check_accepts_an_unchanged_run(run_dir):
    summary = check.summarize("run", run_dir)
    assert check.invariant_errors(summary, _expected()) == []
    assert check.reference_errors(summary, check.reference_of(summary)) == []


def test_check_rejects_a_medoid_swapped_within_its_cluster(run_dir, copy):
    reference = check.reference_of(check.summarize("run", run_dir))

    def swap(doc):
        labels = [p["cluster"] for p in doc["players"]]
        j = next(j for j in range(doc["k"]) if labels.count(j) > 1)
        old = doc["medoids"][j]
        new = next(i for i, label in enumerate(labels) if label == j and i != old)
        doc["medoids"][j] = new
        doc["medoid_player_ids"][j] = doc["players"][new]["player_id"]
        doc["players"][old]["is_medoid"], doc["players"][new]["is_medoid"] = False, True

    _edit(copy / "clusters_equal.json", swap)
    summary = check.summarize("run", copy)
    assert check.invariant_errors(summary, _expected()) == []
    assert check.reference_errors(summary, reference) == ["clusterings differ from the reference"]


def test_check_rejects_medoids_swapped_between_clusters(copy):
    def swap(doc):
        doc["medoids"][:2] = doc["medoids"][1::-1]
        doc["medoid_player_ids"][:2] = doc["medoid_player_ids"][1::-1]

    _edit(copy / "clusters_variance.json", swap)
    errors = check.invariant_errors(check.summarize("run", copy), _expected())
    assert any("lies outside" in e for e in errors)


def test_check_rejects_a_variance_ratio_perturbed_by_1e_6(run_dir, copy):
    reference = check.reference_of(check.summarize("run", run_dir))

    def perturb(doc):
        doc["summary"]["variance_ratios"][1] += 1e-6

    _edit(copy / "run.json", perturb)
    summary = check.summarize("run", copy)
    assert check.invariant_errors(summary, _expected()) == []
    errors = check.reference_errors(summary, reference)
    assert len(errors) == 1 and errors[0].startswith("variance_ratios[1]")
