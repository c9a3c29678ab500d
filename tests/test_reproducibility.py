"""The same bytes at any BLAS thread count and any density worker count, and runs without the native helpers."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from court_fda import native
from court_fda.cli import main

from conftest import write_mini_export

SRC = Path(__file__).resolve().parents[1] / "src"

# Two cores give --threads 2 two workers for every stage that forks, on any host.
RUN = """import sys
from court_fda import cli, native
native.available_cores = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def run_fixture(fixture_csv, out, blas_threads, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", RUN, "run", "--input", str(fixture_csv), "--out", str(out),
            "--seed", "1", "--threads", str(threads)]
    assert subprocess.run(argv, env=env, capture_output=True, timeout=300).returncode == 0
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    manifest = json.loads(files.pop("run.json"))
    del manifest["config"]["out"]
    return files, manifest


def test_outputs_do_not_depend_on_blas_or_worker_threads(tmp_path, fixture_csv):
    assert native.pin_blas_single_thread()  # a pin that finds no OpenBLAS would leave the matrix untested
    runs = {
        (blas, workers): run_fixture(fixture_csv, tmp_path / f"blas{blas}_workers{workers}", blas, workers)
        for blas, workers in itertools.product((1, 2), (1, 2))
    }
    reference_files, reference_manifest = runs[1, 1]
    assert len(reference_files) == 13
    for key, (files, manifest) in runs.items():
        assert sorted(files) == sorted(reference_files), key
        assert [name for name in files if files[name] != reference_files[name]] == [], key
        assert manifest == reference_manifest, key


def test_a_run_without_the_native_helpers(tmp_path, monkeypatch):
    # another BLAS build, or a C library without malloc_trim: the helpers do nothing and say so
    monkeypatch.setattr(native, "_symbol", lambda library, name: None)
    assert native.pin_blas_single_thread() is False
    assert native.trim_heap() is False
    mini = write_mini_export(tmp_path / "mini.csv")
    args = ["--min-attempts", "100", "--grid", "11", "--components", "2", "--k", "2", "--replicates", "1"]
    assert main(["run", "--input", str(mini), "--out", str(tmp_path / "run"), *args]) == 0
    assert (tmp_path / "run" / "run.json").is_file()
