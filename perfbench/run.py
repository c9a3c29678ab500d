"""Benchmark of the court-fda batch pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 30 --trace 0

Each iteration of a workload runs court-fda in fresh worker processes
(``perfbench/worker.py``) with the program's defaults (``threads=1``,
BLAS at its own default), one process at a time. Iterations repeat,
at least ``MIN_ITERATIONS`` times, while the next one is expected to end
within ``--seconds``. Every iteration's outputs are parsed and checked
(``perfbench/check.py``), and so is the agreement of two iterations of one
run; inputs are generated from the seed before any timing starts
(``perfbench/gen.py``).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the iterations. With ``--trace 1`` one untraced and one traced iteration
run, and the result holds the per-layer metrics of the traced one
(``perfbench/spans.py``) plus the tracing overhead. The last line of
standard output is the JSON result; a fuller record with the
environment, input sizes and spans goes to
``out/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import check
import gen
import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"
FIXTURE = ROOT / "src" / "court_fda" / "data" / "fixture_shots.csv"
GRID = 201

# Why each workload exists; BENCHMARK.json repeats these in short.
WORKLOADS = {
    "fixture": "court-fda run on the bundled 12-player fixture: about 85% of the time writes "
               "heatmap CSV/PGM files, so an export change shows and an ingest or KDE change must not",
    "paper": "court-fda run on a 173-player, ~718k-row synthetic the size of the paper's export: "
             "time spreads over ingest, players.json, KDE, the fit, the bootstrap and exports",
    "staged": "the README's stage-by-stage CLI chain, 16 processes on a 48-player synthetic: the "
              "only workload that reads its own outputs back and pays import per subcommand",
}
END_TO_END = {"run_s": "s", "shots_per_s": "shots/s", "peak_rss_mb": "MB", "setup_s": "s", "output_mb": "MB"}
# The fixture's iterations are short, so each of its runs takes the median
# of at least three; a run of two or more iterations also compares their outputs.
MIN_ITERATIONS = {"fixture": 3, "paper": 1, "staged": 1}
PROBES = 5
TIME_LIMIT_S = 170.0
MB = float(1 << 20)


def staged_chain(inp: Path, out: Path) -> list[list[str]]:
    """The README's stage-by-stage chain; ``out`` gets work/, boot/ and figs/."""
    work, boot, figs = out / "work", out / "boot", out / "figs"
    w = str(work)
    model, dens, scores, players = f"{w}/model.json", w, f"{w}/scores.csv", f"{w}/players.json"
    chain = [
        ["ingest", "--input", str(inp), "--out", w],
        ["density", "--players", players, "--out", w],
        ["mfpca", "fit", "--densities", dens, "--out", w],
        ["mfpca", "scores", "--model", model, "--densities", dens, "--out", w],
        ["cluster", "--scores", scores, "--weights", "equal", "--players", players, "--out", w],
        ["cluster", "--scores", scores, "--weights", "variance", "--model", model, "--players", players,
         "--out", w],
        ["evaluate", "--clusters", f"{w}/clusters_variance.json", "--against", "nba", "--scores", scores,
         "--players", players, "--out", f"{w}/evaluation.json"],
        ["evaluate", "--clusters", f"{w}/clusters_variance.json", "--against", f"{w}/clusters_equal.json",
         "--scores", scores, "--out", f"{w}/evaluation_vs_equal.json"],
        ["bootstrap", "--densities", dens, "--replicates", "5", "--out", str(boot)],
        ["export", "mean", "--model", model, "--out", str(figs)],
    ]
    chain += [["export", "eigenfunction", "--k", str(k), "--model", model, "--out", str(figs)] for k in (1, 2, 3, 4)]
    chain += [
        ["export", "player", "--player", "s000", "--model", model, "--densities", dens, "--out", str(figs)],
        ["export", "medoids", "--clusters", f"{w}/clusters_equal.json", "--densities", dens, "--out", str(figs)],
    ]
    return chain


class WorkerFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.work = ROOT / "out" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "COURT_FDA_THREADS"}
        self.spawned = 0

    def spawn(self, mode: list[str], cli_argv: list[str] | None = None) -> dict:
        """Run one worker process to completion and return its report."""
        self.spawned += 1
        report = self.work / "reports" / f"{self.spawned}.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        args = [sys.executable, str(BENCH / "worker.py"), str(report)]
        tail = mode + (["--", *cli_argv] if cli_argv is not None else [])
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise WorkerFailed("out of time")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(args + [repr(t0)] + tail, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"timed out: {' '.join(tail)}") from exc
        if proc.returncode != 0 or not report.exists():
            raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(tail)}\n{proc.stderr[-2000:]}")
        result = json.loads(report.read_text(encoding="utf-8"))
        if mode[0] != "--probe" and result["exit"] != 0:
            raise WorkerFailed(f"court-fda exited {result['exit']}: {' '.join(tail)}\n{proc.stderr[-2000:]}")
        return result

    def iterate(self, index: int, inp: Path, traced: bool) -> dict:
        """One workload execution; returns its timings and its parsed outputs."""
        out = self.work / f"iter{index}"
        if self.workload == "staged":
            kind, chain = "staged", staged_chain(inp, out)
        else:
            kind, chain = "run", [["run", "--input", str(inp), "--out", str(out)]]
            if self.workload == "fixture":
                chain[0] += ["--seed", str(self.seed)]
        run_id = f"{self.workload}-{self.seed}-{index}"
        mode = ["--trace", run_id] if traced else ["--run"]
        reports = [self.spawn(mode, argv) for argv in chain]
        summary = check.summarize(kind, out)
        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)
        return {
            "traced": traced,
            "processes": reports,
            "run_s": sum(r["run_s"] for r in reports),
            "cpu_s": sum(r["cpu_s"] for r in reports),
            "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024.0,
            "output_mb": output_bytes / MB,
            "summary": summary,
        }


def make_input(bench: Bench):
    """Input path and expected counts; generation is never timed."""
    if bench.workload == "fixture":
        return FIXTURE, gen.count_export(FIXTURE)
    path = bench.work / "input" / f"{bench.workload}-{bench.seed}.csv"
    return path, gen.write_export(ROOT, gen.SPECS[bench.workload], bench.seed, path)


def environment(probe: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "court_fda").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": probe.get("blas_threads"),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "threads": probe.get("threads"),
    }


def end_to_end(iterations: list[dict], setups: list[float], in_bounds: int) -> dict:
    n_proc = len(iterations[0]["processes"])
    values = {
        "run_s": statistics.median(it["run_s"] for it in iterations),
        "shots_per_s": statistics.median(in_bounds / it["run_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        # one process's median set-up time, times the processes of an iteration
        "setup_s": n_proc * statistics.median(setups),
        "output_mb": statistics.median(it["output_mb"] for it in iterations),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced: dict, traced: dict) -> dict:
    values = spans.layer_metrics(traced["processes"])
    values["pipeline.trace_overhead_s"] = traced["run_s"] - untraced["run_s"]
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_util", "_path")):
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), (".mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def write_reference(reference: dict) -> None:
    """One line per workload and seed, so a re-recorded seed shows as one changed line."""
    blocks = []
    for workload in sorted(reference):
        seeds = sorted(reference[workload], key=int)
        lines = [f' "{s}": {json.dumps(reference[workload][s], sort_keys=True, separators=(",", ":"))}'
                 for s in seeds]
        blocks.append(f'"{workload}": {{\n' + ",\n".join(lines) + "\n}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def run(bench: Bench, record: bool) -> tuple[dict, list[str], dict]:
    """Generate the input, run the iterations, check them; returns (result, errors, record)."""
    inp, counts = make_input(bench)
    expected = {"rows": counts.rows, "in_bounds": counts.in_bounds, "players": counts.players}
    bench.spawn(["--probe"])  # warm-up: compiles bytecode, fills the page cache
    probes = [bench.spawn(["--probe"]) for _ in range(PROBES)]
    env = environment(probes[0])
    setups = [p["setup_s"] for p in probes]

    iterations: list[dict] = []
    errors: list[str] = []
    failed = 0
    plan = [False, True] if bench.trace else None
    min_iterations = MIN_ITERATIONS[bench.workload]
    measure_start = time.monotonic()
    while True:
        index = len(iterations)
        try:
            it = bench.iterate(index, inp, traced=bool(plan and plan[index]))
            problems = check.invariant_errors(it["summary"], expected)
            if index and it["summary"]["files"] != iterations[0]["summary"]["files"]:
                problems.append("two runs of one commit wrote different files")
        except (WorkerFailed, OSError, ValueError, KeyError) as exc:
            it, problems = None, [str(exc)]
        if problems:
            failed += 1
            errors += [f"iteration {index}: {p}" for p in problems]
            break
        iterations.append(it)
        done = len(iterations)
        elapsed = time.monotonic() - measure_start
        if plan:
            if done == len(plan):
                break
        elif done >= min_iterations and (
            elapsed + elapsed / done > bench.seconds
            or time.monotonic() - bench.started + elapsed / done > TIME_LIMIT_S - 20
        ):
            break  # the next iteration would end past the measuring window
    attempted = len(iterations) + failed

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    pinned = reference.get(bench.workload, {}).get(str(bench.seed))
    if iterations and record and not errors:
        reference.setdefault(bench.workload, {})[str(bench.seed)] = check.reference_of(iterations[0]["summary"])
        write_reference(reference)
    elif iterations and pinned is not None:
        problems = check.reference_errors(iterations[0]["summary"], pinned)
        if problems:
            failed += not errors
            errors += [f"reference, seed {bench.seed}: {p}" for p in problems]

    metrics: dict = {}
    if bench.trace and len(iterations) == 2:
        untraced, traced = iterations
        metrics = per_layer(untraced, traced)
        self_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
        if abs(self_sum - traced["run_s"]) > 1e-6 * len(traced["processes"]):
            errors.append(f"layer self times sum to {self_sum} s, traced run_s is {traced['run_s']} s")
    elif iterations and not bench.trace:
        setups += [r["setup_s"] for it in iterations for r in it["processes"]]
        metrics = end_to_end(iterations, setups, counts.in_bounds)
    result = {
        "correct": not errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    doc = {
        "workload": bench.workload,
        "why": WORKLOADS[bench.workload],
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": bench.trace,
        "environment": env,
        "input": {**expected, "grid": GRID, "reference_checked": pinned is not None and not record},
        "samples": {name: len(setups) if name == "setup_s" else len(iterations) - bench.trace
                    for name in metrics},
        "iterations": [
            {k: v for k, v in it.items() if k != "summary"} | {"files": len(it["summary"]["files"])}
            for it in iterations
        ],
        "errors": errors,
        "result": result,
    }
    results_dir = ROOT / "out" / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}-{time.time_ns()}.json"
    (results_dir / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return result, errors, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's checked values as the reference for the seed")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "court_fda" / "cli.py", ROOT / "tools" / "make_fixture.py", FIXTURE]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a court-fda checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result, errors, doc = run(bench, args.record_reference)
    except WorkerFailed as exc:  # court_fda could not even be imported
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    env = doc["environment"]
    print(f"workload {args.workload} seed {args.seed}: {doc['input']['rows']} rows, "
          f"{doc['input']['in_bounds']} in bounds, {doc['input']['players']} players, grid {GRID}x{GRID}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_threads']} threads), nproc {env['nproc']}, threads={env['threads']}, "
          f"git {env['git_sha'] or 'n/a'}, source {env['source_sha256'][:12]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:8s} (n={doc['samples'][name]})")
    print(f"  {'error_rate':32s} {result['failed'] / result['attempted']:>14.6g} {'ratio':8s} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
