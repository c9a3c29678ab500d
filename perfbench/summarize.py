"""Table of benchmark results across runs, one row per workload and metric.

Run from the root of a checkout after some ``perfbench/run.py`` runs:

    python3 perfbench/summarize.py                 # every result under out/perfbench/results
    python3 perfbench/summarize.py --baseline perfbench/baseline.json

Each untraced result contributes one value per end-to-end metric; the
table gives, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread between
the quartiles as a share of the median, and the number of runs. Runs
that failed count towards ``error_rate``. With ``--baseline`` the same
figures, with the environment of the last run read, are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(paths: list[Path]) -> list[dict]:
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    return [d for d in docs if not d["trace"]]


def table(docs: list[dict]) -> dict:
    """{workload: {metric: {median, q1, q3, spread, unit, n}}} plus the error rate."""
    out: dict = {}
    for workload in sorted({d["workload"] for d in docs}):
        runs = [d for d in docs if d["workload"] == workload]
        rows: dict = {}
        names = [n for d in runs for n in d["result"]["metrics"]]
        for name in dict.fromkeys(names):
            values = [d["result"]["metrics"][name]["value"] for d in runs if name in d["result"]["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            rows[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "unit": next(d["result"]["metrics"][name]["unit"] for d in runs if name in d["result"]["metrics"]),
                "n": len(values),
            }
        attempted = sum(d["result"]["attempted"] for d in runs)
        failed = sum(d["result"]["failed"] for d in runs)
        rows["error_rate"] = {"median": failed / attempted, "unit": "ratio", "n": attempted,
                              "q1": None, "q3": None, "spread": None}
        out[workload] = {
            "seeds": sorted({d["seed"] for d in runs}),
            "input": runs[-1]["input"],
            "metrics": rows,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", type=Path, help="result files (default: out/perfbench/results/*)")
    parser.add_argument("--baseline", type=Path, help="write the table and environment to this JSON file")
    args = parser.parse_args(argv)
    paths = args.results or sorted((ROOT / "out" / "perfbench" / "results").glob("*.json"))
    docs = load(paths)
    if not docs:
        print("no untraced results found", file=sys.stderr)
        return 1
    summary = table(docs)
    for workload, entry in summary.items():
        print(f"{workload} (seeds {entry['seeds']})")
        for name, row in entry["metrics"].items():
            if row["spread"] is None:
                print(f"  {name:12s} {row['median']:>12.6g} {row['unit']:8s} ({row['n']} attempted)")
            else:
                print(f"  {name:12s} {row['median']:>12.6g} {row['unit']:8s} q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                      f"spread {row['spread']:.3f} (n={row['n']})")
    if args.baseline:
        doc = {"environment": docs[-1]["environment"], "workloads": summary}
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
