"""Output checks that parse results instead of hashing bytes.

:func:`summarize` reads what a workload wrote (``run.json`` or
``model.json``, ``clusters_*.json``, the evaluation documents,
``stability.json``, ``scores.csv`` and, for the staged chain,
``players.json``) into plain values. :func:`invariant_errors` checks
what must hold for any seed; :func:`reference_errors` compares against
values recorded from an earlier commit for the recorded seeds. Both
return a list of messages, empty when the outputs pass, so a later
change may compact the JSON or drop replicate dumps without touching
the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

K_CLUSTERS = 5
REPLICATES = 5
# Tolerances of the reference comparison, relative to max(1, |reference|).
TOL_SCORES = 1e-9
TOL_STABILITY = 1e-8


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_scores(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], [[float(v) for v in r[1:]] for r in rows]


def file_map(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``; used only to compare two runs."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _clustering(path: Path) -> dict:
    doc = _json(path)
    return {
        "k": doc["k"],
        "labels": [p["cluster"] for p in doc["players"]],
        "is_medoid": [bool(p["is_medoid"]) for p in doc["players"]],
        "player_ids": [p["player_id"] for p in doc["players"]],
        "medoids": doc["medoids"],
        "medoid_ids": doc["medoid_player_ids"],
    }


def _stability(path: Path) -> dict:
    doc = _json(path)
    return {
        "n_replicates": doc["n_replicates"],
        "alignments": doc["alignments"],
        "eigenvalue_ratios": doc["eigenvalue_ratios"],
        "flagged": doc["flagged_replicates"],
    }


def summarize(kind: str, out: Path) -> dict:
    """Plain values from a ``run`` output directory or a staged work tree.

    A staged tree holds ``work/`` (ingest through evaluate) and ``boot/``.
    """
    if kind == "run":
        work, boot = out, out
        manifest = _json(out / "run.json")
        summary = manifest["summary"]
        counts = {
            "rows": summary["events_parsed"],
            "in_bounds": summary["events_retained"],
            "players": summary["players_retained"],
        }
        ratios = summary["variance_ratios"]
        evaluation = _json(out / "evaluation.json")["comparisons"]
        ari = {name: comp["ari"] for name, comp in sorted(evaluation.items())}
        files = manifest["files"]
    else:
        work, boot = out / "work", out / "boot"
        players = _json(work / "players.json")
        counts = {
            "in_bounds": sum(len(p["made_points"]) + len(p["missed_points"]) for p in players),
            "players": len(players),
        }
        ratios = _json(work / "model.json")["variance_ratios"]
        ari = {
            path.stem: _json(path)["comparison"]["ari"] for path in sorted(work.glob("evaluation*.json"))
        }
        files = file_map(out)
    ids, scores = read_scores(work / "scores.csv")
    return {
        "counts": counts,
        "variance_ratios": ratios,
        "score_ids": ids,
        "scores": scores,
        "clusterings": {
            path.stem.removeprefix("clusters_"): _clustering(path) for path in sorted(work.glob("clusters_*.json"))
        },
        "ari": ari,
        "stability": _stability(boot / "stability.json"),
        "files": files,
    }


def invariant_errors(summary: dict, expected_counts: dict) -> list[str]:
    """Checks that hold for every seed."""
    errors = []
    for key, value in expected_counts.items():
        if key in summary["counts"] and summary["counts"][key] != value:
            errors.append(f"{key}: expected {value}, got {summary['counts'][key]}")
    n = expected_counts["players"]
    if len(summary["score_ids"]) != n:
        errors.append(f"scores.csv has {len(summary['score_ids'])} rows, expected {n}")

    ratios = summary["variance_ratios"]
    if not ratios or not all(0.0 < r <= 1.0 for r in ratios):
        errors.append(f"variance ratios outside (0, 1]: {ratios}")
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        errors.append(f"eigenvalues not descending: variance ratios {ratios}")

    if len(summary["clusterings"]) != 2:
        errors.append(f"expected two clusterings, got {sorted(summary['clusterings'])}")
    for scheme, c in summary["clusterings"].items():
        labels, medoids = c["labels"], c["medoids"]
        if c["k"] != K_CLUSTERS or len(medoids) != K_CLUSTERS or len(set(medoids)) != K_CLUSTERS:
            errors.append(f"{scheme}: expected {K_CLUSTERS} distinct medoids, got {medoids}")
            continue
        if len(labels) != n or sorted(set(labels)) != list(range(K_CLUSTERS)):
            errors.append(f"{scheme}: labels do not form {K_CLUSTERS} non-empty clusters over {n} players")
        for j, m in enumerate(medoids):
            if not 0 <= m < len(labels) or labels[m] != j:
                errors.append(f"{scheme}: medoid {m} of cluster {j} lies outside it")
            elif c["medoid_ids"][j] != c["player_ids"][m]:
                errors.append(f"{scheme}: medoid id {c['medoid_ids'][j]} is not player {m}")
        if [i for i, flag in enumerate(c["is_medoid"]) if flag] != sorted(medoids):
            errors.append(f"{scheme}: is_medoid flags disagree with the medoid list")
        if c["player_ids"] != summary["score_ids"]:
            errors.append(f"{scheme}: player order differs from scores.csv")

    for name, value in summary["ari"].items():
        if not -1.0 <= value <= 1.0:
            errors.append(f"ARI {name} = {value} outside [-1, 1]")
    if not summary["ari"]:
        errors.append("no ARI values found")

    stab = summary["stability"]
    if stab["n_replicates"] != REPLICATES or len(stab["alignments"]) != REPLICATES:
        errors.append(f"expected {REPLICATES} bootstrap replicates, got {stab['n_replicates']}")
    for r, row in enumerate(stab["alignments"]):
        if any(a is None for a in row) != (r in stab["flagged"]):
            errors.append(f"replicate {r}: missing alignments and flagged list disagree")
        if not all(a is None or 0.0 <= a <= 1.0 for a in row):
            errors.append(f"replicate {r}: alignments outside [0, 1]: {row}")
    for r, row in enumerate(stab["eigenvalue_ratios"]):
        if not all(v is None or (math.isfinite(v) and v > 0.0) for v in row):
            errors.append(f"replicate {r}: eigenvalue ratios not positive: {row}")
    return errors


def reference_of(summary: dict) -> dict:
    """The values of a summary that the reference comparison pins."""
    return {
        "counts": summary["counts"],
        "variance_ratios": summary["variance_ratios"],
        "score_ids": summary["score_ids"],
        "scores": summary["scores"],
        "clusterings": {
            scheme: {"labels": c["labels"], "medoid_ids": c["medoid_ids"]}
            for scheme, c in summary["clusterings"].items()
        },
        "ari": summary["ari"],
        "stability": {
            key: summary["stability"][key] for key in ("alignments", "eigenvalue_ratios", "flagged")
        },
    }


def _close(got, want, tol: float, what: str, errors: list[str]) -> None:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{what}: shape differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, tol, f"{what}[{i}]", errors)
    elif want is None or got is None:
        if got is not want:
            errors.append(f"{what}: {got} vs reference {want}")
    elif not abs(got - want) <= tol * max(1.0, abs(want)):
        errors.append(f"{what}: {got!r} vs reference {want!r}")


def reference_errors(summary: dict, reference: dict) -> list[str]:
    """Compare with values recorded from an earlier commit for the same seed."""
    got = reference_of(summary)
    errors = []
    for key in ("counts", "score_ids", "clusterings"):
        if got[key] != reference[key]:
            errors.append(f"{key} differ from the reference")
    if got["stability"]["flagged"] != reference["stability"]["flagged"]:
        errors.append("flagged replicates differ from the reference")
    if sorted(got["ari"]) != sorted(reference["ari"]):
        errors.append("ARI comparisons differ from the reference")
    else:
        _close([got["ari"][k] for k in sorted(got["ari"])],
               [reference["ari"][k] for k in sorted(reference["ari"])], TOL_SCORES, "ari", errors)
    _close(got["variance_ratios"], reference["variance_ratios"], TOL_SCORES, "variance_ratios", errors)
    _close(got["scores"], reference["scores"], TOL_SCORES, "scores", errors)
    for key in ("alignments", "eigenvalue_ratios"):
        _close(got["stability"][key], reference["stability"][key], TOL_STABILITY, key, errors)
    return errors
