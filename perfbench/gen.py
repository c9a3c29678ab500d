"""Deterministic synthetic shot exports for the benchmark workloads.

Reuses the archetype sampler of ``tools/make_fixture.py`` (imported by
path, unedited) and draws every player's shots from one seeded numpy
generator, so one seed always yields a byte-identical CSV. Per-player
attempt counts are evenly spaced over the workload's range and only
their order depends on the seed, which keeps the total row count (and
so the work per run) the same for every seed.
"""

from __future__ import annotations

import csv
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COURT_WIDTH_FT = 50.0
COURT_DEPTH_FT = 47.0
MIN_ATTEMPTS = 1000

# Position labels that go with each shooting archetype, so the position
# partition the evaluation compares against carries some signal.
POSITIONS = {
    "rim": ("center", "center-forward", "forward-center"),
    "arc": ("guard", "guard-forward"),
    "corner": ("forward-guard", "forward"),
    "mid": ("forward", "guard"),
}


@dataclass(frozen=True)
class InputSpec:
    """Size of a synthetic export: player count and per-player attempt range."""

    players: int
    min_shots: int
    max_shots: int


SPECS = {
    "paper": InputSpec(173, 1500, 6800),
    "staged": InputSpec(48, 1500, 3000),
}


@dataclass(frozen=True)
class InputCounts:
    """What the pipeline must report after ingesting a generated export."""

    rows: int
    in_bounds: int
    players: int


def load_sampler(repo: Path):
    """Import ``tools/make_fixture.py`` from a checkout without running it."""
    path = repo / "tools" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("court_fda_make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_export(repo: Path, spec: InputSpec, seed: int, path: Path) -> InputCounts:
    """Write a synthetic export for ``seed`` to ``path`` and return its counts."""
    sampler = load_sampler(repo)
    rng = np.random.default_rng([seed % (1 << 64), spec.players, spec.min_shots, spec.max_shots])
    counts = rng.permutation(np.linspace(spec.min_shots, spec.max_shots, spec.players).round().astype(int))
    archetypes = sorted(sampler.ARCHETYPES)
    rows = in_bounds = players = 0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["player_id", "player_name", "position", "x_ft", "y_ft", "made", "season"])
        for i, n in enumerate(counts):
            archetype = archetypes[int(rng.integers(len(archetypes)))]
            choices = POSITIONS[archetype]
            position = choices[int(rng.integers(len(choices)))]
            pid, name = f"s{i:03d}", f"Player {i:03d}"
            pts = sampler.draw_points(rng, sampler.ARCHETYPES[archetype], int(n))
            dist = np.linalg.norm(pts - sampler.HOOP, axis=1)
            made = rng.uniform(size=len(pts)) < np.clip(0.68 - 0.013 * dist, 0.25, 0.95)
            seasons = rng.choice(sampler.SEASONS, size=len(pts))
            xs = [f"{x:.2f}" for x in pts[:, 0]]
            ys = [f"{y:.2f}" for y in pts[:, 1]]
            kept = sum(
                0.0 <= float(x) / COURT_WIDTH_FT <= 1.0 and 0.0 <= float(y) / COURT_DEPTH_FT <= 1.0
                for x, y in zip(xs, ys)
            )
            writer.writerows(
                [pid, name, position, x, y, int(m), s] for x, y, m, s in zip(xs, ys, made, seasons)
            )
            rows += len(pts)
            in_bounds += kept
            players += kept > MIN_ATTEMPTS
    return InputCounts(rows, in_bounds, players)


def count_export(path: Path) -> InputCounts:
    """Counts of an existing export, by the same rules as :func:`write_export`."""
    rows = in_bounds = 0
    attempts: dict[str, int] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for pid, _, _, x, y, _, _ in reader:
            rows += 1
            if 0.0 <= float(x) / COURT_WIDTH_FT <= 1.0 and 0.0 <= float(y) / COURT_DEPTH_FT <= 1.0:
                in_bounds += 1
                attempts[pid] = attempts.get(pid, 0) + 1
    return InputCounts(rows, in_bounds, sum(n > MIN_ATTEMPTS for n in attempts.values()))
