"""End-to-end orchestration with deterministic outputs and a hashed manifest.

The full run executes ingest, density estimation, the component fit,
clustering under the requested weight schemes, partition metrics, the
bootstrap stability check, and the figure exports, writing every product
under one output directory. ``run.json`` lists each written file with
its SHA-256 hash; identical input, config, and seed yield byte-identical
outputs. On a stage failure all files written so far are removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from court_fda import bootstrap as bt
from court_fda import cluster as cl
from court_fda import metrics as mt
from court_fda.density import COMPONENTS, DensityStack, build_samples
from court_fda.export import export_heatmap, export_medoid_heatmaps, write_heatmap_csv, write_json
from court_fda.fda import ScoreMatrix, fit_mfpca, save_model
from court_fda.grids import GridSpec
from court_fda.ingest import (
    CourtSpec,
    exclude_impossible,
    filter_players,
    load_events,
    write_players_json,
)

#: Pipeline stages in execution order; the CLI derives exit codes from this.
STAGES = ("ingest", "density", "mfpca", "cluster", "evaluate", "bootstrap", "export")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException | str):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Run settings; the defaults reproduce the reference analysis setup.

    Exactly one of ``components`` and ``variance_threshold`` selects the
    component count. ``weight_scheme`` is "equal", "variance", or "both".
    """

    input: str = ""
    out: str = "out"
    min_attempts: int = 1000
    grid: int = 201
    components: int | None = 4
    variance_threshold: float | None = None
    clusters: int = 5
    weight_scheme: str = "both"
    bootstrap_replicates: int = 5
    seed: int = 0
    court_width: float = 50.0
    court_depth: float = 47.0
    threads: int = 1
    dump_densities: bool = False

    def __post_init__(self) -> None:
        if (self.components is None) == (self.variance_threshold is None):
            raise ValueError("specify exactly one of components and variance_threshold")
        if self.weight_scheme not in ("equal", "variance", "both"):
            raise ValueError(f"weight_scheme must be equal, variance, or both, got {self.weight_scheme!r}")
        if self.bootstrap_replicates < 0:
            raise ValueError(f"bootstrap_replicates must be non-negative, got {self.bootstrap_replicates}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {"components": None} if "variance_threshold" in data and "components" not in data else {}
        merged.update(data)
        return cls(**merged)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def schemes(self) -> list[cl.WeightScheme]:
        if self.weight_scheme == "both":
            return [cl.WeightScheme.EQUAL, cl.WeightScheme.VARIANCE_PROPORTION]
        return [cl.WeightScheme(self.weight_scheme)]


class _OutputTracker:
    """Records every file written so a failed run can clean up after itself."""

    def __init__(self, root: Path):
        self.root = root
        self.files: list[Path] = []

    def track(self, *paths: Path) -> None:
        self.files.extend(paths)

    def write_json(self, relpath: str, obj) -> None:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(obj, path)
        self.track(path)

    def write_text(self, relpath: str, text: str) -> None:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self.track(path)

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)
        for sub in sorted(self.root.rglob("*"), reverse=True):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass


class DensityFileError(ValueError):
    """A density directory is missing a file or holds arrays that do not match its descriptor."""


def write_densities(out_dir: Path, stack: DensityStack) -> list[Path]:
    """Persist a density stack as one .npy array per component plus a JSON descriptor."""
    paths = [out_dir / f"densities_{comp}.npy" for comp in COMPONENTS]
    for path, values in zip(paths, stack.values):
        np.save(path, values)
    paths.append(out_dir / "densities_meta.json")
    write_json({"player_ids": stack.player_ids, "grid": {"nx": stack.grid.nx, "ny": stack.grid.ny}}, paths[-1])
    return paths


def read_densities(dir_path: str | Path, player_ids: Sequence[str] | None = None) -> DensityStack:
    """Inverse of :func:`write_densities`; each array is read into its slot of one stack.

    With ``player_ids``, only those players' rows are read from the memory-mapped arrays,
    in that order. Raises :class:`DensityFileError` for a missing or unreadable file, an
    array whose shape is not the descriptor's (players, nx, ny), a player the descriptor
    does not list, or a non-finite value in a row that is read.
    """
    dir_path = Path(dir_path)
    try:
        meta = json.loads((dir_path / "densities_meta.json").read_text(encoding="utf-8"))
        ids, grid = [str(pid) for pid in meta["player_ids"]], GridSpec(meta["grid"]["nx"], meta["grid"]["ny"])
        shape = (len(ids), grid.nx, grid.ny)
        if player_ids is None:
            rows = range(len(ids))
        else:
            index = {pid: i for i, pid in enumerate(ids)}
            missing = [pid for pid in player_ids if pid not in index]
            if missing:
                raise ValueError(f"player {missing[0]!r} is not in the density set")
            rows = [index[pid] for pid in player_ids]
        stack = DensityStack([ids[i] for i in rows], grid, np.empty((2, len(rows), grid.nx, grid.ny)))
        for comp, slot in zip(COMPONENTS, stack.values):
            values = np.load(dir_path / f"densities_{comp}.npy", mmap_mode="r")
            if values.shape != shape:
                raise ValueError(f"densities_{comp}.npy has shape {values.shape}, the descriptor lists {shape}")
            for i, row in enumerate(rows):
                slot[i] = values[row]
            del values  # closes the memory map
            if not np.isfinite(slot).all():
                raise ValueError(f"densities_{comp}.npy holds a non-finite value")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DensityFileError(f"density directory {dir_path}: {exc}") from exc
    return stack


def write_scores_csv(scores: ScoreMatrix, path: Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["player_id"] + [f"c{k + 1}" for k in range(scores.n_components)])
        for pid, row in zip(scores.player_ids, scores.values):
            writer.writerow([pid] + [repr(float(v)) for v in row])


def read_scores_csv(path: str | Path) -> ScoreMatrix:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, rows = [], []
        for parts in reader:
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return ScoreMatrix(ids, np.array(rows))


def clustering_to_dict(
    clustering: cl.Clustering, scheme: cl.WeightScheme, weights: np.ndarray, player_ids: Sequence[str]
) -> dict:
    return {
        "scheme": scheme.value,
        "k": len(clustering.medoids),
        "weights": [float(w) for w in weights],
        "total_cost": clustering.total_cost,
        "medoids": clustering.medoids,
        "medoid_player_ids": [player_ids[m] for m in clustering.medoids],
        "players": [
            {"player_id": pid, "cluster": int(lab), "is_medoid": i in clustering.medoids}
            for i, (pid, lab) in enumerate(zip(player_ids, clustering.labels))
        ],
    }


def comparison_report(name_a: str, part_a: mt.Partition, name_b: str, part_b: mt.Partition) -> dict:
    cm = mt.confusion_matrix(part_a, part_b)
    return {
        "row_partition": name_a,
        "col_partition": name_b,
        "row_labels": list(part_a.label_names or [f"cluster_{i + 1}" for i in range(part_a.n_categories)]),
        "col_labels": list(part_b.label_names or [f"cluster_{i + 1}" for i in range(part_b.n_categories)]),
        "confusion": cm.tolist(),
        "ari": mt.adjusted_rand_index(part_a, part_b),
    }


def _silhouette_entry(dist: np.ndarray, partition: mt.Partition) -> dict:
    values, mean = mt.silhouette(dist, partition)
    per_cluster = mt.per_cluster_silhouette(values, partition)
    names = partition.label_names
    return {
        "mean": mean,
        "per_cluster": {names[c] if names else f"cluster_{c + 1}": v for c, v in per_cluster.items()},
    }


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and return the manifest that was written."""
    out_root = Path(config.out)
    out_root.mkdir(parents=True, exist_ok=True)
    tracker = _OutputTracker(out_root)
    court = CourtSpec(config.court_width, config.court_depth)
    grid = GridSpec(config.grid, config.grid)

    try:
        manifest = _run_stages(config, court, grid, tracker)
    except StageError:
        tracker.cleanup()
        raise
    except Exception as exc:  # pragma: no cover - defensive catch-all
        tracker.cleanup()
        raise StageError("run", exc) from exc
    return manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_stages(config: PipelineConfig, court: CourtSpec, grid: GridSpec, tracker: _OutputTracker) -> dict:
    out_root = tracker.root

    # ingest
    try:
        events = load_events(config.input, court)
        if not events:
            raise ValueError(f"no shot events in {config.input}")
        retained = exclude_impossible(events)
        records = filter_players(retained, config.min_attempts)
        if not records:
            raise ValueError(f"no player exceeds {config.min_attempts} attempts")
        events_parsed, events_retained = len(events), len(retained)
        del events, retained  # only their row counts reach the manifest
        players_path = out_root / "players.json"
        write_players_json(records, players_path)
        tracker.track(players_path)
    except Exception as exc:
        raise StageError("ingest", exc) from exc

    # density
    try:
        stack = build_samples(records, grid, threads=config.threads)
        tracker.track(*write_densities(out_root, stack))
        if config.dump_densities:
            dump_dir = out_root / "density_dumps"
            dump_dir.mkdir(exist_ok=True)
            for i, pid in enumerate(stack.player_ids):
                safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in pid)
                for comp, values in zip(COMPONENTS, stack.values[:, i]):
                    path = dump_dir / f"{safe}_{comp}.csv"
                    write_heatmap_csv(values, grid, path)
                    tracker.track(path)
    except Exception as exc:
        raise StageError("density", exc) from exc

    # mfpca
    try:
        model = fit_mfpca(
            stack, n_components=config.components, variance_threshold=config.variance_threshold
        )
        model_path, scores_path = out_root / "model.json", out_root / "scores.csv"
        tracker.track(model_path, scores_path)
        save_model(model, model_path)
        write_scores_csv(model.scores, scores_path)
    except Exception as exc:
        raise StageError("mfpca", exc) from exc

    # cluster
    try:
        standardized = cl.standardize_scores(model.scores)
        clusterings: dict[str, cl.Clustering] = {}
        distances: dict[str, np.ndarray] = {}
        for scheme in config.schemes:
            dist = cl.distance_matrix(standardized, scheme, model.eigenvalues)
            clustering = cl.kmedoids(dist, config.clusters)
            name = scheme.value
            clusterings[name] = clustering
            distances[name] = dist
            weights = cl.resolve_weights(scheme, model.n_components, model.eigenvalues)
            tracker.write_json(
                f"clusters_{name}.json",
                clustering_to_dict(clustering, scheme, weights, model.scores.player_ids),
            )
            tracker.write_text(f"roster_{name}.txt", cl.format_roster(clustering, records))
    except Exception as exc:
        raise StageError("cluster", exc) from exc

    # evaluate
    try:
        nba = mt.positions_partition(records)
        parts = {name: mt.Partition(c.labels) for name, c in clusterings.items()}
        comparisons = {}
        silhouettes = {}
        for name, part in parts.items():
            comparisons[f"{name}_vs_nba"] = comparison_report(name, part, "nba", nba)
            silhouettes[name] = _silhouette_entry(distances[name], part)
            silhouettes[f"nba_on_{name}_distance"] = _silhouette_entry(distances[name], nba)
        if len(parts) == 2:
            comparisons["equal_vs_variance"] = comparison_report(
                "equal", parts["equal"], "variance", parts["variance"]
            )
        tracker.write_json("evaluation.json", {"comparisons": comparisons, "silhouettes": silhouettes})
    except Exception as exc:
        raise StageError("evaluate", exc) from exc

    # bootstrap
    if config.bootstrap_replicates >= 1:
        try:
            report = bt.stability_study(
                stack, model, n_replicates=config.bootstrap_replicates, seed=config.seed
            )
            tracker.write_json("stability.json", bt.report_to_dict(report))
        except Exception as exc:
            raise StageError("bootstrap", exc) from exc

    # export
    heat_dir = out_root / "heatmaps"
    before = {p for p in heat_dir.rglob("*") if p.is_file()} if heat_dir.exists() else set()
    try:
        for comp_idx, comp in enumerate(COMPONENTS):
            tracker.track(*export_heatmap(model.mean[comp_idx], grid, heat_dir / f"mean_{comp}"))
            for j, pair in enumerate(model.pairs, start=1):
                base = heat_dir / f"eigenfunction_{j}_{comp}"
                tracker.track(*export_heatmap(pair.eigenfunction[comp_idx], grid, base))
        medoids = {name: clustering.medoids for name, clustering in clusterings.items()}
        tracker.track(*export_medoid_heatmaps(stack, medoids, heat_dir))
    except Exception as exc:
        for path in {p for p in heat_dir.rglob("*") if p.is_file()} - before:
            path.unlink(missing_ok=True)
        raise StageError("export", exc) from exc

    manifest = {
        "config": config.to_dict(),
        "summary": {
            "events_parsed": events_parsed,
            "events_retained": events_retained,
            "players_retained": len(records),
            "components": model.n_components,
            "variance_ratios": model.variance_ratios.tolist(),
        },
        "files": {p.relative_to(out_root).as_posix(): _sha256(p) for p in sorted(tracker.files)},
    }
    write_json(manifest, out_root / "run.json")
    return manifest
