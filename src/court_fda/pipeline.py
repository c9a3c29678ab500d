"""End-to-end orchestration with deterministic outputs and a hashed manifest.

Each stage is one function that :func:`run_pipeline` and its CLI subcommand both call:
:func:`ingest`, :func:`estimate_densities`, :func:`fit_and_save`, :func:`cluster_schemes` and
:func:`bootstrap_stability`. Each that writes files creates its output directory just before its
first write; both callers write :func:`ingest`'s ``players.json`` themselves. ``evaluate``'s two
documents differ, but both are built from :func:`comparison_report` and :func:`silhouette_entry`.
The run renders no charts: the ``export`` subcommands draw them, and the raw density tables,
from the files it writes.
The full run writes every product into a new directory beside the output directory,
``run.json`` last with the SHA-256 hash of each file, and moves it into place only when
every stage has succeeded. Identical input, config, and seed yield byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from court_fda import bootstrap as bt
from court_fda import cluster as cl
from court_fda import metrics as mt
from court_fda.density import DensityFileError, DensityStack, build_samples
from court_fda.export import replacing, sibling, write_json
from court_fda.export import export_heatmap, write_heatmap_csv  # noqa: F401  bound only for perfbench/spans.py to wrap
from court_fda.fda import MfpcaModel, ScoreMatrix, fit_mfpca, gram_matrix, mean_function, save_model
from court_fda.grids import COMPONENTS, GridSpec
from court_fda.ingest import (
    CourtSpec,
    IngestError,
    PlayerRecord,
    exclude_impossible,  # noqa: F401  bound only for perfbench/spans.py to wrap
    filter_players,
    in_court,
    load_events,
    write_players_json,
)
from court_fda.native import pin_blas_single_thread, plan_shares, run_shares, share_count, trim_heap

#: Pipeline stages in execution order; the CLI derives exit codes from this.
#: :func:`run_pipeline` executes every stage but ``export``.
STAGES = ("ingest", "density", "mfpca", "cluster", "evaluate", "bootstrap", "export")

#: KDE work each density worker gets at least, in shots times grid nodes: 3,300 shots, 13 ms, on the 201 x 201
#: grid, where a fork costs 2-4 ms on a 2-vCPU x86 VM. A node costs more on coarser grids, so they fork late.
_SHOT_NODES_PER_WORKER = 1 << 27


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException | str):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise any exception from the block as a :class:`StageError` of stage ``name``; one that is
    already a stage's error passes through."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass
class PipelineConfig:
    """Run settings; the defaults reproduce the reference analysis setup.

    Exactly one of ``components`` and ``variance_threshold`` selects the
    component count. ``weight_scheme`` is "equal", "variance", or "both".
    Each value must have its field's annotated type; an int passes as a float.
    ``threads`` caps the processes of every stage the run forks (None: no
    cap); it changes no output, so the ``run.json`` config echo leaves it out.
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
    threads: int | None = None

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(type(self)).items():
            allowed, value = typing.get_args(hint) or (hint,), getattr(self, name)
            if type(value) not in allowed and not (type(value) is int and float in allowed):
                raise ValueError(f"config key {name!r} must be {self.__dataclass_fields__[name].type}, got {value!r}")
        if (self.components is None) == (self.variance_threshold is None):
            raise ValueError("specify exactly one of components and variance_threshold")
        if self.weight_scheme not in ("equal", "variance", "both"):
            raise ValueError(f"weight_scheme must be equal, variance, or both, got {self.weight_scheme!r}")
        for name, low in (("components", 1), ("clusters", 2), ("threads", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"config key {name!r} must be at least {low}, got {value}")
        if self.variance_threshold is not None and not 0 < self.variance_threshold <= 1:
            raise ValueError(f"config key 'variance_threshold' must be in (0, 1], got {self.variance_threshold}")
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


def write_densities(
    out_dir: Path, player_ids: Sequence[str], grid: GridSpec, fields: Callable[[int], np.ndarray],
    bounds: Sequence[int] = (),
) -> None:
    """Write a density stack as one .npy array per component plus a JSON descriptor.

    ``fields(i)`` is row i's (2, nx, ny) float64 pair, missed first. The rows are cut at ``bounds``,
    ``0 = b_0 <= ... <= b_k = len(player_ids)`` (default: one run), and each run is one share of
    :func:`~court_fda.native.run_shares`, which takes its rows one at a time and writes each pair
    at its row's offset, so the files do not depend on the cut. The old descriptor is removed
    first, both arrays are written under temporary names (:func:`~court_fda.export.replacing`)
    after the header ``np.save`` writes for all rows and renamed into place, and the descriptor
    is written last. On any failure, the first failing share's error, the temporary files are
    removed and no descriptor is left, so the loader refuses the directory instead of reading
    an earlier set's arrays.
    """
    meta = out_dir / "densities_meta.json"
    meta.unlink(missing_ok=True)
    bounds = bounds or (0, len(player_ids))
    shape = (len(player_ids), grid.nx, grid.ny)
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)), "fortran_order": False, "shape": shape}
    with contextlib.ExitStack() as files:
        paths = [files.enter_context(replacing(out_dir / f"densities_{comp}.npy")) for comp in COMPONENTS]
        for path in paths:
            with path.open("xb") as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                start = fh.tell()  # where the rows begin, the same in both files

        def write(share: int) -> None:
            with contextlib.ExitStack() as opened:
                handles = [opened.enter_context(path.open("r+b")) for path in paths]
                for i in range(bounds[share], bounds[share + 1]):
                    _write_pair(handles, start + i * grid.nx * grid.ny * 8, fields(i), grid)

        run_shares(write, len(bounds) - 1, "density")
    write_json({"player_ids": list(player_ids), "grid": {"nx": grid.nx, "ny": grid.ny}}, meta)


def _write_pair(handles: Sequence[BinaryIO], offset: int, pair: np.ndarray, grid: GridSpec) -> None:
    """Write each component of ``pair`` at ``offset`` of its file; the pair is freed on return, before the next."""
    if pair.dtype != np.float64 or pair.shape != (2, *grid.shape):
        raise ValueError(f"a density pair of {pair.dtype} {pair.shape} does not lie on {grid}")
    for fh, values in zip(handles, pair):
        fh.seek(offset)
        fh.write(np.ascontiguousarray(values).data)


def read_densities(dir_path: str | Path) -> DensityStack:
    """The stack :func:`write_densities` wrote to ``dir_path``, as a checked handle on its files.

    Raises :class:`~court_fda.density.DensityFileError` for a missing or unreadable file, a
    descriptor that lists a player twice, or an array that is not float64, is stored in
    Fortran order, is shorter than its header says, or whose shape is not the descriptor's
    (players, nx, ny). No field is read here: a non-finite value is refused where the stack's
    reads meet it, before a stage writes anything.
    """
    dir_path = Path(dir_path)
    try:
        meta = json.loads((dir_path / "densities_meta.json").read_text(encoding="utf-8"))
        ids, grid = [str(pid) for pid in meta["player_ids"]], GridSpec(meta["grid"]["nx"], meta["grid"]["ny"])
        if len(set(ids)) < len(ids):
            raise ValueError(f"player {max(ids, key=ids.count)!r} is listed twice")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DensityFileError(f"density directory {dir_path}: {exc}") from exc
    return DensityStack(ids, grid, dir_path)


def write_scores_csv(scores: ScoreMatrix, path: Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["player_id"] + [f"c{k + 1}" for k in range(scores.n_components)])
        for pid, row in zip(scores.player_ids, scores.values):
            writer.writerow([pid] + [repr(float(v)) for v in row])


class ScoresFileError(ValueError):
    """A scores file that is not a ``player_id,c1..cK`` table of finite numbers, one row per player."""


def read_scores_csv(path: str | Path) -> ScoreMatrix:
    """Inverse of :func:`write_scores_csv`.

    Raises :class:`ScoresFileError` for a header other than ``player_id,c1..cK``, a file
    with no score rows, a row whose field count differs from the header's, a score that is
    not a finite number, a player id listed twice, or a last row with no line end: the
    writer ends every row with one, so a file cut short is refused even where its cut
    leaves a row that reads as whole.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        text = fh.read()
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, [])
        k = len(header) - 1
        if k < 1 or header != ["player_id"] + [f"c{j + 1}" for j in range(k)]:
            raise ScoresFileError(f"{path}: header {','.join(header)!r} is not player_id,c1..cK")
        rows: dict[str, list[float]] = {}
        for parts in reader:
            where = f"{path} line {reader.line_num}"
            if len(parts) != k + 1:
                raise ScoresFileError(f"{where}: {len(parts)} fields, the header has {k + 1}")
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError:
                row = [math.nan]
            if not all(map(math.isfinite, row)):
                raise ScoresFileError(f"{where}: scores must be finite numbers, got {','.join(parts[1:])!r}")
            if parts[0] in rows:
                raise ScoresFileError(f"{where}: player {parts[0]!r} is listed twice")
            rows[parts[0]] = row
    if not rows:
        raise ScoresFileError(f"{path}: no score rows")
    if not text.endswith(("\n", "\r")):
        raise ScoresFileError(f"{path} line {reader.line_num}: no line end; the file is cut short")
    return ScoreMatrix(list(rows), np.array(list(rows.values())))


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


class ClustersFileError(ValueError):
    """A clustering document that is not what :func:`clustering_to_dict` writes."""


def read_clusters_json(path: str | Path) -> tuple[mt.Partition, dict]:
    """The partition a clustering document holds, and the document.

    Raises :class:`ClustersFileError` when the document is not what :func:`clustering_to_dict`
    writes: a key missing, a scheme other than ``"equal"`` or ``"variance"``, weights that are not
    finite non-negative numbers, not all zero, a total cost that is not one, a player entry without
    ``player_id`` or ``cluster``, a player listed twice, a cluster label that is not a non-negative
    integer, a medoid that is not among the players, ``medoids`` that are not their indices, a ``k``
    other than their count, a cluster label not below ``k``, an ``is_medoid`` flag other than
    whether the player is a medoid, or a medoid ``j`` whose cluster label is not ``j``.
    """
    number = lambda value: type(value) in (int, float) and 0 <= value <= sys.float_info.max  # noqa: E731
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        keys = ("scheme", "weights", "total_cost", "players", "medoids", "medoid_player_ids", "k")
        missing = [k for k in keys if k not in doc]
        if missing:
            raise ValueError(f"no key {missing[0]!r}")
        if doc["scheme"] not in [scheme.value for scheme in cl.WeightScheme]:
            raise ValueError(f"scheme {doc['scheme']!r} is not 'equal' or 'variance'")
        weights = doc["weights"]
        if not (isinstance(weights, list) and all(map(number, weights)) and any(weights)):
            raise ValueError(f"weights {weights!r} are not finite non-negative numbers, not all zero")
        if not number(doc["total_cost"]):
            raise ValueError(f"total_cost {doc['total_cost']!r} is not a finite non-negative number")
        ids, labels = [p["player_id"] for p in doc["players"]], [p["cluster"] for p in doc["players"]]
        if len(set(ids)) < len(ids):
            raise ValueError(f"player {max(ids, key=ids.count)!r} is listed twice")
        wrong = [c for c in labels if type(c) is not int or c < 0]
        if wrong:
            raise ValueError(f"cluster label {wrong[0]!r} is not a non-negative integer")
        strays = [m for m in doc["medoid_player_ids"] if m not in ids]
        if strays:
            raise ValueError(f"medoid {strays[0]!r} is not among the players")
        medoids, names = doc["medoids"], doc["medoid_player_ids"]
        if not (isinstance(medoids, list) and len(medoids) == len(names)
                and all(type(m) is int and 0 <= m < len(ids) and ids[m] == name for m, name in zip(medoids, names))):
            raise ValueError(f"medoids {medoids!r} are not the indices of the medoids {names!r}")
        if type(doc["k"]) is not int or doc["k"] != len(medoids):
            raise ValueError(f"k {doc['k']!r} is not the number of medoids, {len(medoids)}")
        beyond = [c for c in labels if c >= len(medoids)]
        if beyond:
            raise ValueError(f"cluster label {beyond[0]} is not below k, {len(medoids)}")
        flagged = [p["is_medoid"] for p in doc["players"]]
        wrong = [i for i, flag in enumerate(flagged) if flag is not (i in medoids)]
        if wrong:
            raise ValueError(f"player {ids[wrong[0]]!r} has is_medoid {flagged[wrong[0]]!r}, but medoids are {medoids!r}")
        strays = [j for j, m in enumerate(medoids) if labels[m] != j]
        if strays:
            j = strays[0]
            raise ValueError(f"medoid {j} ({names[j]!r}) is in cluster {labels[medoids[j]]}, not {j}")
        return mt.Partition(np.array(labels, dtype=int)), doc
    except KeyError as exc:
        raise ClustersFileError(f"clustering document {path}: a player has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ClustersFileError(f"clustering document {path}: {exc}") from exc


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


def silhouette_entry(dist: np.ndarray, partition: mt.Partition) -> dict:
    values, mean = mt.silhouette(dist, partition)
    per_cluster = mt.per_cluster_silhouette(values, partition)
    names = partition.label_names
    return {
        "mean": mean,
        "per_cluster": {names[c] if names else f"cluster_{c + 1}": v for c, v in per_cluster.items()},
    }


def ingest(
    path: str | Path, court: CourtSpec, min_attempts: int, max_workers: int | None = None
) -> tuple[list[PlayerRecord], int, int]:
    """Parse a shot export, on at most ``max_workers`` parse processes (None: no cap), and group its in-bounds rows.

    Returns the retained players and the counts of parsed and in-bounds rows. Raises
    :class:`IngestError` when the export holds no rows or no player clears ``min_attempts``.
    Writing ``players.json`` is the caller's (:func:`~court_fda.ingest.write_players_json`):
    the ``ingest`` subcommand writes it at once, and :func:`run_pipeline` beside the fit.
    The exclusion is a row mask (:func:`~court_fda.ingest.in_court`) that the grouping applies
    (:func:`~court_fda.ingest.filter_players`), so the ingest holds one table, never a second
    copy of its in-bounds rows. Each parse process trims the C heap before it returns its
    table, and the grouping trims it again, the join's freed parts with it, before it gathers
    the points. The ingest's peak is the grouping's: the table, the sort order and the points.
    The last trim returns the table's pages before the caller's next step.
    """
    events = load_events(path, court, max_workers)
    if not events:
        raise IngestError(f"no shot events in {path}")
    in_bounds = in_court(events.x, events.y)
    records = filter_players(events, min_attempts, in_bounds)
    if not records:
        raise IngestError(f"no player exceeds {min_attempts} attempts")
    counts = len(events), int(np.count_nonzero(in_bounds))
    del events, in_bounds  # only the row counts are kept; free the table before the caller's next step
    trim_heap()
    return records, *counts


def estimate_densities(
    records: Sequence[PlayerRecord], grid: GridSpec, max_workers: int | None, out_dir: Path
) -> DensityStack:
    """Estimate every player's density pair, write the stack to ``out_dir`` and return it.

    The C heap is trimmed first, so the fields do not land on top of the pages that
    parsing the players freed (``read_players_json`` for the ``density`` subcommand).
    :func:`~court_fda.native.plan_shares` cuts the players into runs of about equal shots times
    grid nodes, at most ``max_workers`` (None: no cap) and one per ``_SHOT_NODES_PER_WORKER``, and
    :func:`write_densities` estimates each run on one worker, the caller or a process forked from
    it, one player at a time. The files are the same bytes for any worker count.
    """
    bounds = plan_shares([r.attempts * grid.nx * grid.ny for r in records], _SHOT_NODES_PER_WORKER, max_workers)
    trim_heap()
    ids = [r.player_id for r in records]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_densities(out_dir, ids, grid, lambda i: build_samples(records[i:i + 1], grid)[:, 0], bounds)
    return DensityStack(ids, grid, out_dir)


def fit_and_save(
    stack: DensityStack, out_dir: Path, components: int | None, variance_threshold: float | None,
    gram: np.ndarray | None = None, mean: np.ndarray | None = None,
) -> MfpcaModel:
    """Fit the decomposition and write ``model.json``, its function array and ``scores.csv`` to ``out_dir``.

    ``mean`` is the stack's mean and ``gram`` its Gram matrix about it, when the caller holds
    them (see :func:`fit_mfpca`). An earlier ``model.json`` is removed first, the array and
    ``scores.csv`` are written under temporary names and renamed into place, and ``model.json``
    is written last, so a failed write leaves no document and the model's loader refuses the
    directory instead of pairing an earlier fit with this one's files.
    """
    model = fit_mfpca(stack, n_components=components, variance_threshold=variance_threshold, gram=gram, mean=mean)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").unlink(missing_ok=True)
    with replacing(out_dir / "scores.csv") as temporary:
        write_scores_csv(model.scores, temporary)
    save_model(model, out_dir / "model.json")
    return model


def cluster_schemes(
    scores: ScoreMatrix,
    schemes: Sequence[cl.WeightScheme],
    k: int,
    out_dir: Path,
    eigenvalues: np.ndarray | None,
    records: Sequence[PlayerRecord] | None,
) -> dict[str, tuple[cl.Clustering, np.ndarray]]:
    """k-medoids on the standardized scores under each weight scheme.

    Writes ``clusters_<scheme>.json`` and, given the players in score order,
    ``roster_<scheme>.txt`` to ``out_dir``. Returns each scheme's clustering and
    distance matrix, keyed by the scheme's name. An earlier document is removed first and the
    roster written whole (:func:`~court_fda.export.replacing`) before it, so no write mixes two.
    """
    standardized = cl.standardize_scores(scores)
    results = {}
    for scheme in schemes:
        dist = cl.distance_matrix(standardized, scheme, eigenvalues)
        clustering = cl.kmedoids(dist, k)
        weights = cl.resolve_weights(scheme, scores.n_components, eigenvalues)
        doc = clustering_to_dict(clustering, scheme, weights, scores.player_ids)
        out_dir.mkdir(parents=True, exist_ok=True)
        document = out_dir / f"clusters_{scheme.value}.json"
        document.unlink(missing_ok=True)
        if records is not None:
            with replacing(out_dir / f"roster_{scheme.value}.txt") as temporary:
                temporary.write_text(cl.format_roster(clustering, records), encoding="utf-8")
        write_json(doc, document)
        results[scheme.value] = clustering, dist
    return results


def bootstrap_stability(
    stack: DensityStack, model: MfpcaModel, replicates: int, seed: int, out_dir: Path,
    dump_dir: str | Path | None = None, gram: np.ndarray | None = None,
) -> bt.StabilityReport:
    """Study the stability of ``model``'s components over ``stack`` and write ``stability.json`` to ``out_dir``.

    ``model`` must be the one fitted on ``stack``; the study keeps its component count. With
    ``dump_dir``, each replicate's mean and eigenfunctions are charted there. ``gram`` is the
    fit's Gram matrix, when the caller holds it (see :func:`court_fda.bootstrap.stability_study`).
    """
    report = bt.stability_study(stack, model, n_replicates=replicates, seed=seed, dump_dir=dump_dir, gram=gram)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(bt.report_to_dict(report), out_dir / "stability.json")
    return report


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and return the manifest that was written.

    The outputs are staged beside ``config.out`` and replace it only when every
    stage has succeeded; a failed run leaves ``config.out`` as it was. A
    ``config.out`` that is not empty and holds no ``run.json`` is refused with a
    ``ValueError`` before any stage runs, so only an earlier run's output is replaced.
    BLAS is pinned to one thread first, so the outputs do not depend on its thread count.
    """
    pin_blas_single_thread()
    out = Path(os.path.abspath(config.out))
    if out.exists() and not (out / "run.json").is_file() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"{config.out} is not empty and holds no run.json; not replacing it")
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = sibling(out)
    staging.mkdir()  # a plain mkdir, so the output gets the usual permissions
    try:
        manifest = _run_stages(config, staging)
        _move_into_place(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return manifest


def _move_into_place(staging: Path, out: Path) -> None:
    """Rename ``staging`` to ``out``; an earlier ``out`` is renamed aside first and removed last."""
    if not os.path.lexists(out):
        os.rename(staging, out)
        return
    aside = sibling(out)
    os.rename(out, aside)
    try:
        os.rename(staging, out)
    except OSError:
        os.rename(aside, out)
        raise
    shutil.rmtree(aside)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_stages(config: PipelineConfig, out: Path) -> dict:
    """Run every stage into ``out`` and write ``run.json`` there; return the manifest.

    Once the densities are written, ``players.json`` is written beside the fit: with two
    shares (:func:`~court_fda.native.run_shares`, at most one per available core and
    ``config.threads``), the fit, clustering, evaluation and bootstrap run in the caller while a
    process forked from it writes ``players.json`` and hashes it and the two density arrays, the
    largest files of the run. With one share ``players.json`` is written and hashed before the
    fit, and nothing is forked. A failure of that share is the ingest stage's. The manifest
    takes those three digests from the share and hashes every other file itself.
    """
    court, grid = CourtSpec(config.court_width, config.court_depth), GridSpec(config.grid, config.grid)
    with _stage("ingest"):
        records, events_parsed, events_retained = ingest(config.input, court, config.min_attempts, config.threads)
    with _stage("density"):
        stack = estimate_densities(records, grid, config.threads, out)

    def work(share: int) -> MfpcaModel | dict[str, str]:
        nonlocal records
        if share == 1:
            write_players_json(records, out / "players.json")
            names = ["players.json"] + [f"densities_{comp}.npy" for comp in COMPONENTS]
            return {name: _sha256(out / name) for name in names}
        # the rosters and the position partition read ids, names and positions only: free the points
        no_points = np.empty((0, 2))
        records = [replace(record, made_points=no_points, missed_points=no_points) for record in records]
        return _analyse(config, out, stack, records)

    with _stage("ingest"):  # the players.json share's failure; the tail's stages raise their own
        if share_count(2, 1, config.threads, 2) == 1:  # the fit and players.json, each worth a share
            digests = work(1)
            model = work(0)
        else:
            model, digests = run_shares(work, 2, "players.json")

    names = [p.relative_to(out).as_posix() for p in sorted(out.rglob("*")) if p.is_file()]
    manifest = {
        "config": {key: value for key, value in config.to_dict().items() if key != "threads"},
        "summary": {
            "events_parsed": events_parsed,
            "events_retained": events_retained,
            "players_retained": len(records),
            "components": model.n_components,
            "variance_ratios": model.variance_ratios.tolist(),
        },
        "files": {name: digests.get(name) or _sha256(out / name) for name in names},
    }
    write_json(manifest, out / "run.json")
    return manifest


def _analyse(config: PipelineConfig, out: Path, stack: DensityStack, records: Sequence[PlayerRecord]) -> MfpcaModel:
    """The fit, clustering, evaluation and bootstrap of :func:`run_pipeline`, each as its own stage."""
    with _stage("mfpca"):
        mean = mean_function(stack)
        gram = gram_matrix(stack, mean)  # the fit and the bootstrap share it
        model = fit_and_save(stack, out, config.components, config.variance_threshold, gram, mean)
    with _stage("cluster"):
        clusterings = cluster_schemes(model.scores, config.schemes, config.clusters, out, model.eigenvalues, records)

    with _stage("evaluate"):
        nba = mt.positions_partition(records)
        parts = {name: mt.Partition(c.labels) for name, (c, _) in clusterings.items()}
        comparisons = {}
        silhouettes = {}
        for name, part in parts.items():
            dist = clusterings[name][1]
            comparisons[f"{name}_vs_nba"] = comparison_report(name, part, "nba", nba)
            silhouettes[name] = silhouette_entry(dist, part)
            silhouettes[f"nba_on_{name}_distance"] = silhouette_entry(dist, nba)
        if len(parts) == 2:
            comparisons["equal_vs_variance"] = comparison_report(
                "equal", parts["equal"], "variance", parts["variance"]
            )
        write_json({"comparisons": comparisons, "silhouettes": silhouettes}, out / "evaluation.json")

    if config.bootstrap_replicates >= 1:
        with _stage("bootstrap"):
            bootstrap_stability(stack, model, config.bootstrap_replicates, config.seed, out, gram=gram)
    return model
