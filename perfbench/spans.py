"""In-memory spans around the calls into each court_fda layer.

The program itself carries no tracing. :func:`install` replaces, from
outside the package, the names that ``court_fda.pipeline``,
``court_fda.cli``, ``court_fda.bootstrap`` and ``court_fda.export`` call
with wrappers that record one span per call: name, start, end, parent
span and run id, plus optional counts taken from the call's arguments
and result. Spans stay in memory until the worker writes its report.

:func:`layer_metrics` turns the spans of one traced iteration (one or
more processes) into the per-layer metrics the benchmark reports. A
layer's self time is the time its spans cover minus the time their child
spans cover. Spans below ``bootstrap.stability_study`` count towards the
bootstrap layer, so replicate refits and dumps are not counted as
pipeline fits or exports.
"""

from __future__ import annotations

import importlib
import math
import os
import time

LAYERS = ("ingest", "density", "fda", "cluster", "metrics", "bootstrap", "export", "pipeline", "cli")

# Subcommands of the CLI, named as in the cli.<subcommand>_s metrics.
SUBCOMMANDS = (
    "run", "ingest", "density", "mfpca_fit", "mfpca_scores",
    "cluster", "evaluate", "bootstrap", "export",
)

MB = float(1 << 20)


class Recorder:
    """Collects spans of one process; the stack gives each span its parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(result, *args)`` adds counts."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def _size_of(path) -> dict:
    return {"files": 1, "bytes": os.path.getsize(path)}


def _count_events(result, *args, **kwargs) -> dict:
    return {"rows": len(result)}


def _count_players(result, *args, **kwargs) -> dict:
    return {"players": len(result)}


def _count_kde(result, records, grid, threads=1) -> dict:
    nx, ny = grid.nx, grid.ny
    points = [len(r.made_points) for r in records] + [len(r.missed_points) for r in records]
    return {
        "fields": len(points),
        "kernel_evals": sum(n * (nx + ny) for n in points),
        "gemm_flops": sum(2 * n * nx * ny for n in points),
    }


def _count_fit(model, *args, **kwargs) -> dict:
    n, nx, ny = model.n_samples, model.grid.nx, model.grid.ny
    return {"gram_flops": 4 * n * n * nx * ny, "stack_bytes": n * 2 * nx * ny * 8}


def _count_written(result, obj, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _count_kmedoids(result, dist, k, *args, **kwargs) -> dict:
    from court_fda.cluster import EXACT_ENUMERATION_LIMIT

    return {"exact": int(math.comb(len(dist), k) <= EXACT_ENUMERATION_LIMIT)}


def _count_csv(result, values, grid, path) -> dict:
    return _size_of(path)


def _count_pgm(result, values, path) -> dict:
    return _size_of(path)


def _count_report(result, report) -> dict:
    return {"replicates": report.n_replicates, "flagged": len(report.flagged)}


# (module, attribute, span name, counter). A name imported with
# ``from ... import`` is wrapped in the importing module; a name called
# through a module alias (``cl.kmedoids``) is wrapped on its own module.
WRAPS = [
    ("court_fda.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("court_fda.pipeline", "write_densities", "pipeline.write_densities", None),
    ("court_fda.pipeline", "read_densities", "pipeline.read_densities", None),
    ("court_fda.pipeline", "write_scores_csv", "pipeline.write_scores_csv", None),
    ("court_fda.pipeline", "read_scores_csv", "pipeline.read_scores_csv", None),
    ("court_fda.cluster", "standardize_scores", "cluster.standardize_scores", None),
    ("court_fda.cluster", "distance_matrix", "cluster.distance_matrix", None),
    ("court_fda.cluster", "kmedoids", "cluster.kmedoids", _count_kmedoids),
    ("court_fda.cluster", "resolve_weights", "cluster.resolve_weights", None),
    ("court_fda.cluster", "format_roster", "cluster.format_roster", None),
    ("court_fda.metrics", "positions_partition", "metrics.positions_partition", None),
    ("court_fda.metrics", "confusion_matrix", "metrics.confusion_matrix", None),
    ("court_fda.metrics", "adjusted_rand_index", "metrics.adjusted_rand_index", None),
    ("court_fda.metrics", "silhouette", "metrics.silhouette", None),
    ("court_fda.metrics", "per_cluster_silhouette", "metrics.per_cluster_silhouette", None),
    ("court_fda.bootstrap", "stability_study", "bootstrap.stability_study", None),
    ("court_fda.bootstrap", "report_to_dict", "bootstrap.report_to_dict", _count_report),
    ("court_fda.bootstrap", "fit_mfpca", "bootstrap.refit", None),
    ("court_fda.bootstrap", "_dump_replicate", "bootstrap.dump", None),
    ("court_fda.export", "export_heatmap", "export.export_heatmap", None),
    ("court_fda.export", "write_heatmap_csv", "export.write_heatmap_csv", _count_csv),
    ("court_fda.export", "write_heatmap_pgm", "export.write_heatmap_pgm", _count_pgm),
]
for _module in ("court_fda.pipeline", "court_fda.cli"):
    WRAPS += [
        (_module, "load_events", "ingest.load_events", _count_events),
        (_module, "exclude_impossible", "ingest.exclude_impossible", _count_events),
        (_module, "filter_players", "ingest.filter_players", _count_players),
        (_module, "write_players_json", "ingest.write_players_json", _count_written),
        (_module, "build_samples", "density.build_samples", _count_kde),
        (_module, "fit_mfpca", "fda.fit_mfpca", _count_fit),
        (_module, "save_model", "fda.save_model", _count_written),
        (_module, "export_heatmap", "export.export_heatmap", None),
        (_module, "write_heatmap_csv", "export.write_heatmap_csv", _count_csv),
    ]
WRAPS += [
    ("court_fda.cli", "read_players_json", "ingest.read_players_json", None),
    ("court_fda.cli", "load_model", "fda.load_model", None),
    ("court_fda.cli", "project_scores_all", "fda.project_scores_all", None),
    ("court_fda.cli", "reconstruct", "fda.reconstruct", None),
]


def install(recorder: Recorder) -> None:
    """Wrap every name in :data:`WRAPS`; all wrappers share ``recorder``."""
    for module_name, attr, name, count in WRAPS:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))


def subcommand_span(argv: list[str]) -> str:
    """Root span name of a CLI invocation, e.g. ``cli.mfpca_fit``."""
    sub = argv[0]
    if sub == "mfpca":
        sub = f"mfpca_{argv[1]}"
    return f"cli.{sub}"


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer of one process's spans, keyed by layer name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[_layer(spans, span)] += _duration(span) - child_time[span["id"]]
    return totals


def _in_bootstrap(spans: list[dict], span: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == "bootstrap.stability_study":
            return True
        parent = spans[parent]["parent"]
    return False


def _layer(spans: list[dict], span: dict) -> str:
    return "bootstrap" if _in_bootstrap(spans, span) else span["name"].split(".", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``processes`` holds each worker's report: its spans, its import time
    (``setup_s``) and its CPU seconds over the timed call (``cpu_s``).
    """
    total: dict[str, float] = {}
    selfs = dict.fromkeys(LAYERS, 0.0)

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    for proc in processes:
        spans = proc["spans"]
        for layer, value in self_times(spans).items():
            selfs[layer] += value
        for span in spans:
            key = f"{span['name']}:{'boot' if _in_bootstrap(spans, span) else 'main'}"
            add(f"{key}:s", _duration(span))
            add(f"{key}:n", 1)
            for field, value in span.get("counts", {}).items():
                add(f"{key}:{field}", value)

    def get(name: str, field: str = "s", where: str = "main") -> float:
        return total.get(f"{name}:{where}:{field}", 0.0)

    run_s = sum(_duration(p["spans"][0]) for p in processes)
    rows = get("ingest.load_events", "rows")
    load_s = get("ingest.load_events")
    build_s = get("density.build_samples")
    csv_s = get("export.write_heatmap_csv")
    replicates = get("bootstrap.report_to_dict", "replicates")
    refits = get("bootstrap.refit", "n", "boot")
    cpu_s = sum(p["cpu_s"] for p in processes)

    metrics = {
        "ingest.load_events_s": load_s,
        "ingest.exclude_impossible_s": get("ingest.exclude_impossible"),
        "ingest.filter_players_s": get("ingest.filter_players"),
        "ingest.write_players_json_s": get("ingest.write_players_json"),
        "ingest.read_players_json_s": get("ingest.read_players_json"),
        "ingest.rows": rows,
        "ingest.rows_dropped": rows - get("ingest.exclude_impossible", "rows"),
        "ingest.players": get("ingest.filter_players", "players"),
        "ingest.players_json_mb": get("ingest.write_players_json", "bytes") / MB,
        "ingest.rows_per_s": _ratio(rows, load_s),
        "density.build_samples_s": build_s,
        "density.fields": get("density.build_samples", "fields"),
        "density.kernel_evals": get("density.build_samples", "kernel_evals"),
        "density.gemm_flops": get("density.build_samples", "gemm_flops"),
        "density.gflops_per_s": _ratio(get("density.build_samples", "gemm_flops"), build_s) / 1e9,
        "fda.fit_mfpca_s": get("fda.fit_mfpca"),
        "fda.project_scores_all_s": get("fda.project_scores_all"),
        "fda.save_model_s": get("fda.save_model"),
        "fda.load_model_s": get("fda.load_model"),
        "fda.model_json_mb": get("fda.save_model", "bytes") / MB,
        "fda.gram_flops": get("fda.fit_mfpca", "gram_flops"),
        "fda.stack_mb": get("fda.fit_mfpca", "stack_bytes") / MB,
        "cluster.distance_matrix_s": get("cluster.distance_matrix"),
        "cluster.kmedoids_s": get("cluster.kmedoids"),
        "cluster.exact_path": _ratio(get("cluster.kmedoids", "exact"), get("cluster.kmedoids", "n")),
        "metrics.silhouette_s": get("metrics.silhouette"),
        "metrics.adjusted_rand_index_s": get("metrics.adjusted_rand_index"),
        "bootstrap.stability_study_s": get("bootstrap.stability_study"),
        "bootstrap.refit_s": get("bootstrap.refit", "s", "boot"),
        "bootstrap.refits": refits,
        "bootstrap.useful_refit_ratio": _ratio(replicates, refits),
        "bootstrap.dump_s": get("bootstrap.dump", "s", "boot"),
        "bootstrap.dump_files": get("export.write_heatmap_csv", "files", "boot")
        + get("export.write_heatmap_pgm", "files", "boot"),
        "bootstrap.flagged": get("bootstrap.report_to_dict", "flagged"),
        "export.export_heatmap_s": get("export.export_heatmap"),
        "export.write_heatmap_csv_s": csv_s,
        "export.write_heatmap_pgm_s": get("export.write_heatmap_pgm"),
        "export.files": get("export.write_heatmap_csv", "files") + get("export.write_heatmap_pgm", "files"),
        "export.mb": (get("export.write_heatmap_csv", "bytes") + get("export.write_heatmap_pgm", "bytes")) / MB,
        "export.csv_mb_per_s": _ratio(get("export.write_heatmap_csv", "bytes") / MB, csv_s),
        "pipeline.write_densities_s": get("pipeline.write_densities"),
        "pipeline.read_densities_s": get("pipeline.read_densities"),
        "pipeline.write_scores_csv_s": get("pipeline.write_scores_csv"),
        "pipeline.cpu_s": cpu_s,
        "pipeline.cpu_util": _ratio(cpu_s, run_s),
        "cli.processes": float(len(processes)),
        "cli.import_s": sum(p["setup_s"] for p in processes),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer]
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = get(f"cli.{sub}")
    return metrics
