"""Command-line interface.

Subcommands cover each pipeline stage plus the full run:

    ingest, density, mfpca (fit | scores | reconstruct), cluster,
    evaluate, bootstrap, export (mean | eigenfunction | player | medoids | densities),
    run

Exit codes: 0 on success, 1 for usage or configuration problems, and a
distinct code per failing stage: ingest 2, density 3, mfpca 4,
cluster 5, evaluate 6, bootstrap 7, export 8.

Every stage that forks cuts its work into contiguous runs of about equal
weight, one per process and at most one per core (native.plan_shares): run
and ingest parse a CSV export on at most one process per 512 KiB, each
reading one line-aligned byte range; run and density estimate the densities
on at most one per 2^27 shots times grid nodes (3,300 shots on the 201 x 201
grid); the export subcommands, mfpca reconstruct and bootstrap
--dump-replicates draw their charts on at most one per chart and per 8,192
nodes. run also writes players.json on a forked process while it fits.
--threads (and run's config key threads) caps every stage that run and
density fork; ingest and the charts have no cap. A cap that is not a
positive integer is a usage error (exit 1). BLAS runs on one thread. A
failing player, chart or row gives the error one process gives. On one
machine and one BLAS core type, every output is the same bytes at any
worker count and any OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from court_fda import cluster as cl
from court_fda import metrics as mt
from court_fda import pipeline as pl
from court_fda.export import export_fields, json_text, replacing, safe_name, write_json
from court_fda.fda import load_model, project_scores_all, reconstruct
from court_fda.grids import GridSpec
from court_fda.ingest import CourtSpec, read_players_json, write_players_json
from court_fda.native import pin_blas_single_thread

# The stages call these in court_fda.pipeline; they stay bound here for perfbench/spans.py to wrap.
from court_fda.density import build_samples  # noqa: F401
from court_fda.export import export_heatmap, write_heatmap_csv  # noqa: F401
from court_fda.fda import fit_mfpca, save_model  # noqa: F401
from court_fda.ingest import exclude_impossible, filter_players, load_events  # noqa: F401

USAGE_EXIT = 1
STAGE_EXIT = {stage: code for code, stage in enumerate(pl.STAGES, start=2)}
STAGE_EXIT["run"] = USAGE_EXIT


class _Parser(argparse.ArgumentParser):
    """Exits with USAGE_EXIT on a usage error, not argparse's 2, which is ingest's code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """The type of both ``--threads`` flags: ``text`` as a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _chart_name(player_id: str, player_ids: list[str]) -> str:
    """The ``safe_name`` of ``player_id``, refused when another id in ``player_ids`` gives the same name."""
    name = safe_name(player_id)
    others = [pid for pid in player_ids if pid != player_id and safe_name(pid) == name]
    if others:
        raise ValueError(f"players {player_id!r} and {others[0]!r} would share the chart name {name}")
    return name


def cmd_ingest(args) -> str:
    out = Path(args.out)
    records, parsed, retained = pl.ingest(args.input, CourtSpec(args.court_width, args.court_depth), args.min_attempts)
    out.mkdir(parents=True, exist_ok=True)
    write_players_json(records, out / "players.json")
    return (
        f"parsed {parsed} events, retained {retained} in bounds, "
        f"{len(records)} players above {args.min_attempts} attempts -> {out / 'players.json'}"
    )


def cmd_density(args) -> str:
    records = read_players_json(args.players)
    grid = GridSpec(args.grid, args.grid)
    out = Path(args.out)
    stack = pl.estimate_densities(records, grid, args.threads, out)
    return f"estimated {len(stack)} density pairs on a {grid.nx}x{grid.ny} grid -> {out}"


def cmd_mfpca_fit(args) -> str:
    stack = pl.read_densities(args.densities)
    out = Path(args.out)
    components = args.components if args.variance is None else None
    model = pl.fit_and_save(stack, out, components, args.variance)
    shares = ", ".join(f"{r:.4f}" for r in model.variance_ratios)
    return f"fitted {model.n_components} components (variance shares {shares}) -> {out / 'model.json'}"


def cmd_mfpca_scores(args) -> str:
    model = load_model(args.model)
    stack = pl.read_densities(args.densities)
    scores = project_scores_all(stack, model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / "scores.csv") as temporary:
        pl.write_scores_csv(scores, temporary)
    return f"projected {len(stack)} samples onto {model.n_components} components -> {out / 'scores.csv'}"


def cmd_mfpca_reconstruct(args) -> str:
    model = load_model(args.model)
    try:
        idx = model.scores.player_ids.index(args.player)
    except ValueError:
        raise ValueError(f"player {args.player!r} is not in the fitted model") from None
    k = args.k if args.k is not None else model.n_components
    if not 1 <= k <= model.n_components:
        raise ValueError(f"--k must be in [1, {model.n_components}]")
    name = _chart_name(args.player, model.scores.player_ids)
    field = reconstruct(model.scores.values[idx, :k], model)
    out = Path(args.out)
    export_fields([(field, out / f"reconstruction_{name}_k{k}", "unit")], model.grid)
    return f"reconstructed {args.player} with {k} components -> {out}"


def cmd_cluster(args) -> str:
    scores = pl.read_scores_csv(args.scores)
    scheme = cl.WeightScheme(args.weights)
    eigenvalues = None
    if scheme is cl.WeightScheme.VARIANCE_PROPORTION:
        if not args.model:
            raise ValueError("--model is required for variance-proportion weighting")
        eigenvalues = load_model(args.model).eigenvalues
    records = read_players_json(args.players, scores.player_ids) if args.players else None
    out = Path(args.out)
    [(clustering, _)] = pl.cluster_schemes(scores, [scheme], args.k, out, eigenvalues, records).values()
    return f"k-medoids (k={args.k}, {scheme.value} weights): total cost {clustering.total_cost:.6f} -> {out}"


def cmd_evaluate(args) -> str | None:
    part_a, doc_a = pl.read_clusters_json(args.clusters)
    ids_a = [p["player_id"] for p in doc_a["players"]]
    scores = pl.read_scores_csv(args.scores)
    if scores.player_ids != ids_a:
        raise ValueError("score rows do not match the clustering's player order")
    if len(doc_a["weights"]) != scores.n_components:
        raise ValueError(f"the clustering has {len(doc_a['weights'])} weights for {scores.n_components} score columns")
    standardized = cl.standardize_scores(scores)
    dist = cl.weighted_distances(standardized.values, np.array(doc_a["weights"], dtype=float))

    if args.against == "nba":
        if not args.players:
            raise ValueError("--players is required to evaluate against the position labels")
        part_b = mt.positions_partition(read_players_json(args.players, ids_a))
        name_b = "nba"
    else:
        part_b, doc_b = pl.read_clusters_json(args.against)
        if [p["player_id"] for p in doc_b["players"]] != ids_a:
            raise ValueError("the two clusterings cover different players")
        name_b = doc_b["scheme"]

    result = {
        "comparison": pl.comparison_report(doc_a["scheme"], part_a, name_b, part_b),
        "silhouette": pl.silhouette_entry(dist, part_a),
    }
    if args.out:
        write_json(result, args.out)
        return None
    return json_text(result).removesuffix("\n")


def cmd_bootstrap(args) -> str:
    stack = pl.read_densities(args.densities)
    model = load_model(args.model or Path(args.densities) / "model.json")
    out = Path(args.out)
    report = pl.bootstrap_stability(stack, model, args.replicates, args.seed, out, args.dump_replicates)
    mean_alignment = ", ".join(f"{a:.4f}" for a in report.mean_alignment())
    return f"{args.replicates} replicates, mean alignments per component: {mean_alignment} -> {out}"


def cmd_export(args) -> str:
    out = Path(args.out)
    if args.what in ("mean", "eigenfunction"):
        model = load_model(args.model)
        if args.what == "mean":
            export_fields([(model.mean, out / "mean", "symmetric")], model.grid)
            return f"exported mean components -> {out}"
        else:
            if not 1 <= args.k <= model.n_components:
                raise ValueError(f"--k must be in [1, {model.n_components}]")
            phi = model.eigenfunctions[args.k - 1]
            export_fields([(phi, out / f"eigenfunction_{args.k}", "symmetric")], model.grid)
            return f"exported eigenfunction {args.k} -> {out}"
    elif args.what == "player":
        model = load_model(args.model)
        base = out / f"player_{_chart_name(args.player, model.scores.player_ids)}"
        stack = pl.read_densities(args.densities)
        fields = stack.rows([args.player])
        if stack.grid != model.grid:
            raise ValueError(f"the densities lie on {stack.grid}, the model on {model.grid}")
        ids = model.scores.player_ids
        scores = model.scores.values[ids.index(args.player)] if args.player in ids else ()
        charts = [(fields[:, 0], base, "unit"), (model.mean, f"{base}_mean", "symmetric")]
        charts += [(score * phi, f"{base}_component_{j}", "symmetric")
                   for j, (score, phi) in enumerate(zip(scores, model.eigenfunctions), start=1)]
        export_fields(charts, model.grid)
        return f"exported decomposition of {args.player} -> {out}"
    elif args.what == "densities":
        stack = pl.read_densities(args.densities)
        names = [_chart_name(pid, stack.player_ids) for pid in stack.player_ids]
        fields = stack.rows(stack.player_ids)  # every row is charted
        export_fields([(fields[:, i], out / f"density_{name}", "raw")
                       for i, name in enumerate(names)], stack.grid)
        return f"exported {len(stack)} raw density pairs -> {out}"
    else:  # medoids
        _, doc = pl.read_clusters_json(args.clusters)
        stack = pl.read_densities(args.densities)
        fields = stack.rows(doc["medoid_player_ids"])
        export_fields([(fields[:, j], out / f"medoid_{doc['scheme']}_cluster{j + 1}", "unit")
                       for j in range(fields.shape[1])], stack.grid)
        return f"exported {fields.shape[1]} medoid charts -> {out}"


def cmd_run(args) -> str:
    base = pl.PipelineConfig.from_file(args.config).to_dict() if args.config else pl.PipelineConfig().to_dict()
    flags = {key: value for key, value in vars(args).items() if key in base}
    # either component-count flag clears the other setting
    if "components" in flags:
        base["variance_threshold"] = None
    if "variance_threshold" in flags:
        base["components"] = None
    base.update(flags)
    config = pl.PipelineConfig.from_dict(base)
    manifest = pl.run_pipeline(config)
    return (
        f"pipeline complete: {manifest['summary']['players_retained']} players, "
        f"{manifest['summary']['components']} components, "
        f"{len(manifest['files'])} files -> {Path(config.out) / 'run.json'}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="court-fda", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, normalize, and filter a shot export")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-attempts", type=int, default=pl.PipelineConfig.min_attempts)
    p.add_argument("--court-width", type=float, default=pl.PipelineConfig.court_width)
    p.add_argument("--court-depth", type=float, default=pl.PipelineConfig.court_depth)
    p.set_defaults(func=cmd_ingest, stage="ingest")

    p = sub.add_parser("density", help="estimate per-player density pairs")
    p.add_argument("--players", required=True, help="players.json from ingest")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=pl.PipelineConfig.grid)
    p.add_argument("--threads", type=_positive_int, help="worker cap (default: no cap)")
    p.set_defaults(func=cmd_density, stage="density")

    p = sub.add_parser("mfpca", help="fit, score, or reconstruct")
    msub = p.add_subparsers(dest="subcommand", required=True)

    pf = msub.add_parser("fit")
    pf.add_argument("--densities", required=True, help="directory holding the density stack")
    pf.add_argument("--out", required=True)
    group = pf.add_mutually_exclusive_group()
    group.add_argument("--components", type=int, default=pl.PipelineConfig.components)
    group.add_argument("--variance", type=float, default=None)
    pf.set_defaults(func=cmd_mfpca_fit, stage="mfpca")

    ps = msub.add_parser("scores")
    ps.add_argument("--model", required=True)
    ps.add_argument("--densities", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_mfpca_scores, stage="mfpca")

    pr = msub.add_parser("reconstruct")
    pr.add_argument("--model", required=True)
    pr.add_argument("--player", required=True)
    pr.add_argument("--k", type=int, default=None)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_mfpca_reconstruct, stage="mfpca")

    p = sub.add_parser("cluster", help="k-medoids on component scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--k", type=int, default=pl.PipelineConfig.clusters)
    p.add_argument("--weights", choices=["equal", "variance"], default="equal")
    p.add_argument("--model", default=None, help="model.json (required for variance weights)")
    p.add_argument("--players", default=None, help="players.json for the roster listing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster, stage="cluster")

    p = sub.add_parser("evaluate", help="compare a clustering to another partition")
    p.add_argument("--clusters", required=True)
    p.add_argument("--against", required=True, help="'nba' or another clusters JSON")
    p.add_argument("--scores", required=True)
    p.add_argument("--players", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate, stage="evaluate")

    p = sub.add_parser("bootstrap", help="resampling stability of the components")
    p.add_argument("--densities", required=True)
    p.add_argument("--model", default=None, help="model.json fitted on --densities (default: model.json there)")
    p.add_argument("--replicates", type=int, default=pl.PipelineConfig.bootstrap_replicates)
    p.add_argument("--seed", type=int, default=pl.PipelineConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-replicates", default=None, help="directory for per-replicate heatmap dumps")
    p.set_defaults(func=cmd_bootstrap, stage="bootstrap")

    p = sub.add_parser("export", help="heatmap exports of fitted or raw fields")
    esub = p.add_subparsers(dest="what", required=True)
    for what, flags in (
        ("mean", ["--model"]),
        ("eigenfunction", ["--model", "--k"]),
        ("player", ["--model", "--densities", "--player"]),
        ("medoids", ["--clusters", "--densities"]),
        ("densities", ["--densities"]),
    ):
        pe = esub.add_parser(what)
        for flag in flags:
            pe.add_argument(flag, required=True, type=int if flag == "--k" else str)
        pe.add_argument("--out", required=True)
        pe.set_defaults(func=cmd_export, stage="export")

    # only the flags given reach the namespace, named as the PipelineConfig fields they set
    p = sub.add_parser("run", help="full pipeline with manifest", argument_default=argparse.SUPPRESS)
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--config", default=None, help="flat JSON config; flags override its values")
    p.add_argument("--min-attempts", type=int)
    p.add_argument("--grid", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--components", type=int)
    group.add_argument("--variance", dest="variance_threshold", metavar="VARIANCE", type=float)
    p.add_argument("--k", dest="clusters", metavar="K", type=int, help="cluster count")
    p.add_argument("--weights", dest="weight_scheme", choices=["equal", "variance", "both"])
    p.add_argument("--replicates", dest="bootstrap_replicates", metavar="REPLICATES", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--court-width", type=float)
    p.add_argument("--court-depth", type=float)
    p.add_argument("--threads", type=_positive_int)
    p.set_defaults(func=cmd_run, stage="run")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its closing status line; returns the exit code.

    Each ``cmd_*`` function returns that line (or None: nothing to print). A closed
    standard output does not fail a command that has finished: the line is dropped.
    """
    args = build_parser().parse_args(argv)
    pin_blas_single_thread()
    try:
        status = args.func(args)
    except (pl.StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT.get(getattr(exc, "stage", args.stage), USAGE_EXIT)
    if status is not None:
        try:
            print(status, flush=True)
        except BrokenPipeError:  # the reader is gone; send what is left, and the exit-time flush, nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
