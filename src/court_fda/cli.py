"""Command-line interface.

Subcommands cover each pipeline stage plus the full run:

    ingest, density, mfpca (fit | scores | reconstruct), cluster,
    evaluate, bootstrap, export (mean | eigenfunction | player | medoids),
    run

Exit codes: 0 on success, 1 for usage or configuration problems, and a
distinct code per failing stage: ingest 2, density 3, mfpca 4,
cluster 5, evaluate 6, bootstrap 7, export 8. The COURT_FDA_THREADS
environment variable sets the default worker count; --threads overrides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from court_fda import bootstrap as bt
from court_fda import cluster as cl
from court_fda import metrics as mt
from court_fda import pipeline as pl
from court_fda.export import export_heatmap, export_medoid_heatmaps, export_model_heatmaps, json_text, write_json
from court_fda.fda import fit_mfpca, load_model, project_scores_all, reconstruct
from court_fda.grids import GridSpec
from court_fda.ingest import CourtSpec, read_players_json

# The stages call these in court_fda.pipeline; they stay bound here for perfbench/spans.py to wrap.
from court_fda.density import build_samples  # noqa: F401
from court_fda.export import write_heatmap_csv  # noqa: F401
from court_fda.fda import save_model  # noqa: F401
from court_fda.ingest import exclude_impossible, filter_players, load_events, write_players_json  # noqa: F401

USAGE_EXIT = 1
STAGE_EXIT = {stage: code for code, stage in enumerate(pl.STAGES, start=2)}
STAGE_EXIT["run"] = USAGE_EXIT


def _threads_default() -> int:
    raw = os.environ.get("COURT_FDA_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    records, parsed, retained = pl.ingest(args.input, CourtSpec(args.court_width, args.court_depth),
                                          args.min_attempts, out)
    print(
        f"parsed {parsed} events, retained {retained} in bounds, "
        f"{len(records)} players above {args.min_attempts} attempts -> {out / 'players.json'}"
    )
    return 0


def cmd_density(args) -> int:
    records = read_players_json(args.players)
    grid = GridSpec(args.grid, args.grid)
    out = _out_dir(args)
    stack = pl.estimate_densities(records, grid, args.threads, out, args.dump_densities)
    print(f"estimated {len(stack)} density pairs on a {grid.nx}x{grid.ny} grid -> {out}")
    return 0


def cmd_mfpca_fit(args) -> int:
    stack = pl.read_densities(args.densities)
    out = _out_dir(args)
    components = args.components if args.variance is None else None
    model = pl.fit_and_save(stack, out, components, args.variance)
    shares = ", ".join(f"{r:.4f}" for r in model.variance_ratios)
    print(f"fitted {model.n_components} components (variance shares {shares}) -> {out / 'model.json'}")
    return 0


def cmd_mfpca_scores(args) -> int:
    model = load_model(args.model)
    stack = pl.read_densities(args.densities)
    scores = project_scores_all(stack, model)
    out = _out_dir(args)
    pl.write_scores_csv(scores, out / "scores.csv")
    print(f"projected {len(stack)} samples onto {model.n_components} components -> {out / 'scores.csv'}")
    return 0


def cmd_mfpca_reconstruct(args) -> int:
    model = load_model(args.model)
    try:
        idx = model.scores.player_ids.index(args.player)
    except ValueError:
        raise ValueError(f"player {args.player!r} is not in the fitted model") from None
    k = args.k if args.k is not None else model.n_components
    field = reconstruct(model.scores.values[idx, :k], model)
    out = Path(args.out)
    for comp_idx, comp in enumerate(pl.COMPONENTS):
        export_heatmap(field[comp_idx], model.grid, out / f"reconstruction_{args.player}_k{k}_{comp}", mode="unit")
    print(f"reconstructed {args.player} with {k} components -> {out}")
    return 0


def cmd_cluster(args) -> int:
    scores = pl.read_scores_csv(args.scores)
    scheme = cl.WeightScheme(args.weights)
    eigenvalues = None
    if scheme is cl.WeightScheme.VARIANCE_PROPORTION:
        if not args.model:
            raise ValueError("--model is required for variance-proportion weighting")
        eigenvalues = load_model(args.model).eigenvalues
    records = read_players_json(args.players, scores.player_ids) if args.players else None
    out = _out_dir(args)
    [(clustering, _)] = pl.cluster_schemes(scores, [scheme], args.k, out, eigenvalues, records).values()
    print(
        f"k-medoids (k={args.k}, {scheme.value} weights): total cost {clustering.total_cost:.6f} -> {out}"
    )
    return 0


def _load_cluster_partition(path: str) -> tuple[mt.Partition, dict]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not {"players", "weights", "scheme"} <= set(doc):
        raise ValueError(f"malformed clustering document {path}")
    labels = np.array([p["cluster"] for p in doc["players"]], dtype=int)
    return mt.Partition(labels), doc


def cmd_evaluate(args) -> int:
    part_a, doc_a = _load_cluster_partition(args.clusters)
    ids_a = [p["player_id"] for p in doc_a["players"]]
    scores = pl.read_scores_csv(args.scores)
    if scores.player_ids != ids_a:
        raise ValueError("score rows do not match the clustering's player order")
    standardized = cl.standardize_scores(scores)
    dist = cl.weighted_distances(standardized.values, np.array(doc_a["weights"], dtype=float))

    if args.against == "nba":
        if not args.players:
            raise ValueError("--players is required to evaluate against the position labels")
        part_b = mt.positions_partition(read_players_json(args.players, ids_a))
        name_b = "nba"
    else:
        part_b, doc_b = _load_cluster_partition(args.against)
        if [p["player_id"] for p in doc_b["players"]] != ids_a:
            raise ValueError("the two clusterings cover different players")
        name_b = doc_b["scheme"]

    result = {
        "comparison": pl.comparison_report(doc_a["scheme"], part_a, name_b, part_b),
        "silhouette": pl.silhouette_entry(dist, part_a),
    }
    if args.out:
        write_json(result, args.out)
    else:
        sys.stdout.write(json_text(result))
    return 0


def cmd_bootstrap(args) -> int:
    stack = pl.read_densities(args.densities)
    reference = fit_mfpca(stack, n_components=args.components)
    out = _out_dir(args)
    report = bt.stability_study(
        stack,
        reference,
        n_replicates=args.replicates,
        seed=args.seed,
        dump_dir=args.dump_replicates,
    )
    write_json(bt.report_to_dict(report), out / "stability.json")
    mean_alignment = ", ".join(f"{a:.4f}" for a in report.mean_alignment())
    print(f"{args.replicates} replicates, mean alignments per component: {mean_alignment} -> {out}")
    return 0


def cmd_export(args) -> int:
    out = Path(args.out)
    if args.what in ("mean", "eigenfunction"):
        model = load_model(args.model)
        if args.what == "mean":
            export_model_heatmaps(model, out, eigenfunctions=())
            print(f"exported mean components -> {out}")
        else:
            if args.k is None or not 1 <= args.k <= model.n_components:
                raise ValueError(f"--k must be in [1, {model.n_components}]")
            export_model_heatmaps(model, out, mean=False, eigenfunctions=[args.k])
            print(f"exported eigenfunction {args.k} -> {out}")
    elif args.what == "player":
        model = load_model(args.model)
        sample = pl.read_densities(args.densities, [args.player]).values[:, 0]
        idx = model.scores.player_ids.index(args.player) if args.player in model.scores.player_ids else None
        scores = model.scores.values[idx] if idx is not None else None
        for comp_idx, comp in enumerate(pl.COMPONENTS):
            export_heatmap(sample[comp_idx], model.grid, out / f"player_{args.player}_{comp}", mode="unit")
            export_heatmap(model.mean[comp_idx], model.grid, out / f"player_{args.player}_mean_{comp}")
            if scores is not None:
                for j, pair in enumerate(model.pairs, start=1):
                    contribution = scores[j - 1] * pair.eigenfunction[comp_idx]
                    export_heatmap(
                        contribution, model.grid, out / f"player_{args.player}_component_{j}_{comp}"
                    )
        print(f"exported decomposition of {args.player} -> {out}")
    else:  # medoids
        _, doc = _load_cluster_partition(args.clusters)
        stack = pl.read_densities(args.densities, doc["medoid_player_ids"])
        export_medoid_heatmaps(stack, {doc["scheme"]: range(len(stack))}, out)
        print(f"exported {len(stack)} medoid charts -> {out}")
    return 0


def cmd_run(args) -> int:
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
    print(
        f"pipeline complete: {manifest['summary']['players_retained']} players, "
        f"{manifest['summary']['components']} components, "
        f"{len(manifest['files'])} files -> {Path(config.out) / 'run.json'}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="court-fda", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    threads = _threads_default()

    p = sub.add_parser("ingest", help="parse, normalize, and filter a shot export")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-attempts", type=int, default=1000)
    p.add_argument("--court-width", type=float, default=50.0)
    p.add_argument("--court-depth", type=float, default=47.0)
    p.set_defaults(func=cmd_ingest, stage="ingest")

    p = sub.add_parser("density", help="estimate per-player density pairs")
    p.add_argument("--players", required=True, help="players.json from ingest")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--dump-densities", default=None, help="directory for per-player CSV dumps")
    p.add_argument("--threads", type=int, default=threads)
    p.set_defaults(func=cmd_density, stage="density")

    p = sub.add_parser("mfpca", help="fit, score, or reconstruct")
    msub = p.add_subparsers(dest="subcommand", required=True)

    pf = msub.add_parser("fit")
    pf.add_argument("--densities", required=True, help="directory holding the density stack")
    pf.add_argument("--out", required=True)
    group = pf.add_mutually_exclusive_group()
    group.add_argument("--components", type=int, default=4)
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
    p.add_argument("--k", type=int, default=5)
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
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--components", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-replicates", default=None, help="directory for per-replicate heatmap dumps")
    p.set_defaults(func=cmd_bootstrap, stage="bootstrap")

    p = sub.add_parser("export", help="heatmap exports of fitted or raw fields")
    p.add_argument("what", choices=["mean", "eigenfunction", "player", "medoids"])
    p.add_argument("--model", default=None)
    p.add_argument("--densities", default=None)
    p.add_argument("--clusters", default=None)
    p.add_argument("--player", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export, stage="export")

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
    p.add_argument("--threads", type=int)
    p.add_argument("--dump-densities", action="store_true")
    p.set_defaults(func=cmd_run, stage="run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (pl.StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT.get(getattr(exc, "stage", args.stage), USAGE_EXIT)


if __name__ == "__main__":
    sys.exit(main())
