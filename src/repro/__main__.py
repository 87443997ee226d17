"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build`` — sample a connected deployment (or load one), run the
  full pipeline, print a summary, optionally export SVG renderings
  and JSON graph dumps.
* ``measure`` — Table-I-style quality metrics for one instance.
* ``route`` — route a packet between two nodes over the backbone.
* ``serve`` — run the long-lived spanner construction service: the
  asyncio HTTP front end over a shared-nothing worker pool
  (:mod:`repro.service.aserver`).
* ``mobility`` — drive a seeded random-waypoint trace through the one
  mobility loop (:mod:`repro.mobility.session`) under one of two
  policies: the incremental maintenance engine (:mod:`repro.incremental`,
  with the rebuild-equivalence tripwire; default) or the paper's
  break-triggered full rebuild as the baseline.
* ``experiments`` — regenerate the paper's tables/figures (delegates
  to :mod:`repro.experiments.harness`).
* ``validate`` — run the declarative invariant matrix over the
  scenario corpus (:mod:`repro.validation`); the nightly validation
  farm and the blocking PR job are this one command.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.metrics import measure_topology
from repro.core.spanner import BackboneResult, build_backbone
from repro.experiments.harness import main as harness_main
from repro.experiments.runner import STRETCH_TOPOLOGIES, build_all_topologies
from repro.graphs.planarity import is_planar_embedding
from repro.routing.backbone_routing import backbone_route
from repro.viz.svg import render_backbone_svg
from repro.workloads.generators import Deployment, connected_udg_instance
from repro.workloads.io import load_deployment, save_deployment, save_graph


def _add_deployment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--radius", type=float, default=60.0)
    parser.add_argument("--side", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=0)
    from repro.workloads.generators import GENERATORS, MODELS

    parser.add_argument(
        "--generator",
        choices=tuple(GENERATORS),
        default="uniform",
    )
    parser.add_argument(
        "--model",
        choices=MODELS,
        default="udg",
        help="radio model: sharp disk or quasi-UDG gray zone",
    )
    parser.add_argument(
        "--epsilon", type=float, default=0.75,
        help="quasi-UDG reliable-zone fraction of the radius",
    )
    parser.add_argument(
        "--load", type=Path, default=None, help="load a saved deployment JSON"
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="NAME[/INDEX]",
        help="use a canonical corpus instance (see `python -m repro corpus`)",
    )


def _get_deployment(args: argparse.Namespace) -> Deployment:
    if args.load is not None:
        return load_deployment(args.load)
    if args.corpus is not None:
        from repro.workloads.corpus import get_instance

        name, _, index = args.corpus.partition("/")
        return get_instance(name, int(index) if index else 0)
    rng = random.Random(args.seed)
    return connected_udg_instance(
        args.nodes,
        args.side,
        args.radius,
        rng,
        generator=args.generator,
        model=getattr(args, "model", "udg"),
        epsilon=getattr(args, "epsilon", 0.75),
    )


def _summarize(result: BackboneResult) -> None:
    udg = result.udg
    print(f"nodes: {udg.node_count}, UDG links: {udg.edge_count}")
    print(
        f"roles: {len(result.dominators)} dominators, "
        f"{len(result.connectors)} connectors, "
        f"{len(result.dominatees)} dominatees"
    )
    print(
        f"LDel(ICDS): {result.ldel_icds.edge_count} edges, planar: "
        f"{is_planar_embedding(result.ldel_icds)}"
    )
    print(
        f"messages/node: CDS max {result.stats_cds.max_per_node()}, "
        f"pipeline max {result.stats_ldel.max_per_node()}, "
        f"pipeline avg {result.stats_ldel.avg_per_node(udg.node_count):.1f}"
    )


def cmd_build(args: argparse.Namespace) -> int:
    deployment = _get_deployment(args)
    result = build_backbone(deployment.points, deployment.radius)
    _summarize(result)
    if args.save_deployment:
        save_deployment(deployment, args.save_deployment)
        print(f"deployment saved to {args.save_deployment}")
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for which in ("cds", "icds", "ldel_icds", "ldel_icds_prime"):
            svg = render_backbone_svg(result, which=which)
            path = args.out_dir / f"{which}.svg"
            path.write_text(svg)
            save_graph(getattr(result, which), args.out_dir / f"{which}.json")
        print(f"SVG + JSON written to {args.out_dir}/")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    from repro.core.oracle import DistanceOracle

    deployment = _get_deployment(args)
    udg = deployment.udg()
    graphs, _ = build_all_topologies(udg)
    oracle = DistanceOracle(udg)  # shares the UDG matrices across rows
    print(f"{'topology':<12}{'edges':>7}{'deg_avg':>9}{'deg_max':>9}{'len_avg':>9}{'hop_avg':>9}")
    for name, graph in graphs.items():
        stretch = name in STRETCH_TOPOLOGIES
        metrics = measure_topology(
            graph,
            udg,
            stretch=stretch,
            skip_udg_adjacent=STRETCH_TOPOLOGIES.get(name, False),
            oracle=oracle,
        )
        len_avg = f"{metrics.length.avg:.3f}" if metrics.length else "-"
        hop_avg = f"{metrics.hops.avg:.3f}" if metrics.hops else "-"
        print(
            f"{name:<12}{metrics.edge_count:>7}{metrics.degree_avg:>9.2f}"
            f"{metrics.degree_max:>9}{len_avg:>9}{hop_avg:>9}"
        )
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    deployment = _get_deployment(args)
    result = build_backbone(deployment.points, deployment.radius)
    n = result.udg.node_count
    if not (0 <= args.source < n and 0 <= args.target < n):
        print(f"source/target must be in [0, {n})", file=sys.stderr)
        return 2
    route = backbone_route(result, args.source, args.target, mode=args.mode)
    status = "delivered" if route.delivered else f"FAILED ({route.reason})"
    print(f"{args.source} -> {args.target}: {status}")
    print(f"path ({route.hops} hops): {' -> '.join(map(str, route.path))}")
    if route.delivered:
        print(f"path length: {route.length(result.udg):.1f}")
    return 0 if route.delivered else 1


def cmd_serve(args: argparse.Namespace) -> int:
    service_kwargs = dict(
        cache_size=args.cache_size,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        executor_mode=args.executor,
        max_workers=args.workers,
        task_timeout=args.task_timeout,
        data_dir=str(args.data_dir) if args.data_dir else None,
    )
    from repro.service.aserver import serve_async

    return serve_async(
        args.host,
        args.port,
        pool_size=args.pool_workers,
        pool_mode=args.pool_mode,
        queue_depth=args.queue_depth,
        **service_kwargs,
    )


def cmd_mobility(args: argparse.Namespace) -> int:
    from repro.mobility.session import run_mobility_session

    if args.policy == "full" and (
        args.verify_every > 0 or args.max_dirty_fraction is not None
    ):
        print(
            "error: --verify-every and --max-dirty-fraction need "
            "--policy incremental",
            file=sys.stderr,
        )
        return 2
    deployment = _get_deployment(args)
    trace_seed = args.trace_seed if args.trace_seed is not None else args.seed
    try:
        result = run_mobility_session(
            deployment,
            policy=args.policy,
            steps=args.steps,
            dt=args.dt,
            speed=args.speed,
            pause=args.pause,
            move_fraction=args.move_fraction,
            seed=trace_seed,
            verify_every=args.verify_every,
            tile_cells=args.tile_cells,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.policy} session: {len(result.steps)} steps, "
        f"{result.rebuild_count} rebuilds (rate {result.rebuild_rate:.2f})"
    )
    print(
        f"mean retention on rebuild: {result.mean_retention_on_rebuild:.3f}, "
        f"routing availability: {result.availability:.3f}"
    )
    if args.policy == "full":
        return 0
    counters = result.counters
    print(
        f"incremental session: n={len(deployment.points)}, "
        f"{counters['steps']} steps, {counters['events']} events"
    )
    print(
        f"links: +{counters['appeared_links']} -{counters['vanished_links']}, "
        f"role changes: {counters['role_changes']}, repairs: "
        f"{counters['repairs_certified']} certified / "
        f"{counters['repairs_fallback']} fallback"
    )
    print(
        f"dirty: {counters['dirty_tiles']} tiles, "
        f"{counters['dirty_nodes']} nodes "
        f"(mean fraction {result.mean_dirty_fraction:.4f})"
    )
    if args.verify_every > 0:
        word = "all identical" if result.all_verified else "MISMATCH"
        print(f"rebuild equivalence: {counters['verifications']} checks, {word}")
    ok = result.all_verified
    if args.max_dirty_fraction is not None:
        if result.mean_dirty_fraction > args.max_dirty_fraction:
            print(
                f"FAILED: mean dirty fraction {result.mean_dirty_fraction:.4f} "
                f"exceeds --max-dirty-fraction {args.max_dirty_fraction}",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.workloads.corpus import CORPUS

    print(
        f"{'name':<18}{'n':>5}{'side':>7}{'radius':>8}{'generator':>11}"
        f"{'model':>7}{'tags':>14}  description"
    )
    for name in sorted(CORPUS):
        entry = CORPUS[name]
        tags = ",".join(entry.tags) or "-"
        print(
            f"{entry.name:<18}{entry.n:>5}{entry.side:>7g}{entry.radius:>8g}"
            f"{entry.generator:>11}{entry.model:>7}{tags:>14}  {entry.description}"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    import json

    from repro.validation.engine import run_validation

    try:
        matrix = run_validation(
            corpus=args.corpus or (),
            pipelines=args.pipeline or (),
            invariants=args.invariant or (),
            executor=args.executor,
            max_workers=args.workers,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.output:
        args.output.write_text(json.dumps(matrix.to_json_dict(), indent=1))
        print(f"matrix written to {args.output}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(matrix.to_json_dict(), indent=1))
    elif args.format == "markdown":
        print(matrix.to_markdown())
    else:
        print(matrix.to_text(), end="")
    if args.step_summary:
        import os

        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a") as fh:
                fh.write(matrix.to_markdown())
                fh.write("\n")
    return 0 if matrix.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    deployment = _get_deployment(args)
    text = generate_report(deployment, svg_dir=args.svg_dir)
    args.output.write_text(text)
    print(f"report written to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the backbone, summarize it")
    _add_deployment_args(p_build)
    p_build.add_argument("--out-dir", type=Path, default=None)
    p_build.add_argument("--save-deployment", type=Path, default=None)
    p_build.set_defaults(func=cmd_build)

    p_measure = sub.add_parser("measure", help="Table-I metrics for one instance")
    _add_deployment_args(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_route = sub.add_parser("route", help="route a packet over the backbone")
    _add_deployment_args(p_route)
    p_route.add_argument("source", type=int)
    p_route.add_argument("target", type=int)
    p_route.add_argument("--mode", choices=("gpsr", "greedy"), default="gpsr")
    p_route.set_defaults(func=cmd_route)

    p_report = sub.add_parser(
        "report", help="full Markdown report for one deployment"
    )
    _add_deployment_args(p_report)
    p_report.add_argument("--output", type=Path, default=Path("report.md"))
    p_report.add_argument("--svg-dir", type=Path, default=None)
    p_report.set_defaults(func=cmd_report)

    p_mob = sub.add_parser(
        "mobility", help="run a random-waypoint maintenance session"
    )
    _add_deployment_args(p_mob)
    p_mob.add_argument("--steps", type=int, default=50)
    p_mob.add_argument("--dt", type=float, default=1.0)
    p_mob.add_argument("--speed", type=float, default=2.0)
    p_mob.add_argument("--pause", type=float, default=1.0)
    p_mob.add_argument(
        "--move-fraction", type=float, default=0.05,
        help="share of nodes moved per step",
    )
    p_mob.add_argument(
        "--trace-seed", type=int, default=None,
        help="mobility RNG seed (defaults to --seed)",
    )
    p_mob.add_argument(
        "--policy", choices=("incremental", "full"), default="incremental",
        help="incremental repair, or the break-triggered full rebuild baseline",
    )
    p_mob.add_argument(
        "--verify-every", type=int, default=0,
        help="assert rebuild equivalence every k steps (incremental; 0=off)",
    )
    p_mob.add_argument(
        "--tile-cells", type=int, default=None,
        help="tile size (in radius cells) of the incremental grid (default 2)",
    )
    p_mob.add_argument(
        "--max-dirty-fraction", type=float, default=None,
        help="fail when the mean dirty-node fraction exceeds this "
        "(incremental; the sublinearity tripwire in CI)",
    )
    p_mob.set_defaults(func=cmd_mobility)

    p_serve = sub.add_parser(
        "serve", help="run the spanner construction service (HTTP JSON API)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8972)
    p_serve.add_argument(
        "--cache-size", type=int, default=256, help="in-memory LRU entries"
    )
    p_serve.add_argument(
        "--cache-dir", type=Path, default=None, help="on-disk cache directory"
    )
    p_serve.add_argument(
        "--executor", choices=("process", "thread", "serial"), default="process"
    )
    p_serve.add_argument("--workers", type=int, default=None)
    p_serve.add_argument("--task-timeout", type=float, default=120.0)
    p_serve.add_argument(
        "--data-dir", type=Path, default=None,
        help="persistent state root (deployment store + shared disk cache)",
    )
    # No-op: the async tier is the only transport, but benchmarks/suite still passes it.
    p_serve.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    p_serve.add_argument(
        "--pool-workers", type=int, default=4,
        help="shared-nothing service workers",
    )
    p_serve.add_argument(
        "--pool-mode", choices=("process", "thread"), default="process",
        help="worker isolation (process falls back to thread)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=32,
        help="per-worker in-flight window before 429",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_corpus = sub.add_parser(
        "corpus", help="list the canonical instance corpus"
    )
    p_corpus.set_defaults(func=cmd_corpus)

    p_val = sub.add_parser(
        "validate",
        help="run the declarative invariant matrix over the corpus",
    )
    p_val.add_argument(
        "--corpus",
        action="append",
        default=None,
        metavar="NAME[/INDEX]|TAG",
        help="corpus entry, entry/index, or tag (repeatable; default: all)",
    )
    p_val.add_argument(
        "--pipeline",
        action="append",
        default=None,
        metavar="NAME",
        help="pipeline filter: udg, gg, ldel, backbone (repeatable)",
    )
    p_val.add_argument(
        "--invariant",
        action="append",
        default=None,
        metavar="NAME",
        help="invariant filter by name (repeatable; default: all)",
    )
    p_val.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text"
    )
    p_val.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON matrix document to this path",
    )
    p_val.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="serial"
    )
    p_val.add_argument("--workers", type=int, default=None)
    p_val.add_argument(
        "--step-summary",
        action="store_true",
        help="append the markdown matrix to $GITHUB_STEP_SUMMARY when set",
    )
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)
    p_exp.set_defaults(func=lambda a: harness_main(a.rest or ["all", "--quick"]))

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
