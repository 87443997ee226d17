"""CLI for regenerating every table and figure of the paper.

Usage::

    python -m repro.experiments.harness table1
    python -m repro.experiments.harness fig8 fig9 fig10
    python -m repro.experiments.harness all --instances 10
    python -m repro.experiments.harness table1 --quick   # smoke-scale

Each experiment prints the same rows/series the paper reports (values
differ — this substrate is a simulator — but the shapes are the
reproduction target; see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments.runner import (
    ExperimentConfig,
    deployment_sensitivity,
    fig8_degree_vs_density,
    fig9_stretch_vs_density,
    fig10_comm_vs_density,
    fig11_stretch_vs_radius,
    fig12_comm_vs_radius,
    format_rows,
    format_series,
    message_breakdown,
    table1,
)

EXPERIMENTS = (
    "table1", "fig8", "fig9", "fig10", "fig11", "fig12",
    "breakdown", "sensitivity",
)


def _maybe_chart(points, x_label: str, chart: bool) -> str:
    if not chart:
        return ""
    from repro.experiments.ascii_chart import default_series, render_chart

    return "\n\n" + render_chart(
        points, default_series(points), x_label=x_label
    )


def _run_one(name: str, config: ExperimentConfig, quick: bool, chart: bool = False) -> str:
    ns: Sequence[int] = (20, 40, 60, 80, 100) if quick else (
        20, 30, 40, 50, 60, 70, 80, 90, 100
    )
    radii: Sequence[float] = (30, 45, 60) if quick else (
        20, 25, 30, 35, 40, 45, 50, 55, 60
    )
    n_large = 150 if quick else 500
    if name == "table1":
        rows = table1(n=30 if quick else 100, radius=60.0, config=config)
        return format_rows(rows, with_std=not quick)
    if name == "fig8":
        points = fig8_degree_vs_density(ns=ns, config=config)
        return format_series(points, x_label="nodes") + _maybe_chart(
            points, "nodes", chart
        )
    if name == "fig9":
        points = fig9_stretch_vs_density(ns=ns, config=config)
        return format_series(points, x_label="nodes") + _maybe_chart(
            points, "nodes", chart
        )
    if name == "fig10":
        points = fig10_comm_vs_density(ns=ns, config=config)
        return format_series(points, x_label="nodes") + _maybe_chart(
            points, "nodes", chart
        )
    if name == "fig11":
        points = fig11_stretch_vs_radius(radii=radii, n=n_large, config=config)
        return format_series(points, x_label="radius") + _maybe_chart(
            points, "radius", chart
        )
    if name == "fig12":
        points = fig12_comm_vs_radius(radii=radii, n=n_large, config=config)
        return format_series(points, x_label="radius") + _maybe_chart(
            points, "radius", chart
        )
    if name == "breakdown":
        kinds = message_breakdown(n=30 if quick else 100, config=config)
        lines = [f"{'message kind':<16}{'sends/node':>12}"]
        lines += [f"{kind:<16}{value:>12.3f}" for kind, value in kinds.items()]
        lines.append(f"{'TOTAL':<16}{sum(kinds.values()):>12.3f}")
        return "\n".join(lines)
    if name == "sensitivity":
        results = deployment_sensitivity(
            n=30 if quick else 80, config=config
        )
        metrics = list(next(iter(results.values())))
        lines = [f"{'generator':<12}" + "".join(f"{m:>20}" for m in metrics)]
        for generator, values in results.items():
            lines.append(
                f"{generator:<12}"
                + "".join(f"{values[m]:>20.3f}" for m in metrics)
            )
        return "\n".join(lines)
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.harness", description=__doc__
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=(*EXPERIMENTS, "all"),
        help="which tables/figures to regenerate",
    )
    parser.add_argument(
        "--instances", type=int, default=None, help="instances per data point"
    )
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument(
        "--quick", action="store_true", help="smoke-scale parameters"
    )
    parser.add_argument(
        "--chart", action="store_true", help="render figure series as ASCII charts"
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    instances = args.instances
    for name in names:
        default_instances = 3 if name in ("fig11", "fig12") else 10
        if args.quick:
            default_instances = 2
        config = ExperimentConfig(
            instances=instances or default_instances, seed=args.seed
        )
        started = time.time()
        output = _run_one(name, config, args.quick, chart=args.chart)
        elapsed = time.time() - started
        print(f"=== {name} (instances={config.instances}, {elapsed:.1f}s) ===")
        print(output)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
