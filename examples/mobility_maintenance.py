#!/usr/bin/env python3
"""Maintaining the backbone while nodes move.

The paper: "our algorithms do not need to update the network topology
when nodes are moving as long as no link used in the final network
topology is broken."  This example drives a random-waypoint mobility
session under the ``full`` policy of the mobility loop (exactly that
break-triggered rebuild), and reports how often a rebuild was actually
needed, how much of the backbone survived each rebuild, and how
routing availability held up.

Run:
    python examples/mobility_maintenance.py [--steps 30] [--speed 2.0]
"""

import argparse
import random

from repro import connected_udg_instance
from repro.mobility.session import run_mobility_session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=70)
    parser.add_argument("--radius", type=float, default=60.0)
    parser.add_argument("--side", type=float, default=200.0)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--dt", type=float, default=1.0)
    parser.add_argument("--speed", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    deployment = connected_udg_instance(
        args.nodes, args.side, args.radius, random.Random(args.seed)
    )
    session = run_mobility_session(
        deployment,
        policy="full",
        steps=args.steps,
        dt=args.dt,
        speed=args.speed,
        pause=2.0,
        move_fraction=1.0,
        seed=args.seed,
        probe_pairs=[(0, args.nodes - 1), (1, args.nodes // 2)],
    )

    print(
        f"{args.nodes} nodes, radius {args.radius:g}, speeds around "
        f"{args.speed:g} units/step; running {args.steps} steps"
    )
    print(f"{'step':>5}{'broken':>8}{'rebuilt':>9}{'retention':>11}{'role churn':>12}{'routable':>10}")
    for index, step in enumerate(session.steps, start=1):
        print(
            f"{index:>5}{step.broken_links:>8}"
            f"{'yes' if step.rebuilt else 'no':>9}"
            f"{step.edge_retention:>11.2f}"
            f"{step.role_changes:>12}"
            f"{step.routable_probes:>8}/{step.total_probes}"
        )

    rebuilds = session.rebuild_count
    print()
    print(
        f"rebuilds: {rebuilds}/{args.steps} steps "
        f"({session.rebuild_rate:.0%} of updates needed any work)"
    )
    if rebuilds:
        print(
            f"average backbone-edge retention across rebuilds: "
            f"{session.mean_retention_on_rebuild:.0%} — most of the structure "
            "survives each rebuild, which is what the incremental policy "
            "(`python -m repro mobility`) exploits by repairing only the "
            "affected region"
        )


if __name__ == "__main__":
    main()
