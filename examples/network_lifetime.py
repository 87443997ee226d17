#!/usr/bin/env python3
"""Capstone: a day in the life of an ad hoc network.

Everything the library implements, in one session: build the planar
spanner backbone with the distributed protocols (energy metered),
serve unicast traffic with the stateless routing protocol (packets as
radio frames), disseminate an alert with dominating-set broadcast,
then let nodes drift under random-waypoint mobility with the paper's
break-triggered maintenance policy — and account for every joule.

Run:
    python examples/network_lifetime.py [--nodes 80] [--seed 42]
"""

import argparse
import random

from repro import build_backbone, connected_udg_instance
from repro.mobility.session import run_mobility_session
from repro.protocols.routing_protocol import run_routing_protocol
from repro.routing.broadcast import backbone_broadcast, flood
from repro.sim.energy import protocol_energy
from repro.sim.stats import MessageStats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=80)
    parser.add_argument("--radius", type=float, default=55.0)
    parser.add_argument("--side", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--flows", type=int, default=40)
    parser.add_argument("--mobility-steps", type=int, default=10)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    deployment = connected_udg_instance(args.nodes, args.side, args.radius, rng)
    udg = deployment.udg()

    # --- phase 1: construction --------------------------------------
    print("phase 1 — construction")
    result = build_backbone(deployment.points, deployment.radius)
    build_energy = protocol_energy(result.stats_ldel, udg, alpha=2.0)
    print(
        f"  backbone: {len(result.backbone_nodes)}/{args.nodes} nodes, "
        f"{result.ldel_icds.edge_count} planar links"
    )
    print(
        f"  cost: {result.stats_ldel.total} broadcasts "
        f"(max {result.stats_ldel.max_per_node()}/node), "
        f"energy {build_energy.total:,.0f} units"
    )

    # --- phase 2: unicast traffic -------------------------------------
    print("\nphase 2 — unicast traffic (stateless GPSR over the backbone)")
    packets = [
        (rng.randrange(args.nodes), rng.randrange(args.nodes))
        for _ in range(args.flows)
    ]
    packets = [(s, t) for s, t in packets if s != t]
    outcomes, route_stats = run_routing_protocol(result, packets)
    delivered = sum(o.delivered for o in outcomes)
    total_hops = sum(o.hops for o in outcomes)
    route_energy = protocol_energy(route_stats, udg, alpha=2.0)
    print(
        f"  {delivered}/{len(packets)} packets delivered, "
        f"{total_hops} total hops, energy {route_energy.total:,.0f} units"
    )

    # --- phase 3: an alert broadcast -----------------------------------
    print("\nphase 3 — network-wide alert")
    origin = min(result.dominators)
    smart = backbone_broadcast(udg, origin, result.backbone_nodes)
    blind = flood(udg, origin)
    print(
        f"  backbone relay: {smart.transmissions} transmissions "
        f"(flooding would take {blind.transmissions}; "
        f"{blind.transmissions / smart.transmissions:.1f}x saving), "
        f"coverage {smart.coverage}/{args.nodes}"
    )

    # --- phase 4: mobility ----------------------------------------------
    print("\nphase 4 — mobility with break-triggered maintenance")
    session = run_mobility_session(
        deployment,
        policy="full",
        steps=args.mobility_steps,
        speed=2.0,
        pause=2.0,
        move_fraction=1.0,
        seed=args.seed,
    )
    print(
        f"  {args.mobility_steps} steps: {session.rebuild_count} rebuilds "
        f"({session.rebuild_rate:.0%} of updates), mean edge retention "
        f"{session.mean_retention_on_rebuild:.0%}, routing availability "
        f"{session.availability:.0%}"
    )

    # --- ledger -----------------------------------------------------------
    print("\nenergy ledger (alpha=2, rx = 10% of tx)")
    rebuild_energy = session.rebuild_count * build_energy.total
    rows = [
        ("construction", build_energy.total),
        (f"{len(packets)} unicast flows", route_energy.total),
        ("1 alert broadcast", smart.transmissions * udg.radius**2 * 1.1),
        (f"~{session.rebuild_count} rebuilds", rebuild_energy),
    ]
    for label, value in rows:
        print(f"  {label:<22}{value:>14,.0f}")
    total = sum(v for _l, v in rows)
    print(f"  {'TOTAL':<22}{total:>14,.0f}")
    print(
        "\nunicast over the backbone is cheap (a few hops per flow) — but "
        "under mobility the FULL rebuilds dominate the ledger, which is "
        "precisely the paper's closing future-work problem: update the "
        "planar backbone *locally* when nodes move.  (The ~80% edge "
        "retention per rebuild shows how much a localized repair could save.)"
    )


if __name__ == "__main__":
    main()
