"""The invariant catalog: what the paper promises, stated as checks.

Each :class:`Invariant` names the pipelines (and radio models) it
covers and a metric closure evaluated against a
:class:`~repro.validation.engine.PipelineBuild`.  Bounds come from
:mod:`repro.core.bounds` where the paper supplies a constant; the
quasi-UDG variants scale them by the gray-zone parameter ``epsilon``
(a link surviving the gray zone can be up to ``1/epsilon`` times
longer than the reliable-zone radius the proofs assume).

Paper-bound invariants are exact claims; the bit-identity invariants
(SoA-vs-reference, fast-vs-protocol) are the implementation's own
contracts, promoted to tripwires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core import bounds
from repro.graphs.paths import connected_components
from repro.graphs.planarity import is_planar_embedding

if TYPE_CHECKING:
    from repro.validation.engine import PipelineBuild

#: Numeric slack for comparing measured values against exact bounds:
#: relative for the ratio checks, absolute for values near zero.
TOLERANCE_REL = 1e-9
TOLERANCE_ABS = 1e-9

#: Empirical ceiling for Lemma 3's "constant messages per node".  The
#: paper proves O(1); the protocol implementation stays well under this
#: across every corpus regime (uniform, clustered, gradient, quasi) —
#: tests/test_cds_fast.py pins the same figure on uniform fields.
LEMMA3_MAX_MESSAGES = 80

#: Empirical length-stretch ceiling for PLDel under the quasi-UDG
#: model.  The 2.5 proof (Keil-Gutwin via LDel) assumes the disk
#: model; with a gray zone the planarization can only reroute along
#: surviving links, so the bound loosens.  2.5 / epsilon is the
#: natural scaling and holds with margin on the quasi corpus.
def quasi_length_stretch_bound(epsilon: float) -> float:
    return bounds.ldel_length_stretch_bound() / epsilon


@dataclass(frozen=True)
class Check:
    """Outcome of evaluating one invariant metric."""

    passed: bool
    value: Optional[float] = None
    bound: Optional[float] = None
    detail: str = ""


def _bounded(value: float, bound: float, detail: str = "") -> Check:
    ok = value <= bound * (1.0 + TOLERANCE_REL) + TOLERANCE_ABS
    return Check(passed=ok, value=value, bound=bound, detail=detail)


@dataclass(frozen=True)
class Invariant:
    """One declarative claim: metric + where it applies."""

    name: str
    description: str
    pipelines: tuple[str, ...]
    metric: Callable[["PipelineBuild"], Check]
    #: Radio models the claim covers; a covered pipeline with an
    #: uncovered model renders as ``skip`` (the matrix shows the hole).
    models: tuple[str, ...] = ("udg", "quasi")
    #: Grouping label for docs and listings.
    kind: str = "bound"

    def applies_to(self, pipeline: str) -> bool:
        return pipeline in self.pipelines

    def covers_model(self, model: str) -> bool:
        return model in self.models


# --------------------------------------------------------------------
# Metric implementations
# --------------------------------------------------------------------


def _planarity(ctx: "PipelineBuild") -> Check:
    ok = is_planar_embedding(ctx.graph)
    return Check(passed=ok, detail="" if ok else "crossing edge pair found")


def _partition(graph) -> set[frozenset[int]]:
    return {frozenset(component) for component in connected_components(graph)}


def _connectivity(ctx: "PipelineBuild") -> Check:
    # The backbone's all-node connectivity claim is about LDel(ICDS')
    # (dominatees attach to their dominators); the spanner pipelines
    # must preserve the radio graph's component partition exactly.
    graph = ctx.backbone.ldel_icds_prime if ctx.pipeline == "backbone" else ctx.graph
    ok = _partition(graph) == _partition(ctx.udg)
    return Check(passed=ok, detail="" if ok else "component partition differs from radio graph")


def _domination(ctx: "PipelineBuild") -> Check:
    family = ctx.backbone.family
    backbone = family.backbone_nodes
    missing = [
        u
        for u in range(ctx.udg.node_count)
        if u not in backbone
        and not any(w in family.dominators for w in ctx.udg.neighbors(u))
    ]
    return Check(
        passed=not missing,
        value=float(len(missing)),
        bound=0.0,
        detail="" if not missing else f"undominated nodes: {missing[:5]}",
    )


def _degree_bound(ctx: "PipelineBuild") -> Check:
    # Lemma 8 bounds the ICDS degree; the gray zone thins the packing
    # argument's disks by epsilon, inflating the count by 1/epsilon^2.
    limit = float(bounds.lemma8_icds_degree_bound())
    if ctx.model == "quasi":
        limit = limit / ctx.epsilon**2
    icds = ctx.backbone.family.icds
    worst = max((icds.degree(u) for u in range(icds.node_count)), default=0)
    return _bounded(float(worst), limit, detail="max ICDS degree")


def _length_stretch(ctx: "PipelineBuild") -> Check:
    limit = bounds.ldel_length_stretch_bound()
    if ctx.model == "quasi":
        limit = quasi_length_stretch_bound(ctx.epsilon)
    stats = ctx.oracle.stretch(ctx.graph, "length")
    if stats.unreachable_pairs:
        return Check(
            passed=False,
            value=math.inf,
            bound=limit,
            detail=f"{stats.unreachable_pairs} pairs unreachable in spanner",
        )
    return _bounded(stats.max, limit, detail="max length stretch")


def _power_stretch(ctx: "PipelineBuild") -> Check:
    # GG keeps an optimal power path for every pair (stretch exactly 1).
    # Disk model only: the induction needs every blocker inside the uv
    # disk to be adjacent to *both* endpoints, which a gray zone breaks
    # (measured stretch ~1.7 on the quasi corpus).
    stats = ctx.oracle.stretch(ctx.graph, "power")
    if stats.unreachable_pairs:
        return Check(
            passed=False,
            value=math.inf,
            bound=1.0,
            detail=f"{stats.unreachable_pairs} pairs unreachable in spanner",
        )
    return _bounded(stats.max, 1.0, detail="max power stretch (exact claim: == 1)")


def _affine_worst_ratio(d_graph, d_base, n: int, additive: float) -> float:
    """max over pairs of ``(d_graph - additive) / d_base`` (inf if cut)."""
    worst = 0.0
    for u in range(n):
        row_g = d_graph[u]
        row_b = d_base[u]
        for v in range(u + 1, n):
            base = row_b[v]
            if base <= 0.0 or math.isinf(base):
                continue
            g = row_g[v]
            if math.isinf(g):
                return math.inf
            worst = max(worst, (g - additive) / base)
    return worst


def _hop_bound(ctx: "PipelineBuild") -> Check:
    # Lemma 5: h_CDS'(u,v) <= 3 h(u,v) + 2.  Purely combinatorial
    # (counts cluster traversals), so the same constant holds under
    # the quasi model.
    d_graph = ctx.oracle.apsp(ctx.backbone.family.cds_prime, "hops")
    d_base = ctx.oracle.apsp(ctx.udg, "hops")
    worst = _affine_worst_ratio(d_graph, d_base, ctx.udg.node_count, additive=2.0)
    return _bounded(worst, 3.0, detail="max (hops_CDS' - 2) / hops_UDG")


def _length_bound(ctx: "PipelineBuild") -> Check:
    # Lemma 6: d_CDS'(u,v) <= 6 d(u,v) + 5r (the paper states it in
    # r-units).  Under quasi, adjacent shortest-path hops are only
    # guaranteed longer than epsilon*r, scaling the ratio to 6/eps.
    ratio_limit = 6.0 if ctx.model == "udg" else 6.0 / ctx.epsilon
    d_graph = ctx.oracle.apsp(ctx.backbone.family.cds_prime, "length")
    d_base = ctx.oracle.apsp(ctx.udg, "length")
    worst = _affine_worst_ratio(
        d_graph, d_base, ctx.udg.node_count, additive=5.0 * ctx.udg.radius
    )
    return _bounded(worst, ratio_limit, detail="max (d_CDS' - 5r) / d_UDG")


def _route_stretch(ctx: "PipelineBuild") -> Check:
    # End-to-end routed stretch of the batch engine's dominating-set
    # procedure, bounded by composing the paper's pieces: a routed path
    # is entry hop + backbone core + exit hop.  With ``shortest`` cores
    # on LDel(ICDS) the core is at most the planarization stretch (2.5,
    # Keil-Gutwin) times the ICDS distance between the chosen entry
    # dominators; those sit within one connector detour (<= 2r each
    # side) of the entry points Lemma 6 routes through, and Lemma 6
    # caps that core at 6d + 5r.  Altogether:
    #   routed <= 2r + 2.5 * (4r + 6d + 5r) = 15d + 24.5r
    # so max (routed - 24.5r) / d_UDG <= 15 over reachable pairs, and
    # every UDG-reachable pair must be delivered at all.  Disk model
    # only — the quasi gray zone breaks the packing arguments both
    # constants rest on.
    from repro.core.route_engine import DELIVERED, BackboneRouter

    family = ctx.backbone.family
    n = ctx.udg.node_count
    d_base = ctx.oracle.apsp(ctx.udg, "length")
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if d_base[u][v] > 0.0 and math.isfinite(d_base[u][v])
    ]
    ratio_limit = bounds.ldel_length_stretch_bound() * 6.0
    additive = (2.0 + bounds.ldel_length_stretch_bound() * 9.0) * ctx.udg.radius
    if not pairs:
        return Check(passed=True, value=0.0, bound=ratio_limit, detail="no routable pairs")
    router = BackboneRouter(
        udg=ctx.udg,
        backbone=ctx.backbone.ldel_icds,
        backbone_nodes=family.backbone_nodes,
        dominators_of=family.clustering.dominators_of,
        oracle=ctx.oracle,
    )
    batch = router.route_pairs(
        pairs, mode="shortest", keep_paths=False, count_unreachable=False
    )
    worst = 0.0
    raw = 0.0
    for i, (u, v) in enumerate(pairs):
        if int(batch.reasons[i]) != DELIVERED:
            return Check(
                passed=False,
                value=math.inf,
                bound=ratio_limit,
                detail=f"reachable pair ({u}, {v}) undelivered by backbone routing",
            )
        routed = float(batch.lengths[i])
        worst = max(worst, (routed - additive) / d_base[u][v])
        raw = max(raw, routed / d_base[u][v])
    return _bounded(
        worst,
        ratio_limit,
        detail=f"max (routed - 24.5r) / d_UDG; raw stretch {raw:.3f}",
    )


def _lemma3_messages(ctx: "PipelineBuild") -> Check:
    worst = ctx.backbone.stats_cds.max_per_node()
    return _bounded(
        float(worst),
        float(LEMMA3_MAX_MESSAGES),
        detail="max CDS messages per node",
    )


def _soa_identity(ctx: "PipelineBuild") -> Check:
    from repro.core.compat import numpy_disabled
    from repro.topology.ldel import planar_local_delaunay_graph

    with numpy_disabled():
        reference = planar_local_delaunay_graph(ctx.deployment.udg()).graph
    same = reference.edge_set() == ctx.graph.edge_set()
    diff = len(reference.edge_set() ^ ctx.graph.edge_set())
    return Check(
        passed=same,
        value=float(diff),
        bound=0.0,
        detail="" if same else f"{diff} edges differ SoA vs pure-python",
    )


def _radio_links(ctx: "PipelineBuild") -> Check:
    # Every structure is a subgraph of the radio graph: a construction
    # may drop links, never invent one (a quasi gray-zone side the
    # model dropped, or a disk-rule rebuild, would).
    if ctx.pipeline == "backbone":
        family = ctx.backbone.family
        graphs = (
            family.cds, family.cds_prime, family.icds, family.icds_prime,
            ctx.backbone.ldel_icds, ctx.backbone.ldel_icds_prime,
        )
    else:
        graphs = (ctx.graph,)
    links = ctx.udg.edge_set()
    extra = {g.name: len(g.edge_set() - links) for g in graphs}
    bad = sorted((name, count) for name, count in extra.items() if count)
    return Check(
        passed=not bad,
        value=float(sum(count for _, count in bad)),
        bound=0.0,
        detail="" if not bad else "non-radio edges: " + ", ".join(
            f"{name} {count}" for name, count in bad
        ),
    )


def _fast_identity(ctx: "PipelineBuild") -> Check:
    from repro.graphs.quasi import induced_radio_subgraph
    from repro.protocols.ldel_fast import fast_ldel_protocol
    from repro.protocols.ldel_protocol import run_ldel_protocol

    sub = induced_radio_subgraph(
        ctx.udg, sorted(ctx.backbone.family.backbone_nodes), name="ICDS-sub"
    )
    fast = fast_ldel_protocol(sub)
    protocol = run_ldel_protocol(sub)
    differs = [
        name
        for name, a, b in (
            ("graph", fast.graph.edge_set(), protocol.graph.edge_set()),
            ("triangles", fast.triangles, protocol.triangles),
            ("gabriel", fast.gabriel_edges, protocol.gabriel_edges),
            ("rounds", fast.rounds, protocol.rounds),
            ("ledger", fast.stats.per_node_kind, protocol.stats.per_node_kind),
        )
        if a != b
    ]
    return Check(
        passed=not differs,
        value=float(len(differs)),
        bound=0.0,
        detail="" if not differs else "fast vs protocol differ in " + ", ".join(differs),
    )


def _udg_edge_rule(ctx: "PipelineBuild") -> Check:
    from repro.geometry.primitives import dist_sq

    pos = ctx.udg.positions
    r_sq = ctx.udg.radius**2
    violations = 0
    for u in range(ctx.udg.node_count):
        for v in range(u + 1, ctx.udg.node_count):
            within = dist_sq(pos[u], pos[v]) <= r_sq
            if within != ctx.udg.has_edge(u, v):
                violations += 1
    return Check(
        passed=violations == 0,
        value=float(violations),
        bound=0.0,
        detail="" if not violations else f"{violations} pairs violate the disk rule",
    )


def _quasi_link_bounds(ctx: "PipelineBuild") -> Check:
    from repro.geometry.primitives import dist_sq

    pos = ctx.udg.positions
    inner_sq = (ctx.epsilon * ctx.udg.radius) ** 2
    outer_sq = ctx.udg.radius**2
    violations = 0
    for u in range(ctx.udg.node_count):
        for v in range(u + 1, ctx.udg.node_count):
            d_sq = dist_sq(pos[u], pos[v])
            if d_sq <= inner_sq and not ctx.udg.has_edge(u, v):
                violations += 1  # reliable zone must be connected
            elif d_sq > outer_sq and ctx.udg.has_edge(u, v):
                violations += 1  # beyond r must not be
    return Check(
        passed=violations == 0,
        value=float(violations),
        bound=0.0,
        detail="" if not violations else f"{violations} pairs violate quasi zones",
    )


#: The catalog, in matrix-column order.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        name="udg-edge-rule",
        description="UDG adjacency is exactly the <= r disk rule",
        pipelines=("udg",),
        models=("udg",),
        metric=_udg_edge_rule,
        kind="model",
    ),
    Invariant(
        name="quasi-link-bounds",
        description="quasi-UDG keeps every link <= eps*r and none beyond r",
        pipelines=("udg",),
        models=("quasi",),
        metric=_quasi_link_bounds,
        kind="model",
    ),
    Invariant(
        name="planarity",
        description="no two edges cross in the embedding",
        pipelines=("gg", "ldel", "backbone"),
        metric=_planarity,
        kind="boolean",
    ),
    Invariant(
        name="connectivity",
        description="structure preserves the radio graph's component partition",
        pipelines=("gg", "ldel", "backbone"),
        metric=_connectivity,
        kind="boolean",
    ),
    Invariant(
        name="radio-links",
        description="every edge of every output graph is a radio link",
        pipelines=("gg", "ldel", "backbone"),
        metric=_radio_links,
        kind="boolean",
    ),
    Invariant(
        name="domination",
        description="every node is in the backbone or hears a dominator",
        pipelines=("backbone",),
        metric=_domination,
        kind="boolean",
    ),
    Invariant(
        name="degree-bound",
        description="ICDS degree <= Lemma 8's constant (scaled 1/eps^2 for quasi)",
        pipelines=("backbone",),
        metric=_degree_bound,
    ),
    Invariant(
        name="length-stretch",
        description="PLDel length stretch <= 2.5 (2.5/eps for quasi)",
        pipelines=("ldel",),
        metric=_length_stretch,
    ),
    Invariant(
        name="power-stretch",
        description="Gabriel power stretch is exactly 1 (disk model only)",
        pipelines=("gg",),
        models=("udg",),
        metric=_power_stretch,
    ),
    Invariant(
        name="hop-bound",
        description="Lemma 5: CDS' hops <= 3h + 2",
        pipelines=("backbone",),
        metric=_hop_bound,
    ),
    Invariant(
        name="length-bound",
        description="Lemma 6: CDS' length <= 6d + 5r (ratio 6/eps for quasi)",
        pipelines=("backbone",),
        metric=_length_bound,
    ),
    Invariant(
        name="route-stretch",
        description="batch-routed length <= 15d + 24.5r (Lemma 6 x planarization)",
        pipelines=("backbone",),
        models=("udg",),
        metric=_route_stretch,
    ),
    Invariant(
        name="lemma3-messages",
        description="constant messages per node during CDS construction",
        pipelines=("backbone",),
        metric=_lemma3_messages,
    ),
    Invariant(
        name="soa-identity",
        description="SoA-kernel PLDel is bit-identical to the pure-python reference",
        pipelines=("ldel",),
        metric=_soa_identity,
        kind="identity",
    ),
    Invariant(
        name="fast-identity",
        description="fast LDel protocol is bit-identical to the message-passing run",
        pipelines=("backbone",),
        metric=_fast_identity,
        kind="identity",
    ),
)

INDEX: dict[str, Invariant] = {inv.name: inv for inv in INVARIANTS}


def invariant_listing() -> list[dict]:
    """JSON-ready catalog (for ``GET /invariants`` and the docs)."""
    return [
        {
            "name": inv.name,
            "description": inv.description,
            "pipelines": list(inv.pipelines),
            "models": list(inv.models),
            "kind": inv.kind,
        }
        for inv in INVARIANTS
    ]

