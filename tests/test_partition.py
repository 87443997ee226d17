"""Partition scenarios: the network splits, operates, and heals.

The paper's guarantees are per-component; these tests drive an actual
split-and-heal scenario and check every layer behaves: structures stay
valid per component, routing fails *cleanly* across the cut and
recovers after the heal, and maintenance notices both transitions.
"""


from repro.core.route_engine import BackboneRouter
from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.paths import connected_components
from repro.graphs.planarity import is_planar_embedding
from repro.incremental.engine import IncrementalMaintainer
from repro.incremental.events import Event
from repro.mobility.maintenance import BackboneMaintainer
from repro.routing.backbone_routing import backbone_route


def two_islands(gap: float):
    """Two 5-node clusters ``gap`` apart (radius 1.5 links within)."""
    left = [Point(0, 0), Point(1, 0), Point(0.5, 1), Point(1.5, 1), Point(1, 2)]
    right = [p.translated(gap, 0.0) for p in left]
    return left + right


class TestSplitNetwork:
    def test_structures_valid_per_component(self):
        points = two_islands(gap=10.0)
        result = build_backbone(points, 1.5)
        assert is_planar_embedding(result.ldel_icds)
        comps = connected_components(result.udg)
        assert len(comps) == 2
        # Each component is spanned by LDel(ICDS').
        prime_comps = connected_components(result.ldel_icds_prime)
        for comp in comps:
            assert any(comp <= pc for pc in prime_comps)

    def test_each_island_has_a_dominator(self):
        points = two_islands(gap=10.0)
        result = build_backbone(points, 1.5)
        left_nodes = set(range(5))
        right_nodes = set(range(5, 10))
        assert result.dominators & left_nodes
        assert result.dominators & right_nodes

    def test_cross_cut_routing_fails_cleanly(self):
        points = two_islands(gap=10.0)
        result = build_backbone(points, 1.5)
        route = backbone_route(result, 0, 9)
        assert not route.delivered
        assert route.reason in ("stuck", "loop", "hop-limit")

    def test_intra_island_routing_works(self):
        points = two_islands(gap=10.0)
        result = build_backbone(points, 1.5)
        assert backbone_route(result, 0, 4).delivered
        assert backbone_route(result, 5, 9).delivered


class TestHeal:
    def test_backbone_bridge_heal_detected_by_default(self):
        # Translation preserves every intra-island link, so nothing
        # breaks — but the new bridge links join two backbone nodes,
        # which invalidates the cached per-component structures.  The
        # maintainer detects the heal even under the break-only
        # default (benign gains between dominatees still cost
        # nothing; see test_mobility.py).
        points = two_islands(gap=10.0)
        result = build_backbone(points, 1.5)
        maintainer = BackboneMaintainer(result)
        healed = two_islands(gap=2.0)
        assert maintainer.check(healed) == ()
        assert maintainer.invalidating_links(healed)
        report = maintainer.update(healed)
        assert report.rebuilt
        assert report.invalidating_links
        assert backbone_route(maintainer.result, 0, 9).delivered

    def test_incremental_heal_reconnects_routing(self):
        # The incremental engine tracks every appearing link, so moving
        # the right island next to the left one heals the backbone
        # exactly: it equals a rebuild and routes across the old cut.
        points = two_islands(gap=10.0)
        maintainer = IncrementalMaintainer(points, 1.5)
        healed = two_islands(gap=2.0)  # 1.5-radius links now bridge
        maintainer.apply(
            [
                Event("move", node=u, x=healed[u].x, y=healed[u].y)
                for u in range(5, 10)
            ]
        )
        assert maintainer.verify()["identical"]
        snap = maintainer.snapshot()
        router = BackboneRouter(
            udg=Graph(snap.positions, snap.udg_edges),
            backbone=Graph(snap.positions, snap.ldel_icds_edges),
            backbone_nodes=snap.backbone_nodes,
            dominators_of=snap.dominators_of,
        )
        assert router.route_pairs([(0, 9)]).delivered_count == 1

    def test_split_detected_as_breaks(self):
        points = two_islands(gap=2.0)  # connected initially
        result = build_backbone(points, 1.5)
        maintainer = BackboneMaintainer(result)
        split = two_islands(gap=10.0)
        broken = maintainer.check(split)
        assert broken, "pulling the islands apart must break bridge links"
        report = maintainer.update(split)
        assert report.rebuilt
        assert not backbone_route(maintainer.result, 0, 9).delivered
