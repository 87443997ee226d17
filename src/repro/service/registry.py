"""Named construction pipelines with a canonical parameter schema.

The registry is the service's dispatch table: every topology the repo
can construct is addressable by a short name (``udg``, ``gg``,
``ldel``, ``backbone``, ...), with declared, typed, defaulted
parameters.  Canonicalization happens here — the cache keys on the
*canonical* parameter dict, so ``{"k": 6}`` and ``{}`` (default k=6)
hash identically and share one cached build.

Builders are deterministic pure functions of ``(Deployment, params)``;
process-pool workers re-resolve them by name, so nothing in this
module needs to cross a process boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro import obs
from repro.core.metrics import StretchStats, measure_topology
from repro.core.oracle import DistanceOracle
from repro.core.spanner import BackboneResult, build_backbone
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.backbone import ELECTIONS
from repro.protocols.cds import MODES
from repro.topology.beta_skeleton import beta_skeleton
from repro.topology.delaunay_udg import unit_delaunay_graph
from repro.topology.gabriel import gabriel_graph
from repro.topology.greedy_spanner import greedy_spanner
from repro.topology.knn import knn_graph
from repro.topology.ldel import local_delaunay_graph, planar_local_delaunay_graph
from repro.topology.mst import euclidean_mst
from repro.topology.rdg import restricted_delaunay_graph
from repro.topology.rng import relative_neighborhood_graph
from repro.topology.yao import yao_graph
from repro.topology.yao_sink import yao_sink_graph
from repro.topology.yao_yao import yao_yao_graph
from repro.workloads.generators import Deployment, connected_udg_instance


class RegistryError(ValueError):
    """Unknown pipeline, unknown parameter, or invalid parameter value."""


@dataclass(frozen=True)
class ParamSpec:
    """One declared pipeline parameter."""

    name: str
    type: type
    default: Any
    choices: Optional[tuple] = None
    minimum: Optional[float] = None

    def coerce(self, value: Any) -> Any:
        """Validate and canonicalize one supplied value."""
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if self.type is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, self.type) or isinstance(value, bool) != (self.type is bool):
            raise RegistryError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}"
            )
        if self.choices is not None and value not in self.choices:
            raise RegistryError(
                f"parameter {self.name!r} must be one of {self.choices}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise RegistryError(
                f"parameter {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class BuildProduct:
    """What one pipeline build yields.

    ``graph`` is always present.  Backbone-family pipelines also carry
    the full :class:`~repro.core.spanner.BackboneResult` so routing
    requests can run on the cached build without reconstructing.
    """

    pipeline: str
    graph: Graph
    backbone: Optional[BackboneResult] = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready description (what ``POST /build`` responds with)."""
        out = {
            "pipeline": self.pipeline,
            "nodes": self.graph.node_count,
            "edges": self.graph.edge_count,
        }
        if self.backbone is not None:
            out["dominators"] = len(self.backbone.dominators)
            out["connectors"] = len(self.backbone.connectors)
            out["backbone_nodes"] = len(self.backbone.backbone_nodes)
        out.update(self.extras)
        return out


@dataclass(frozen=True)
class PipelineSpec:
    """A named builder plus its parameter schema."""

    name: str
    description: str
    params: tuple[ParamSpec, ...]
    builder: Callable[[Deployment, dict], BuildProduct]
    routable: bool = False

    def canonicalize(self, params: Optional[Mapping[str, Any]]) -> dict:
        """Validated params with defaults filled in, in schema order."""
        supplied = dict(params or {})
        canonical: dict[str, Any] = {}
        for spec in self.params:
            if spec.name in supplied:
                canonical[spec.name] = spec.coerce(supplied.pop(spec.name))
            else:
                canonical[spec.name] = spec.default
        if supplied:
            unknown = ", ".join(sorted(supplied))
            raise RegistryError(f"pipeline {self.name!r} has no parameter(s): {unknown}")
        return canonical

    def build(self, deployment: Deployment, params: Optional[Mapping[str, Any]] = None) -> BuildProduct:
        return self.builder(deployment, self.canonicalize(params))


# -- builders ----------------------------------------------------------------


def _stats_dict(stats: Optional[StretchStats]) -> Optional[dict]:
    """JSON-ready rendering of one :class:`StretchStats` (or ``None``)."""
    if stats is None:
        return None
    return {
        "avg": round(stats.avg, 6),
        "max": round(stats.max, 6),
        "pairs": stats.pairs,
        "unreachable_pairs": stats.unreachable_pairs,
    }


def _measured_extras(
    graph: Graph, udg: UnitDiskGraph, *, skip_udg_adjacent: bool = False
) -> dict:
    """Quality metrics + oracle accounting for ``measure=true`` builds.

    One :class:`~repro.core.oracle.DistanceOracle` serves all three
    stretch kinds; its counters ride in ``extras["oracle"]``.
    """
    obs.count("oracle.measurements")
    oracle = DistanceOracle(udg)
    metrics = measure_topology(
        graph, udg, skip_udg_adjacent=skip_udg_adjacent, power_alpha=2.0,
        oracle=oracle,
    )
    return {
        "metrics": {
            "degree_avg": round(metrics.degree_avg, 3),
            "degree_max": metrics.degree_max,
            "length_stretch": _stats_dict(metrics.length),
            "hop_stretch": _stats_dict(metrics.hops),
            "power_stretch": _stats_dict(metrics.power),
        },
        "oracle": oracle.snapshot(),
    }


def _flat(name: str, make: Callable[..., Graph]) -> Callable[[Deployment, dict], BuildProduct]:
    def builder(deployment: Deployment, params: dict) -> BuildProduct:
        params = dict(params)
        measure = params.pop("measure", False)
        udg = deployment.udg()
        graph = make(udg, **params)
        extras = _measured_extras(graph, udg) if measure else {}
        return BuildProduct(name, graph, extras=extras)

    return builder


def _udg_builder(deployment: Deployment, params: dict) -> BuildProduct:
    udg = deployment.udg()
    extras = _measured_extras(udg, udg) if params.get("measure") else {}
    return BuildProduct("udg", udg, extras=extras)


def _backbone_builder(attr: str) -> Callable[[Deployment, dict], BuildProduct]:
    def builder(deployment: Deployment, params: dict) -> BuildProduct:
        result = build_backbone(
            deployment.points,
            deployment.radius,
            election=params["election"],
            mode=params["mode"],
        )
        extras = {
            "messages_per_node_max": result.stats_ldel.max_per_node(),
            "messages_per_node_avg": round(
                result.stats_ldel.avg_per_node(result.udg.node_count), 3
            ),
        }
        if params.get("measure"):
            # Backbone rows are measured over UDG-non-adjacent pairs
            # (Lemma 6 / the routing rule), as in the paper's Table I.
            extras.update(
                _measured_extras(
                    getattr(result, attr), result.udg, skip_udg_adjacent=True
                )
            )
        return BuildProduct(attr, getattr(result, attr), backbone=result, extras=extras)

    return builder


_ELECTION_PARAM = ParamSpec("election", str, "smallest-id", choices=ELECTIONS)

#: Opt-in quality measurement: when true, the build product's extras
#: carry the paper's Table I metrics for the built graph (degrees +
#: length/hop/power stretch vs the UDG, through one DistanceOracle)
#: plus the oracle's cache counters.
_MEASURE_PARAM = ParamSpec("measure", bool, False)

#: Construction path for backbone-family pipelines.  The serving
#: default is the direct fixed-point computation — bit-identical to
#: the protocol replay (``mode="protocol"``), which stays available
#: for message-trace studies.
_MODE_PARAM = ParamSpec("mode", str, "fast", choices=MODES)

def _specs() -> tuple[PipelineSpec, ...]:
    backbone_members = (
        ("cds", "the connected dominating set (paper's CDS)"),
        ("cds_prime", "CDS plus dominatee attachment edges (CDS')"),
        ("icds", "the induced CDS unit disk graph (ICDS)"),
        ("icds_prime", "ICDS plus dominatee attachment edges (ICDS')"),
        ("ldel_icds", "the planar backbone LDel(ICDS) — the paper's headline structure"),
        ("ldel_icds_prime", "LDel(ICDS') — planar backbone plus dominatee edges"),
    )
    specs = [
        PipelineSpec("udg", "the unit disk graph itself",
                     (_MEASURE_PARAM,), _udg_builder),
        PipelineSpec("rng", "relative neighborhood graph", (_MEASURE_PARAM,),
                     _flat("rng", relative_neighborhood_graph)),
        PipelineSpec("gg", "Gabriel graph", (_MEASURE_PARAM,),
                     _flat("gg", gabriel_graph)),
        PipelineSpec("ldel", "planarized localized Delaunay graph PLDel",
                     (_MEASURE_PARAM,),
                     _flat("ldel", lambda udg: planar_local_delaunay_graph(udg).graph)),
        PipelineSpec("ldel1", "raw k-localized Delaunay graph LDel^k",
                     (ParamSpec("k", int, 1, minimum=1), _MEASURE_PARAM),
                     _flat("ldel1", lambda udg, k: local_delaunay_graph(udg, k=k).graph)),
        PipelineSpec("rdg", "restricted Delaunay graph", (_MEASURE_PARAM,),
                     _flat("rdg", restricted_delaunay_graph)),
        PipelineSpec("delaunay", "Delaunay triangulation capped at unit edges",
                     (_MEASURE_PARAM,), _flat("delaunay", unit_delaunay_graph)),
        PipelineSpec("mst", "Euclidean minimum spanning tree", (_MEASURE_PARAM,),
                     _flat("mst", euclidean_mst)),
        PipelineSpec("yao", "Yao graph",
                     (ParamSpec("k", int, 6, minimum=3), _MEASURE_PARAM),
                     _flat("yao", yao_graph)),
        PipelineSpec("yao_yao", "Yao-Yao (degree-bounded Yao) graph",
                     (ParamSpec("k", int, 6, minimum=3), _MEASURE_PARAM),
                     _flat("yao_yao", yao_yao_graph)),
        PipelineSpec("yao_sink", "Yao sink-structure graph",
                     (ParamSpec("k", int, 6, minimum=3), _MEASURE_PARAM),
                     _flat("yao_sink", yao_sink_graph)),
        PipelineSpec("beta_skeleton", "beta-skeleton (beta in [1, 2])",
                     (ParamSpec("beta", float, 1.0, minimum=0.0), _MEASURE_PARAM),
                     _flat("beta_skeleton", beta_skeleton)),
        PipelineSpec("greedy_spanner", "greedy t-spanner of the UDG",
                     (ParamSpec("t", float, 1.5, minimum=1.0), _MEASURE_PARAM),
                     _flat("greedy_spanner", greedy_spanner)),
        PipelineSpec("knn", "k-nearest-neighbors graph",
                     (ParamSpec("k", int, 6, minimum=1), _MEASURE_PARAM),
                     _flat("knn", knn_graph)),
    ]
    for attr, description in backbone_members:
        specs.append(
            PipelineSpec(attr, description,
                         (_ELECTION_PARAM, _MODE_PARAM, _MEASURE_PARAM),
                         _backbone_builder(attr), routable=True)
        )
    # `backbone` is the serving alias for the paper's routable structure.
    specs.append(
        PipelineSpec("backbone", "alias of ldel_icds: the routable planar backbone",
                     (_ELECTION_PARAM, _MODE_PARAM, _MEASURE_PARAM),
                     _backbone_builder("ldel_icds"), routable=True)
    )
    return tuple(specs)


REGISTRY: dict[str, PipelineSpec] = {spec.name: spec for spec in _specs()}


def get_pipeline(name: str) -> PipelineSpec:
    """The registered spec for ``name`` (raises :class:`RegistryError`)."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise RegistryError(f"unknown pipeline {name!r}; known: {known}") from None


def available_pipelines() -> list[dict]:
    """JSON-ready listing of every pipeline and its parameter schema."""
    return [
        {
            "name": spec.name,
            "description": spec.description,
            "routable": spec.routable,
            "params": [
                {
                    "name": p.name,
                    "type": p.type.__name__,
                    "default": p.default,
                    **({"choices": list(p.choices)} if p.choices else {}),
                }
                for p in spec.params
            ],
        }
        for spec in sorted(REGISTRY.values(), key=lambda s: s.name)
    ]


# -- scenarios ---------------------------------------------------------------


def resolve_scenario(spec: Mapping[str, Any]) -> Deployment:
    """Turn a scenario document into a concrete :class:`Deployment`.

    Three forms, checked in order:

    * explicit points: ``{"points": [[x, y], ...], "radius": r}``
      (optional ``side``);
    * corpus reference: ``{"corpus": "paper-table1/0"}`` or
      ``{"corpus": "paper-table1", "index": 3}``;
    * generator recipe: ``{"generator": "uniform", "nodes": 100,
      "radius": 60, "side": 200, "seed": 0}`` — deterministic in the
      seed, mirroring the CLI's sampling loop.
    """
    if not isinstance(spec, Mapping):
        raise RegistryError("scenario must be a JSON object")
    if "points" in spec:
        if "radius" not in spec:
            raise RegistryError("explicit-points scenario requires 'radius'")
        from repro.geometry.primitives import Point

        points = tuple(Point(float(x), float(y)) for x, y in spec["points"])
        radius = float(spec["radius"])
        side = float(spec.get("side", 0.0))
        if not side and points:
            side = max(max(p.x for p in points), max(p.y for p in points))
        return Deployment(points=points, side=side, radius=radius)
    if "corpus" in spec:
        from repro.workloads.corpus import get_instance

        name, _, index_str = str(spec["corpus"]).partition("/")
        index = int(index_str) if index_str else int(spec.get("index", 0))
        try:
            return get_instance(name, index)
        except KeyError:
            raise RegistryError(f"unknown corpus entry {name!r}") from None
    if "generator" in spec or "nodes" in spec:
        nodes = int(spec.get("nodes", 100))
        side = float(spec.get("side", 200.0))
        radius = float(spec.get("radius", 60.0))
        seed = int(spec.get("seed", 0))
        generator = str(spec.get("generator", "uniform"))
        try:
            return connected_udg_instance(
                nodes, side, radius, random.Random(seed), generator=generator
            )
        except ValueError as exc:
            raise RegistryError(str(exc)) from None
    raise RegistryError(
        "scenario must supply 'points', 'corpus', or a generator recipe"
    )


def build_scenario(
    pipeline: str,
    scenario: Mapping[str, Any],
    params: Optional[Mapping[str, Any]] = None,
) -> BuildProduct:
    """Resolve + build in one call (this is the process-pool entry point).

    Module-level and addressed purely by value (pipeline name, scenario
    document, params), so it pickles cleanly into worker processes.
    """
    spec = get_pipeline(pipeline)
    deployment = resolve_scenario(scenario)
    return spec.build(deployment, params)
