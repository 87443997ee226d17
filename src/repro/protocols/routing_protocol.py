"""Dominating-set-based routing as a message-passing protocol.

The routing layer in :mod:`repro.routing` computes paths centrally for
analysis; this module runs the same procedure the way a deployment
would — packets as radio frames, every forwarding decision made by a
node from strictly local state acquired during construction:

* its own role and position, and its radio neighbors' positions;
* its dominators (for dominatees) — learned from ``IamDominator``;
* its LDel(ICDS) backbone neighbors with positions — known to backbone
  nodes from the construction protocol's exchanges;
* the destination's position, carried in the packet header (the
  paper's location-service assumption).

Forwarding, exactly GPSR over the backbone: deliver directly when the
destination is in radio range; a dominatee hands the packet to its
smallest dominator; backbone nodes forward greedily toward the
destination over backbone links, entering *perimeter mode* at local
minima — with all face-walk state (mode, stuck position, face entry
point, arrival edge, first face edge) carried in the packet header, so
nodes stay stateless, as in Karp & Kung's design.

Unicast is emulated over the broadcast radio: every neighbor hears
each frame, only the addressed node processes it — so the ledger
charges exactly one transmission per forwarding hop, the radio model's
true cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.geometry.primitives import Point, dist_sq
from repro.routing.face import _direction, _rhr_next_positions, _segment_crossing_point
from repro.sim.messages import Message
from repro.sim.network import SyncNetwork
from repro.sim.protocol import NodeProcess
from repro.sim.stats import MessageStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.core.spanner import BackboneResult

DATA = "Data"


@dataclass(frozen=True)
class PacketOutcome:
    """What happened to one injected packet."""

    source: int
    target: int
    delivered: bool
    path: tuple[int, ...]

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)

    @property
    def transmissions(self) -> int:
        return self.hops


@dataclass
class _RoutingState:
    """One node's local routing table, built from construction output."""

    role: str  # "dominatee" | "backbone"
    dominators: tuple[int, ...]
    #: LDel(ICDS) neighbors with positions (backbone nodes only).
    backbone_neighbors: dict[int, Point] = field(default_factory=dict)


class RoutingProcess(NodeProcess):
    """Forwards DATA frames using only local state."""

    def __init__(
        self,
        node_id: int,
        position: Point,
        neighbor_ids,
        neighbor_pos: dict[int, Point],
        state: _RoutingState,
        ttl: int,
    ) -> None:
        super().__init__(node_id, position, neighbor_ids)
        self.neighbor_pos = neighbor_pos
        self.state = state
        self.ttl = ttl
        self.delivered_packets: list[int] = []
        self.dropped_packets: list[tuple[int, str]] = []
        self.outbox_at_start: list[tuple[int, int, Point]] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        for packet_id, target, target_pos in self.outbox_at_start:
            header = {
                "packet_id": packet_id,
                "target": target,
                "target_pos": (target_pos[0], target_pos[1]),
                "hops": 0,
                "mode": "greedy",
                "stuck_pos": None,
                "face_entry": None,
                "came_from": -1,
                "first_edge": None,
            }
            self._forward(header)

    def receive(self, message: Message) -> None:
        if message.kind != DATA or message["next_hop"] != self.node_id:
            return
        header = {key: message[key] for key in (
            "packet_id", "target", "target_pos", "hops", "mode",
            "stuck_pos", "face_entry", "came_from", "first_edge",
        )}
        header["hops"] += 1
        header["came_from"] = message.sender
        if header["target"] == self.node_id:
            self.delivered_packets.append(header["packet_id"])
            return
        self._forward(header)

    # -- forwarding (strictly local) --------------------------------------

    def _forward(self, header: dict[str, Any]) -> None:
        if header["hops"] > self.ttl:
            self.dropped_packets.append((header["packet_id"], "ttl"))
            return
        target = header["target"]
        target_pos = Point(*header["target_pos"])

        # Direct delivery whenever the destination is in radio range.
        if target in self.neighbor_pos:
            self._transmit(header, target)
            return

        if self.state.role == "dominatee":
            if not self.state.dominators:
                self.dropped_packets.append((header["packet_id"], "no-dominator"))
                return
            self._transmit(header, min(self.state.dominators))
            return

        if header["mode"] == "greedy":
            nxt = self._greedy_next(target_pos)
            if nxt is not None:
                self._transmit(header, nxt)
                return
            # Local minimum: enter perimeter mode.
            header["mode"] = "perimeter"
            header["stuck_pos"] = (self.position[0], self.position[1])
            header["face_entry"] = (self.position[0], self.position[1])
            header["came_from"] = -1
            header["first_edge"] = None

        self._perimeter_step(header, target_pos)

    def _greedy_next(self, target_pos: Point) -> Optional[int]:
        best = None
        best_d = dist_sq(self.position, target_pos)
        for v, pv in sorted(self.state.backbone_neighbors.items()):
            d = dist_sq(pv, target_pos)
            if d < best_d:
                best, best_d = v, d
        return best

    def _perimeter_step(self, header: dict[str, Any], target_pos: Point) -> None:
        stuck_pos = Point(*header["stuck_pos"])
        if dist_sq(self.position, target_pos) < dist_sq(stuck_pos, target_pos):
            # Closer than the point where greedy failed: resume greedy.
            header["mode"] = "greedy"
            header["stuck_pos"] = None
            header["face_entry"] = None
            header["first_edge"] = None
            nxt = self._greedy_next(target_pos)
            if nxt is not None:
                self._transmit(header, nxt)
                return
            # Degenerate: still a minimum; re-enter perimeter here.
            header["mode"] = "perimeter"
            header["stuck_pos"] = (self.position[0], self.position[1])
            header["face_entry"] = (self.position[0], self.position[1])
            header["came_from"] = -1
            header["first_edge"] = None

        face_entry = Point(*header["face_entry"])
        came_from = header["came_from"]
        neighbors = self.state.backbone_neighbors
        guard = 0
        while guard <= len(neighbors) + 2:
            guard += 1
            if came_from >= 0 and came_from in neighbors:
                reference = _direction(self.position, neighbors[came_from])
                exclude = came_from
            else:
                reference = _direction(self.position, target_pos)
                exclude = None
            nxt = _rhr_next_positions(self.position, neighbors, reference, exclude)
            if nxt is None:
                self.dropped_packets.append((header["packet_id"], "stuck"))
                return
            crossing = _segment_crossing_point(
                self.position, neighbors[nxt], face_entry, target_pos
            )
            if (
                crossing is not None
                and dist_sq(crossing, target_pos)
                < dist_sq(face_entry, target_pos) - 1e-12
            ):
                face_entry = crossing
                header["face_entry"] = (crossing[0], crossing[1])
                came_from = -1
                header["first_edge"] = None
                continue
            edge = [self.node_id, nxt]
            if header["first_edge"] is None:
                header["first_edge"] = edge
            elif list(header["first_edge"]) == edge:
                self.dropped_packets.append((header["packet_id"], "loop"))
                return
            self._transmit(header, nxt)
            return
        self.dropped_packets.append((header["packet_id"], "face-guard"))

    def _transmit(self, header: dict[str, Any], next_hop: int) -> None:
        self.broadcast(DATA, next_hop=next_hop, **header)


def run_routing_protocol(
    result: BackboneResult,
    packets: list[tuple[int, int]],
    *,
    stats: Optional[MessageStats] = None,
) -> tuple[list[PacketOutcome], MessageStats]:
    """Inject ``packets`` (source, target) and run to quiescence."""
    udg = result.udg
    states = _build_states(result)
    ttl = 8 * udg.node_count + 64
    procs: dict[int, RoutingProcess] = {}

    def factory(node_id: int, _net: SyncNetwork) -> RoutingProcess:
        neighbor_pos = {
            v: udg.positions[v] for v in sorted(udg.neighbors(node_id))
        }
        proc = RoutingProcess(
            node_id,
            udg.positions[node_id],
            tuple(sorted(udg.neighbors(node_id))),
            neighbor_pos,
            states[node_id],
            ttl,
        )
        procs[node_id] = proc
        return proc

    net = SyncNetwork(udg, factory, stats=stats)
    for packet_id, (source, target) in enumerate(packets):
        if source == target:
            continue
        procs[source].outbox_at_start.append(
            (packet_id, target, udg.positions[target])
        )
    net.run(max_rounds=ttl + 8)

    paths = _reconstruct_paths(net, packets)
    outcomes: list[PacketOutcome] = []
    for packet_id, (source, target) in enumerate(packets):
        if source == target:
            outcomes.append(
                PacketOutcome(source, target, True, (source,))
            )
            continue
        delivered = packet_id in procs[target].delivered_packets
        outcomes.append(
            PacketOutcome(
                source=source,
                target=target,
                delivered=delivered,
                path=paths.get(packet_id, (source,)),
            )
        )
    return outcomes, net.stats


def _build_states(result: BackboneResult) -> list[_RoutingState]:
    udg = result.udg
    states: list[_RoutingState] = []
    for node in udg.nodes():
        role = result.role_of(node)
        backbone_neighbors = {
            v: udg.positions[v] for v in sorted(result.ldel_icds.neighbors(node))
        }
        states.append(
            _RoutingState(
                role="dominatee" if role == "dominatee" else "backbone",
                dominators=tuple(sorted(result.dominators_of(node))),
                backbone_neighbors=backbone_neighbors,
            )
        )
    return states


def _reconstruct_paths(
    net: SyncNetwork, packets: list[tuple[int, int]]
) -> dict[int, tuple[int, ...]]:
    """Rebuild each packet's path from the DATA frames actually sent."""
    frames: dict[int, list[tuple[int, int, int]]] = {}
    for message in net.sent_log:
        if message.kind != DATA:
            continue
        frames.setdefault(message["packet_id"], []).append(
            (message["hops"], message.sender, message["next_hop"])
        )
    paths: dict[int, tuple[int, ...]] = {}
    for packet_id, (source, _target) in enumerate(packets):
        ordered = sorted(frames.get(packet_id, []))
        path = [source]
        for _h, sender, next_hop in ordered:
            if sender == path[-1]:
                path.append(next_hop)
        paths[packet_id] = tuple(path)
    return paths
