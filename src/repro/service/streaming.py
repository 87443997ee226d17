"""Server-sent-event streaming: build progress and topology deltas.

The paper's construction is *localized* — per-tile results are
independently certifiable — which is exactly what lets the serving
layer stream them out as they land instead of blocking on the global
build.  Two SSE surfaces exploit that:

* ``POST /build_stream`` — a build request whose response is an event
  stream: a ``start`` event, a ``tile`` event per finished shard tile
  (``sharded:*`` pipelines; the PR 3 tile/stitch structure), the full
  ``result`` document (identical to what ``POST /build`` would have
  returned), and ``end``;
* ``POST /session/{id}/stream`` — a *sequence* of incremental event
  batches applied to a live maintenance session, answered with one
  ``delta`` event per batch (the PR 6 topology delta: edges added and
  removed) as each is computed.

Both producers run inside the transport-agnostic dispatch layer; the
pool workers forward each frame over their pipe as it is produced, and
the front end writes it to the socket unchanged.

SSE framing is the standard one (``event:`` + ``data:`` lines,
blank-line terminated); :func:`iter_sse_events` is the matching
client-side parser used by :class:`~repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import json
import queue
import threading
from typing import Any, Iterable, Iterator

from repro.service.server import ServiceError, SpannerService

#: Most event batches one ``/session/{id}/stream`` request may carry.
MAX_STREAM_BATCHES = 10_000


def sse_event(event: str, data: Any) -> bytes:
    """One wire-ready SSE frame."""
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode()


def iter_sse_events(lines: Iterable[bytes]) -> Iterator[tuple[str, Any]]:
    """Parse an SSE byte-line stream into ``(event, data)`` pairs.

    ``data`` is JSON-decoded (every producer in this package sends
    JSON).  Comment lines and unknown fields are ignored, per spec.
    """
    event = "message"
    data_lines: list[str] = []
    for raw in lines:
        line = raw.rstrip(b"\r\n").decode()
        if not line:
            if data_lines:
                yield event, json.loads("\n".join(data_lines))
            event, data_lines = "message", []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "event":
            event = value
        elif field == "data":
            data_lines.append(value)
    if data_lines:
        yield event, json.loads("\n".join(data_lines))


# -- streaming build ----------------------------------------------------------


def build_stream(service: "SpannerService", payload: Any) -> Iterator[bytes]:
    """``POST /build_stream`` — validate eagerly, then stream the build.

    Validation happens before the first frame so malformed requests
    still fail with a plain JSON 400 (the dispatch layer maps the
    raised :class:`ServiceError`); once the stream starts, failures
    travel as an ``error`` event.
    """
    name, scenario, params, key = service._prepare(payload)
    service.metrics.inc("streaming.builds")
    return _build_events(service, name, scenario, params, key)


def _build_events(
    service: "SpannerService", name: str, scenario: dict, params: dict, key: str
) -> Iterator[bytes]:
    yield sse_event(
        "start",
        {
            "pipeline": name,
            "key": key,
            "params": params,
            "nodes": len(scenario["points"]),
        },
    )
    cached = service.cache.get(key)
    if cached is not None:
        service.metrics.inc("build.cache_hits")
        yield sse_event(
            "result", {"key": key, "params": params, "cache": "hit", **cached.summary()}
        )
        yield sse_event("end", {"events": 2})
        return
    service.metrics.inc("build.cache_misses")

    from repro.sharding.build import tile_observer

    events: "queue.Queue[tuple[str, Any]]" = queue.Queue()
    done = object()

    def run_build() -> None:
        # The observer contextvar is set in this thread, so only tile
        # work done on behalf of this build reports into this stream.
        try:
            with tile_observer(
                lambda phase, info: events.put(("tile", {"phase": phase, **info}))
            ):
                product = service._construct(name, scenario, params)
            service.cache.put(key, product)
            events.put(("product", product))
        except Exception as exc:
            events.put(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            events.put((done, None))  # type: ignore[arg-type]

    worker = threading.Thread(target=run_build, daemon=True)
    worker.start()
    emitted = 1
    try:
        while True:
            kind, value = events.get()
            if kind is done:
                break
            if kind == "tile":
                emitted += 1
                service.metrics.inc("streaming.tile_events")
                yield sse_event("tile", value)
            elif kind == "product":
                emitted += 1
                yield sse_event(
                    "result",
                    {"key": key, "params": params, "cache": "miss", **value.summary()},
                )
            else:  # error
                emitted += 1
                service.metrics.inc("streaming.errors")
                yield sse_event("error", {"error": value})
        yield sse_event("end", {"events": emitted + 1})
    finally:
        worker.join(timeout=60)


def _tile_event_info(outcome_index: int, total: int, value: Any, seconds: float) -> dict:
    """The JSON body of one ``tile`` event, from a tile worker's result."""
    info: dict[str, Any] = {
        "index": outcome_index,
        "tiles": total,
        "seconds": round(seconds, 6),
    }
    if isinstance(value, dict):
        tile = value.get("tile")
        if tile is not None:
            info["tile"] = list(tile)
        nodes = value.get("nodes")
        if isinstance(nodes, dict):
            info.update(nodes)
        for field in ("candidates", "contests", "straddle_contests"):
            if field in value:
                info[field] = value[field]
        survivors = value.get("survivors")
        if survivors is not None:
            info["survivors"] = len(survivors)
        accepted = value.get("accepted")
        if accepted is not None:
            info["accepted"] = len(accepted)
    return info


# -- streaming sessions -------------------------------------------------------


def session_stream(
    service: "SpannerService", session_id: str, payload: Any
) -> Iterator[bytes]:
    """``POST /session/{id}/stream`` — one topology delta per batch."""
    from collections.abc import Mapping

    if not isinstance(payload, Mapping):
        raise ServiceError(400, "request body must be a JSON object")
    service._session(session_id)  # 404 before the stream starts
    batches = payload.get("batches")
    if not isinstance(batches, list) or not batches:
        raise ServiceError(400, "'batches' must be a non-empty list of event lists")
    if len(batches) > MAX_STREAM_BATCHES:
        raise ServiceError(400, f"at most {MAX_STREAM_BATCHES} batches per stream")
    if not all(isinstance(batch, list) for batch in batches):
        raise ServiceError(400, "each batch must be a list of event objects")
    verify = bool(payload.get("verify", False))
    service.metrics.inc("streaming.sessions")
    return _session_events(service, session_id, batches, verify)


def _session_events(
    service: "SpannerService", session_id: str, batches: list, verify: bool
) -> Iterator[bytes]:
    yield sse_event(
        "start", {"session": session_id, "batches": len(batches), "verify": verify}
    )
    applied = 0
    for batch in batches:
        try:
            report = service.session_step(
                session_id, {"events": batch, "verify": verify}
            )
        except ServiceError as exc:
            service.metrics.inc("streaming.errors")
            yield sse_event("error", {"error": exc.message, "status": exc.status})
            break
        except Exception as exc:
            service.metrics.inc("streaming.errors")
            service.metrics.inc("server.errors")
            yield sse_event("error", {"error": f"{type(exc).__name__}: {exc}"})
            break
        applied += 1
        service.metrics.inc("streaming.delta_events")
        yield sse_event("delta", report)
    yield sse_event("end", {"session": session_id, "applied": applied})
