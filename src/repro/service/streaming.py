"""Server-sent-event streaming: build results and topology deltas.

Two SSE surfaces:

* ``POST /build_stream`` — a build request whose response is an event
  stream: a ``start`` event as soon as the request validates, then the
  full ``result`` document (identical to what ``POST /build`` would
  have returned) or an ``error`` event, and ``end``;
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
    else:
        service.metrics.inc("build.cache_misses")
        try:
            product = service._construct(name, scenario, params)
        except Exception as exc:
            service.metrics.inc("streaming.errors")
            yield sse_event("error", {"error": f"{type(exc).__name__}: {exc}"})
        else:
            service.cache.put(key, product)
            yield sse_event(
                "result",
                {"key": key, "params": params, "cache": "miss", **product.summary()},
            )
    yield sse_event("end", {"events": 3})


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
