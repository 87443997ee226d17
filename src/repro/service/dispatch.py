"""Transport-agnostic request dispatch for the spanner service.

Endpoint *semantics* — the route tables, body-parsing rules, error
mapping, and JSON encoding — are defined exactly once here, free of
any transport.  The worker loop of :mod:`repro.service.pool` calls
:func:`dispatch` on its private :class:`SpannerService` and ships
:meth:`JsonResponse.encode` to the asyncio front end
(:mod:`repro.service.aserver`), which writes those bytes verbatim;
in-process tests call it directly and see the same bytes.

A caller hands in ``(service, method, path, raw_body)`` and gets
back either a :class:`JsonResponse` (status + JSON payload, already
encodable to the exact bytes on the wire) or an :class:`EventStream`
(an iterator of pre-framed SSE event bytes to be written as they are
produced).  :func:`dispatch` never raises: service-level failures map
to their declared status codes, anything else becomes a 500 and bumps
the ``server.errors`` counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.service import streaming
from repro.service.server import ServiceError, SpannerService

#: Request bodies above this are rejected with 413 (64 MiB: a
#: 500k-point explicit scenario still fits).  The front end refuses
#: larger bodies before reading them, with this same number.
MAX_BODY = 64 * 1024 * 1024


@dataclass
class JsonResponse:
    """One JSON response: status, payload, optional extra headers.

    ``cacheable`` is a transport hint: ``True`` marks responses whose
    bytes are a pure function of the request (a warm ``/build`` hit, a
    ``/route_batch`` answer, the pipeline listing) and may be replayed
    verbatim by a front-end response cache.  It never changes the
    response itself.
    """

    status: int
    payload: Any
    headers: dict = field(default_factory=dict)
    cacheable: bool = False

    def encode(self) -> bytes:
        """The exact bytes the transport writes for this response."""
        return json.dumps(self.payload).encode()


@dataclass
class EventStream:
    """A server-sent-event response: pre-framed event bytes.

    ``events`` yields complete SSE frames (``event: ...\\ndata:
    ...\\n\\n`` already encoded); transports write each frame as it
    arrives and close the connection afterwards.
    """

    events: Iterator[bytes]
    status: int = 200
    content_type: str = "text/event-stream"


DispatchResult = "JsonResponse | EventStream"


def error_response(status: int, message: str) -> JsonResponse:
    """The uniform error body shape: ``{"error": <message>}``."""
    return JsonResponse(status, {"error": message})


def normalize_path(path: str) -> str:
    """Strip the query string and trailing slashes (``/`` survives)."""
    bare = path.split("?", 1)[0].rstrip("/")
    return bare or "/"


def _parse_body(raw: Optional[bytes], *, optional: bool = False) -> Any:
    """Decode a JSON request body under the endpoint's body rules."""
    if raw is None or len(raw) == 0:
        if optional:
            return {}
        raise ServiceError(400, "request body required")
    if len(raw) > MAX_BODY:
        raise ServiceError(413, "request body too large")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ServiceError(400, f"invalid JSON body: {exc}") from None


def _build_cache_hint(payload: Any) -> bool:
    """A ``/build`` response is replayable once it reports a warm hit."""
    return isinstance(payload, Mapping) and payload.get("cache") == "hit"


def _mutable_scenario(body: Any) -> bool:
    """Does the request resolve through mutable server state?

    A scenario of the form ``{"deployment": "<name>"}`` is looked up
    in the :class:`~repro.service.store.DeploymentStore` at request
    time, and the name can be re-pointed at a different point set by
    a later ``POST /deployments``.  Responses derived from it are
    therefore *not* pure functions of the request bytes and must
    never be marked ``cacheable`` — a front cache keyed on raw
    request bytes would replay the pre-overwrite answer forever.
    """
    if not isinstance(body, Mapping):
        return False
    scenario = body.get("scenario")
    return isinstance(scenario, Mapping) and "deployment" in scenario


def _route_get(
    service: "SpannerService", parts: list[str]
) -> Optional[Callable[[], JsonResponse]]:
    """The GET route table: path parts -> a thunk producing a response."""
    if parts == ["healthz"]:
        return lambda: JsonResponse(200, service.healthz())
    if parts == ["metrics"]:
        return lambda: JsonResponse(200, service.metrics_snapshot())
    if parts == ["pipelines"]:
        return lambda: JsonResponse(200, service.pipelines(), cacheable=True)
    if parts == ["invariants"]:
        return lambda: JsonResponse(200, service.invariants_summary())
    if parts == ["deployments"]:
        return lambda: JsonResponse(200, service.deployments_list())
    if len(parts) == 2 and parts[0] == "deployments":
        return lambda: JsonResponse(200, service.deployments_get(parts[1]))
    if len(parts) == 2 and parts[0] == "session":
        return lambda: JsonResponse(200, service.session_get(parts[1]))
    return None


def _route_post(
    service: "SpannerService", parts: list[str], raw: Optional[bytes]
) -> Optional[Callable[[], "JsonResponse | EventStream"]]:
    """The POST route table (body parsing deferred into the thunk)."""
    if len(parts) == 1:
        name = parts[0]
        if name == "build":
            def build_thunk() -> JsonResponse:
                body = _parse_body(raw)
                payload = service.build(body)
                return JsonResponse(
                    200,
                    payload,
                    cacheable=_build_cache_hint(payload)
                    and not _mutable_scenario(body),
                )

            return build_thunk
        if name == "batch":
            return lambda: JsonResponse(200, service.batch(_parse_body(raw)))
        if name == "route":
            def route_thunk() -> JsonResponse:
                body = _parse_body(raw)
                return JsonResponse(
                    200,
                    service.route(body),
                    cacheable=not _mutable_scenario(body),
                )

            return route_thunk
        if name == "route_batch":
            def route_batch_thunk() -> JsonResponse:
                body = _parse_body(raw)
                return JsonResponse(
                    200,
                    service.route_batch(body),
                    cacheable=not _mutable_scenario(body),
                )

            return route_batch_thunk
        if name == "session":
            return lambda: JsonResponse(
                200, service.session_create(_parse_body(raw))
            )
        if name == "validate":
            return lambda: JsonResponse(
                200, service.validate(_parse_body(raw, optional=True))
            )
        if name == "build_stream":
            return lambda: EventStream(
                streaming.build_stream(service, _parse_body(raw))
            )
        if name == "deployments":
            return lambda: JsonResponse(
                200, service.deployments_create(_parse_body(raw))
            )
        return None
    if len(parts) == 3 and parts[0] == "session":
        if parts[2] == "step":
            return lambda: JsonResponse(
                200, service.session_step(parts[1], _parse_body(raw))
            )
        if parts[2] == "stream":
            return lambda: EventStream(
                streaming.session_stream(service, parts[1], _parse_body(raw))
            )
    return None


def _route_delete(
    service: "SpannerService", parts: list[str]
) -> Optional[Callable[[], JsonResponse]]:
    """The DELETE route table."""
    if len(parts) == 2 and parts[0] == "session":
        return lambda: JsonResponse(200, service.session_delete(parts[1]))
    if len(parts) == 2 and parts[0] == "deployments":
        return lambda: JsonResponse(200, service.deployments_delete(parts[1]))
    return None


def dispatch(
    service: "SpannerService",
    method: str,
    path: str,
    raw_body: Optional[bytes] = None,
) -> "JsonResponse | EventStream":
    """Route one request to the service; never raises.

    ``raw_body`` is the unparsed request body (``None`` when the
    request carried none); each endpoint applies its own body rules,
    so the transport stays byte-oriented and every 400/413 is
    produced here.
    """
    bare = normalize_path(path)
    parts = [p for p in bare.strip("/").split("/") if p]
    if method == "GET":
        thunk = _route_get(service, parts)
    elif method == "POST":
        thunk = _route_post(service, parts, raw_body)
    elif method == "DELETE":
        thunk = _route_delete(service, parts)
    else:
        return error_response(405, f"method {method} not allowed")
    if thunk is None:
        return error_response(404, f"unknown path {bare!r}")
    try:
        return thunk()
    except ServiceError as exc:
        return error_response(exc.status, exc.message)
    except Exception as exc:  # a bug, not a bad request
        service.metrics.inc("server.errors")
        return error_response(500, f"{type(exc).__name__}: {exc}")


#: Streaming endpoints (used by transports that must decide how to
#: frame the response before dispatching, e.g. the async front end's
#: admission control).
def is_streaming_path(method: str, path: str) -> bool:
    parts = [p for p in normalize_path(path).strip("/").split("/") if p]
    if method != "POST":
        return False
    return parts == ["build_stream"] or (
        len(parts) == 3 and parts[0] == "session" and parts[2] == "stream"
    )
