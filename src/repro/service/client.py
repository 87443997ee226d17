"""A small stdlib client for the spanner service.

Used by the integration tests, the benchmark, and scripts; mirrors the
endpoint surface one-to-one.  Raises :class:`ClientError` with the
server's status code and error message on any non-2xx response.

Resilience: ``429`` throttling from the async tier's admission
control is always retried with exponential backoff (plus jitter) —
the front end rejects throttled requests *before* dispatching them,
so a retry can never duplicate work.  Connection errors and ``503``
are ambiguous (the server may have applied the request before the
response was lost), so they are retried only for idempotent
requests: every ``GET``, plus the pure-computation ``POST``s
(``/build``, ``/batch``, ``/route``, ``/route_batch``,
``/build_stream``) whose replay cannot change server state.
State-mutating calls — session create/step/stream/delete,
deployment put/delete — fail fast on those errors instead of
risking a silent duplicate (an extra live session, a spurious 409
on ``overwrite=false``).  A ``Retry-After`` header overrides the
computed backoff; ``retries=0`` restores fail-fast everywhere.

Streaming: :meth:`ServiceClient.build_stream` and
:meth:`ServiceClient.session_stream` consume the SSE endpoints,
yielding ``(event, data)`` pairs as frames arrive.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Iterator, Mapping, Optional, Sequence

#: Always retried: the admission-control throttle, which by
#: construction is answered before the request reaches a worker.
ALWAYS_RETRYABLE_STATUSES = (429,)

#: Retried only for idempotent requests: the response says the
#: service was unavailable, but an intermediary could produce the
#: same status after the origin applied the request.
IDEMPOTENT_RETRYABLE_STATUSES = (429, 503)


class ClientError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talks JSON to a running spanner service."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        retries: int = 3,
        backoff_s: float = 0.2,
        max_backoff_s: float = 5.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        #: Retries actually performed (observability for tests/benchmarks).
        self.retry_count = 0

    # -- plumbing --------------------------------------------------------

    def _prepare(
        self, method: str, path: str, payload: Any, accept: str
    ) -> urllib.request.Request:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": accept}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        return urllib.request.Request(url, data=data, headers=headers, method=method)

    def _sleep_for(self, attempt: int, retry_after: Optional[str]) -> float:
        if retry_after:
            try:
                return max(0.0, float(retry_after))
            except ValueError:
                pass
        base = min(self.max_backoff_s, self.backoff_s * (2 ** attempt))
        return base * (0.5 + random.random() / 2.0)  # full-ish jitter

    def _open(self, request: urllib.request.Request, *, idempotent: bool):
        """Open with idempotency-gated retry semantics.

        ``429`` is retried unconditionally (admission control rejects
        before dispatch, so nothing was applied).  Connection errors
        and ``503`` — where the request may already have taken effect
        server-side — are retried only when ``idempotent`` says a
        replay cannot change state or duplicate work.
        """
        retryable_statuses = (
            IDEMPOTENT_RETRYABLE_STATUSES
            if idempotent
            else ALWAYS_RETRYABLE_STATUSES
        )
        attempt = 0
        while True:
            try:
                return urllib.request.urlopen(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                if exc.code in retryable_statuses and attempt < self.retries:
                    delay = self._sleep_for(attempt, exc.headers.get("Retry-After"))
                    exc.close()
                    self.retry_count += 1
                    attempt += 1
                    time.sleep(delay)
                    continue
                try:
                    message = json.loads(exc.read()).get("error", exc.reason)
                except Exception:
                    message = str(exc.reason)
                raise ClientError(exc.code, message) from None
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                if idempotent and attempt < self.retries:
                    self.retry_count += 1
                    time.sleep(self._sleep_for(attempt, None))
                    attempt += 1
                    continue
                raise ClientError(0, f"connection failed: {exc}") from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        *,
        idempotent: Optional[bool] = None,
    ) -> dict:
        if idempotent is None:
            idempotent = method == "GET"
        with self._open(
            self._prepare(method, path, payload, "application/json"),
            idempotent=idempotent,
        ) as response:
            return json.loads(response.read())

    def _stream(
        self, path: str, payload: Any, *, idempotent: bool = False
    ) -> Iterator[tuple[str, Any]]:
        """POST and yield parsed SSE ``(event, data)`` pairs as they land."""
        from repro.service.streaming import iter_sse_events

        response = self._open(
            self._prepare("POST", path, payload, "text/event-stream"),
            idempotent=idempotent,
        )
        try:
            yield from iter_sse_events(response)
        finally:
            response.close()

    # -- endpoints -------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def pipelines(self) -> dict:
        return self._request("GET", "/pipelines")

    def build(
        self,
        pipeline: str,
        scenario: Mapping[str, Any],
        params: Optional[Mapping[str, Any]] = None,
        *,
        stream: bool = False,
    ) -> "dict | Iterator[tuple[str, Any]]":
        """``POST /build`` — or, with ``stream=True``, the SSE variant
        yielding ``start`` / ``result`` (or ``error``) / ``end`` events."""
        payload: dict[str, Any] = {"pipeline": pipeline, "scenario": dict(scenario)}
        if params:
            payload["params"] = dict(params)
        if stream:
            return self._stream("/build_stream", payload, idempotent=True)
        return self._request("POST", "/build", payload, idempotent=True)

    def batch(
        self,
        requests: Sequence[Mapping[str, Any]],
        executor: Optional[Mapping[str, Any]] = None,
    ) -> dict:
        payload: dict[str, Any] = {"requests": [dict(r) for r in requests]}
        if executor:
            payload["executor"] = dict(executor)
        return self._request("POST", "/batch", payload, idempotent=True)

    def route(
        self,
        source: int,
        target: int,
        *,
        key: Optional[str] = None,
        pipeline: Optional[str] = None,
        scenario: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
        mode: str = "gpsr",
    ) -> dict:
        payload: dict[str, Any] = {"source": source, "target": target, "mode": mode}
        if key is not None:
            payload["key"] = key
        if pipeline is not None:
            payload["pipeline"] = pipeline
        if scenario is not None:
            payload["scenario"] = dict(scenario)
        if params:
            payload["params"] = dict(params)
        return self._request("POST", "/route", payload, idempotent=True)

    def route_batch(
        self,
        *,
        key: Optional[str] = None,
        pipeline: Optional[str] = None,
        scenario: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
        pairs: Optional[Sequence[Sequence[int]]] = None,
        count: Optional[int] = None,
        seed: Optional[int] = None,
        mode: str = "gpsr",
        max_hops: Optional[int] = None,
        include_paths: Optional[int] = None,
        chunk: Optional[int] = None,
        failure: Optional[Mapping[str, Any]] = None,
    ) -> dict:
        payload: dict[str, Any] = {"mode": mode}
        if key is not None:
            payload["key"] = key
        if pipeline is not None:
            payload["pipeline"] = pipeline
        if scenario is not None:
            payload["scenario"] = dict(scenario)
        if params:
            payload["params"] = dict(params)
        if pairs is not None:
            payload["pairs"] = [list(pair) for pair in pairs]
        if count is not None:
            payload["count"] = count
        if seed is not None:
            payload["seed"] = seed
        if max_hops is not None:
            payload["max_hops"] = max_hops
        if include_paths is not None:
            payload["include_paths"] = include_paths
        if chunk is not None:
            payload["chunk"] = chunk
        if failure is not None:
            payload["failure"] = dict(failure)
        return self._request("POST", "/route_batch", payload, idempotent=True)

    # -- sessions --------------------------------------------------------

    def session_create(
        self, scenario: Mapping[str, Any], *, tile_cells: Optional[int] = None
    ) -> dict:
        payload: dict[str, Any] = {"scenario": dict(scenario)}
        if tile_cells is not None:
            payload["tile_cells"] = tile_cells
        return self._request("POST", "/session", payload)

    def session_step(
        self,
        session_id: str,
        events: Sequence[Mapping[str, Any]],
        *,
        verify: bool = False,
    ) -> dict:
        payload = {"events": [dict(e) for e in events], "verify": verify}
        return self._request("POST", f"/session/{session_id}/step", payload)

    def session_stream(
        self,
        session_id: str,
        batches: Sequence[Sequence[Mapping[str, Any]]],
        *,
        verify: bool = False,
    ) -> Iterator[tuple[str, Any]]:
        """``POST /session/{id}/stream`` — one ``delta`` event per batch."""
        payload = {
            "batches": [[dict(e) for e in batch] for batch in batches],
            "verify": verify,
        }
        return self._stream(f"/session/{session_id}/stream", payload)

    def session_get(self, session_id: str) -> dict:
        return self._request("GET", f"/session/{session_id}")

    def session_delete(self, session_id: str) -> dict:
        return self._request("DELETE", f"/session/{session_id}")

    # -- deployments -----------------------------------------------------

    def deployment_put(
        self,
        name: str,
        scenario: Mapping[str, Any],
        *,
        overwrite: bool = True,
    ) -> dict:
        return self._request(
            "POST",
            "/deployments",
            {"name": name, "scenario": dict(scenario), "overwrite": overwrite},
        )

    def deployments(self) -> dict:
        return self._request("GET", "/deployments")

    def deployment_get(self, name: str) -> dict:
        return self._request("GET", f"/deployments/{name}")

    def deployment_delete(self, name: str) -> dict:
        return self._request("DELETE", f"/deployments/{name}")
