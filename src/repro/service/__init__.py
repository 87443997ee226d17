"""The spanner construction service: a long-running serving layer.

The paper's constructions are one-shot library calls; this package
amortizes them across request traffic:

* :mod:`~repro.service.registry` — named, parameter-validated
  pipelines over the topology builders;
* :mod:`~repro.service.cache` — content-addressed LRU result cache
  (memory + optional disk) keyed by scenario fingerprints;
* :mod:`~repro.service.executor` — batch fan-out over a process or
  thread pool with per-task timeouts and error capture;
* :mod:`~repro.service.metrics` — counters and latency histograms
  (p50/p95/p99) for build, cache, and route operations;
* :mod:`~repro.service.server` — :class:`SpannerService`, the
  transport-free application object with one method per endpoint;
* :mod:`~repro.service.dispatch` — the route table mapping
  ``(method, path, body)`` onto the service;
* :mod:`~repro.service.aserver` — the asyncio HTTP front end over a
  shared-nothing worker pool (:mod:`~repro.service.pool`), behind
  ``python -m repro serve``;
* :mod:`~repro.service.client` — a small urllib client for tests and
  scripts.
"""

from repro.service.aserver import serve_async
from repro.service.cache import ResultCache, scenario_key
from repro.service.executor import BatchOutcome, TaskOutcome, run_batch
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    PipelineSpec,
    available_pipelines,
    build_scenario,
    get_pipeline,
    resolve_scenario,
)
from repro.service.server import SpannerService

__all__ = [
    "ResultCache",
    "scenario_key",
    "BatchOutcome",
    "TaskOutcome",
    "run_batch",
    "MetricsRegistry",
    "PipelineSpec",
    "available_pipelines",
    "build_scenario",
    "get_pipeline",
    "resolve_scenario",
    "SpannerService",
    "serve_async",
]
