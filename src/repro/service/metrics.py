"""Service metrics: counters and latency histograms.

Stdlib-only instrumentation for the serving layer.  Counters are
monotonically increasing named integers; histograms keep a bounded
reservoir of observations and report p50/p95/p99 alongside count, sum,
min and max.  Everything is thread-safe — the HTTP server handles
requests on a thread per connection and the batch executor observes
latencies from worker completion callbacks.

The exported snapshot is plain JSON (``GET /metrics``), flat enough to
scrape into any external system later without changing the producers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of sorted data."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class LatencyHistogram:
    """Bounded reservoir of latency observations (seconds).

    Keeps the most recent ``max_samples`` observations (a sliding
    window, not a random reservoir: serving dashboards care about
    *recent* tail latency) plus running count/sum/min/max over the
    full lifetime.
    """

    __slots__ = ("name", "max_samples", "_samples", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, *, max_samples: int = 4096) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        with self._lock:
            self._count += 1
            self._sum += seconds
            self._min = min(self._min, seconds)
            self._max = max(self._max, seconds)
            self._samples.append(seconds)
            if len(self._samples) > self.max_samples:
                # Drop the oldest half in one go; amortized O(1).
                del self._samples[: self.max_samples // 2]

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    def snapshot(self) -> dict:
        with self._lock:
            samples = sorted(self._samples)
            count, total = self._count, self._sum
            lo = self._min if self._count else 0.0
            hi = self._max
        return {
            "count": count,
            "sum_s": total,
            "avg_ms": (total / count * 1000.0) if count else 0.0,
            "min_ms": lo * 1000.0,
            "max_ms": hi * 1000.0,
            "p50_ms": percentile(samples, 0.50) * 1000.0,
            "p95_ms": percentile(samples, 0.95) * 1000.0,
            "p99_ms": percentile(samples, 0.99) * 1000.0,
        }


class MetricsRegistry:
    """A namespace of counters and histograms with a JSON snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()
        self.started_at = time.time()

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram(name)
            return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a dict of counter deltas in (e.g. the counts of a
        :mod:`repro.obs` record); zero and negative values are skipped
        rather than creating empty counters or violating monotonicity."""
        for name, amount in counters.items():
            if isinstance(amount, int) and not isinstance(amount, bool) and amount > 0:
                self.counter(name).inc(amount)

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        with self.histogram(name).time():
            yield

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "uptime_s": time.time() - self.started_at,
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "latency": {
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
        }
