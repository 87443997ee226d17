"""Shared pieces of the benchmark suite: statistics, pace, spans, digests, results.

Nothing here imports the library under test, so the serving workload's
load generator and ``compare.py`` can use it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

#: Percentiles (in per mille) the tail rule may report, lowest first.
TAIL_LADDER_PER_MILLE = (900, 950, 990, 999)

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], per_mille: int) -> float:
    """Linearly interpolated percentile (``per_mille`` in 0..1000)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = per_mille / 1000.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_per_mille(count: int) -> Optional[int]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung lacks them; only the median is
    reported then.  Integer arithmetic keeps the rule exact at the
    boundary (100 samples support p90, 1000 support p99).
    """
    best = None
    for q in TAIL_LADDER_PER_MILLE:
        if count * (1000 - q) >= MIN_BEYOND * 1000:
            best = q
    return best


def tail_name(prefix: str, per_mille: int, suffix: str) -> str:
    """``step`` + 950 + ``ms`` -> ``step_p95_ms`` (``p99.9`` -> ``p999``)."""
    label = per_mille // 10 if per_mille % 10 == 0 else per_mille
    return f"{prefix}_p{label}_{suffix}"


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def op_indices(seconds: float, min_ops: int) -> Iterator[int]:
    """Operation numbers for a phase of ``seconds`` wall time.

    The first ``min_ops`` always run, so the fixed prefix that the
    digest and the count metrics cover exists on any machine.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        yield i
        i += 1


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds the reference computation takes on the recording VM while its
#: neighbours leave it alone (README.md); timings are reported at this pace.
REFERENCE_S = 0.0050
REFERENCE_SORT = 130_000


def _reference(values) -> float:
    """A fixed sample of the kinds of work the library does: interpreter
    arithmetic, dict and tuple churn, and a NumPy sort of an array larger
    than the core's cache."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    rng = random.Random(7)
    cells: dict[tuple[int, int], list] = {}
    for _ in range(2000):
        x, y = rng.random(), rng.random()
        cells.setdefault((int(x * 30), int(y * 30)), []).append((x, y))
    order = values.argsort()
    return total + len(cells) + float(values[order[::7]].sum())


class Pace:
    """How fast this host runs right now, from a fixed reference computation.

    On a shared VM the same work can take up to 1.8x as long while
    neighbours are busy, in stretches of seconds to minutes.  The
    workloads time the reference between operations, and report each
    operation scaled by ``REFERENCE_S`` over the reference times sampled
    just before and just after it: its time at one fixed pace.  The scale
    does not depend on the code under test, so a slower program still
    reads slower.
    """

    #: Seconds between samples while operations run back to back.
    EVERY_S = 0.5

    def __init__(self) -> None:
        import numpy

        self._values = numpy.random.default_rng(0).random(REFERENCE_SORT)
        self.at: list[float] = []
        self.reference_s: list[float] = []

    def sample(self) -> None:
        """Time the reference (median of three runs)."""
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            _reference(self._values)
            runs.append(time.perf_counter() - started)
        self.at.append(time.perf_counter())
        self.reference_s.append(statistics.median(runs))

    def tick(self) -> None:
        """Sample unless the last sample is younger than ``EVERY_S``."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def paced(self, started: float, seconds: float) -> float:
        """``seconds`` of work begun at ``started``, at the reference pace."""
        k = bisect.bisect(self.at, started)
        near = self.reference_s[max(0, k - 1):k + 1]
        return seconds * REFERENCE_S / statistics.mean(near)

    def reference_ms(self) -> float:
        return statistics.median(self.reference_s) * 1000.0


def span_cost_s() -> float:
    """Measured seconds one empty :class:`Tracer` span costs."""
    spans = 20_000
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(spans):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - started) / spans


class Tracer:
    """Spans recorded from outside the program, around calls into layers.

    A span's *self time* is its duration minus the durations of the
    spans opened inside it, so the self times of a tree sum to the
    root's duration.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self._children: list[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        self._children.append(0.0)
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            inner = self._children.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - inner
            if self._children:
                self._children[-1] += duration


class Digest:
    """sha256 over canonical JSON of a workload's outputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, obj: object) -> None:
        self._hash.update(
            json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        )
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class WorkloadResult:
    """What one workload run measured, checked and produced.

    ``metrics`` holds the end-to-end metrics, ``layers`` the per-layer
    ones (filled by traced runs), ``details`` the workload-specific
    figures printed beside them; each maps a name to ``(value, unit)``.
    ``reference_ms`` is the run's median :class:`Pace` sample, if it paced.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    reference_ms: Optional[float] = None

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def timing(self, prefix: str, values_s: Sequence[float], unit: str) -> None:
        """Details for one timing series: its count, median and tail."""
        scale = 1000.0 if unit == "ms" else 1.0
        self.details[f"{prefix}_samples"] = (float(len(values_s)), "count")
        if not values_s:
            return
        self.details[f"{prefix}_p50_{unit}"] = (
            statistics.median(values_s) * scale, unit
        )
        q = tail_per_mille(len(values_s))
        if q is not None:
            self.details[tail_name(prefix, q, unit)] = (
                percentile(values_s, q) * scale, unit
            )
