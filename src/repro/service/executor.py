"""Batch fan-out: run many build/route tasks across a worker pool.

``run_batch`` maps a picklable worker over a list of task payloads
using a ``concurrent.futures`` pool — processes by default (spanner
construction is CPU-bound pure Python, so processes are the only way
to real parallelism under the GIL), threads as an explicit or
automatic fallback (process pools are unavailable in some sandboxes),
or serial for debugging.

Guarantees the serving layer depends on:

* results come back **in input order**, one
  :class:`TaskOutcome` per task — errors and timeouts are captured
  per-task, never raised out of the batch;
* a per-task ``timeout`` marks the outcome ``timed_out`` (the worker
  is abandoned, not killed — stdlib pools cannot cancel running work,
  which is the documented trade-off of this executor model);
* worker latencies are observed into an optional metrics registry.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.service.metrics import MetricsRegistry

#: Executor modes accepted by :func:`run_batch`.
MODES = ("process", "thread", "serial")


class PoolTracker:
    """Strong references to pools that still own abandoned work.

    ``run_batch`` historically shut pools down with ``wait=False`` and
    dropped them — correct for throughput, but a timed-out task leaves
    its worker running with nothing holding the pool, so a graceful
    server shutdown had nothing to join.  A tracker closes that gap:
    pools with unfinished futures are registered here, pools whose
    batches completed cleanly never are, and :meth:`drain` joins
    whatever is still outstanding at shutdown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: list[concurrent.futures.Executor] = []

    def register(self, pool: concurrent.futures.Executor) -> None:
        with self._lock:
            self._pools.append(pool)

    def active(self) -> int:
        with self._lock:
            return len(self._pools)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Join every tracked pool; ``True`` if all exited in time."""
        with self._lock:
            pools, self._pools = self._pools, []
        if not pools:
            return True

        def join_all() -> None:
            for pool in pools:
                pool.shutdown(wait=True, cancel_futures=True)

        waiter = threading.Thread(target=join_all, daemon=True)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            # Hand the stragglers back so a later drain can retry.
            with self._lock:
                self._pools.extend(pools)
            return False
        return True


_GLOBAL_TRACKER = PoolTracker()


def global_tracker() -> PoolTracker:
    """The process-wide tracker ``run_batch`` registers into by default."""
    return _GLOBAL_TRACKER


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task of a batch."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    duration_s: float = 0.0
    timed_out: bool = False

    def as_dict(self) -> dict:
        out: dict[str, Any] = {"index": self.index, "ok": self.ok}
        if self.ok:
            out["value"] = self.value
        else:
            out["error"] = self.error
            if self.timed_out:
                out["timed_out"] = True
        out["elapsed_ms"] = round(self.duration_s * 1000.0, 3)
        return out


@dataclass
class BatchOutcome:
    """All outcomes of one batch plus aggregate accounting."""

    outcomes: list[TaskOutcome]
    mode: str
    workers: int
    elapsed_s: float = 0.0

    @property
    def succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.succeeded

    def values(self) -> list[Any]:
        """Successful values in input order (failures become ``None``)."""
        return [o.value if o.ok else None for o in self.outcomes]

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "tasks": len(self.outcomes),
            "succeeded": self.succeeded,
            "failed": self.failed,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
            "results": [o.as_dict() for o in self.outcomes],
        }


def default_workers() -> int:
    """Pool width when the caller does not choose: cores, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _timed(worker: Callable[[Any], Any], task: Any) -> tuple[Any, float]:
    start = time.perf_counter()
    value = worker(task)
    return value, time.perf_counter() - start


def run_batch(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    mode: str = "process",
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    metric_name: str = "executor.task",
    tracker: Optional[PoolTracker] = None,
) -> BatchOutcome:
    """Fan ``worker`` over ``tasks``; capture every outcome.

    ``mode`` is ``"process"`` (default; silently degrades to threads
    when process pools cannot start), ``"thread"``, or ``"serial"``.
    ``timeout`` bounds each task's wall-clock wait in seconds.
    Pools left with abandoned (timed-out) work are registered with
    ``tracker`` (the global one by default) so a graceful shutdown can
    join them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown executor mode {mode!r}; known: {MODES}")
    workers = max_workers or default_workers()
    tracker = tracker if tracker is not None else _GLOBAL_TRACKER
    started = time.perf_counter()

    if mode == "serial" or not tasks:
        outcomes = [
            _run_serial(index, worker, task, metrics, metric_name)
            for index, task in enumerate(tasks)
        ]
        return BatchOutcome(outcomes, "serial", 1, time.perf_counter() - started)

    pool, actual_mode = _make_pool(mode, workers)
    futures: list[concurrent.futures.Future] = []
    try:
        futures = [pool.submit(_timed, worker, task) for task in tasks]
        outcomes = [
            _collect(index, future, timeout, metrics, metric_name)
            for index, future in enumerate(futures)
        ]
    finally:
        # Abandoned (timed-out) workers keep their slots; don't block
        # the batch response on them — track the pool instead so a
        # graceful shutdown can join the stragglers.
        if any(not future.done() for future in futures):
            tracker.register(pool)
        pool.shutdown(wait=False, cancel_futures=True)
    return BatchOutcome(outcomes, actual_mode, workers, time.perf_counter() - started)


def _make_pool(
    mode: str, workers: int
) -> tuple[concurrent.futures.Executor, str]:
    if mode == "process":
        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            # Probe eagerly: worker spawn failures otherwise surface as
            # confusing per-task BrokenProcessPool errors.
            pool.submit(int, 0).result(timeout=30)
            return pool, "process"
        except Exception:
            pass
    return concurrent.futures.ThreadPoolExecutor(max_workers=workers), "thread"


def _collect(
    index: int,
    future: concurrent.futures.Future,
    timeout: Optional[float],
    metrics: Optional[MetricsRegistry],
    metric_name: str,
) -> TaskOutcome:
    try:
        value, duration = future.result(timeout=timeout)
    except concurrent.futures.TimeoutError:
        future.cancel()
        return TaskOutcome(
            index, False, error=f"timed out after {timeout}s",
            duration_s=timeout or 0.0, timed_out=True,
        )
    except Exception as exc:  # worker raised (or the pool broke)
        return TaskOutcome(
            index, False, error=f"{type(exc).__name__}: {exc}"
        )
    if metrics is not None:
        metrics.observe(metric_name, duration)
    return TaskOutcome(index, True, value=value, duration_s=duration)


def _run_serial(
    index: int,
    worker: Callable[[Any], Any],
    task: Any,
    metrics: Optional[MetricsRegistry],
    metric_name: str,
) -> TaskOutcome:
    start = time.perf_counter()
    try:
        value = worker(task)
    except Exception as exc:
        return TaskOutcome(
            index, False, error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
        )
    duration = time.perf_counter() - start
    if metrics is not None:
        metrics.observe(metric_name, duration)
    return TaskOutcome(index, True, value=value, duration_s=duration)
