"""Spans and counters: the one way a stage reports wall time and counts.

The paper's cost accounting counts messages at fixed protocol
boundaries (:class:`~repro.sim.stats.MessageStats`); this module holds
wall time and work counts to the same discipline:

* ``with span(name):`` times one stage and appends ``(name, seconds)``
  to the current record when the block completes;
* ``count(name, n)`` adds ``n`` to a named counter of the current
  record;
* ``with recording() as record:`` installs a fresh record for its
  block and yields it (and, while any record is active, garbage
  collections report into it; see below).

The current record lives in a :class:`~contextvars.ContextVar`, so
concurrent requests in one process never see each other's numbers.
With no record installed, :func:`span` and :func:`count` cost one
context-variable lookup and record nothing.

A record is a dict, ``{"spans": [(name, seconds), ...],
"counts": {name: n}}`` (a :class:`Record`, which pickles as one), so
work that runs in another thread or process
(where the caller's record is not installed) wraps itself in
:func:`recording`, returns the dict with its result, and the caller
folds it back in with :func:`merge`.

Names are the ``GET /metrics`` names: the service folds each record
into one histogram observation per span and one counter increment per
count, and its ``gc`` spans into the snapshot's ``gc`` section.  Spans
sit at stage boundaries, never inside per-node loops.

Cyclic garbage collection is time no stage owns, so it is a layer of
its own: while at least one record is active anywhere in the process,
a :data:`gc.callbacks` hook appends a ``(python.gc.gen<N>, seconds)``
span for each collection (``N`` is the generation collected) to the
``gc`` list of the record current in the thread that triggered it.
The hook goes away with the last active record; the library never
changes the collector's own settings.  Collections run inside stages,
so their time overlaps the stage spans; they are kept apart from
``spans`` and ``counts`` so that those still sum, and still name
exactly the work a stage reports, whatever the collector did.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Optional



class Record(dict):
    """``{"spans": [...], "counts": {...}}`` plus the ``gc`` attribute.

    ``gc`` lists the collections that ran while the record was
    current, as ``(name, seconds)``; see the module docstring.
    """

    __slots__ = ("gc",)

    def __init__(self) -> None:
        super().__init__(spans=[], counts={})
        self.gc: list[tuple[str, float]] = []


_RECORD: ContextVar[Optional[Record]] = ContextVar("repro_obs_record", default=None)

_GC_SPANS = ("python.gc.gen0", "python.gc.gen1", "python.gc.gen2")
_gc_lock = threading.Lock()
_gc_records = 0
_gc_started = 0.0


def _on_gc(phase: str, info: dict[str, Any]) -> None:
    """:data:`gc.callbacks` hook: one ``gc`` span per collection.

    Collections never overlap (the collector does not re-enter), so
    one start time serves every thread.
    """
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    record = _RECORD.get()
    if record is not None:
        record.gc.append((_GC_SPANS[info["generation"]], time.perf_counter() - _gc_started))


def _track_gc(delta: int) -> None:
    """Count active records; install the hook at the first, remove it
    after the last."""
    global _gc_records
    with _gc_lock:
        _gc_records += delta
        if delta > 0 and _gc_records == 1:
            gc.callbacks.append(_on_gc)
        elif delta < 0 and _gc_records == 0:
            gc.callbacks.remove(_on_gc)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time the block into the current record (if any) as ``name``."""
    record = _RECORD.get()
    if record is None:
        yield
        return
    started = time.perf_counter()
    yield
    record["spans"].append((name, time.perf_counter() - started))


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` of the current record (if any)."""
    record = _RECORD.get()
    if record is not None:
        counts = record["counts"]
        counts[name] = counts.get(name, 0) + n


@contextmanager
def recording() -> Iterator[Record]:
    """Install a fresh record for the block and yield it."""
    record = Record()
    _track_gc(1)
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)
        _track_gc(-1)


def merge(other: Record) -> None:
    """Fold a record returned from another thread or process into the
    current one (if any)."""
    record = _RECORD.get()
    if record is not None:
        record["spans"].extend(other["spans"])
        for name, n in other["counts"].items():
            count(name, n)
        record.gc.extend(getattr(other, "gc", ()))
