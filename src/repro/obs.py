"""Spans and counters: the one way a stage reports wall time and counts.

The paper's cost accounting counts messages at fixed protocol
boundaries (:class:`~repro.sim.stats.MessageStats`); this module holds
wall time and work counts to the same discipline:

* ``with span(name):`` times one stage and appends ``(name, seconds)``
  to the current record when the block completes;
* ``count(name, n)`` adds ``n`` to a named counter of the current
  record;
* ``with recording() as record:`` installs a fresh record for its
  block and yields it.

The current record lives in a :class:`~contextvars.ContextVar`, so
concurrent requests in one process never see each other's numbers.
With no record installed, :func:`span` and :func:`count` cost one
context-variable lookup and record nothing.

A record is a plain dict, ``{"spans": [(name, seconds), ...],
"counts": {name: n}}``, so work that runs in another thread or process
(where the caller's record is not installed) wraps itself in
:func:`recording`, returns the dict with its result, and the caller
folds it back in with :func:`merge`.

Names are the ``GET /metrics`` names: the service folds each record
into one histogram observation per span and one counter increment per
count.  Spans sit at stage boundaries, never inside per-node loops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

Record = dict

_RECORD: ContextVar[Optional[Record]] = ContextVar("repro_obs_record", default=None)


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
    record: Record = {"spans": [], "counts": {}}
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)


def merge(other: Record) -> None:
    """Fold a record returned from another thread or process into the
    current one (if any)."""
    record = _RECORD.get()
    if record is not None:
        record["spans"].extend(other["spans"])
        for name, n in other["counts"].items():
            count(name, n)
