"""Per-node, per-kind message accounting.

The experiments report the maximum and average number of messages a
node sends while constructing each structure (paper Figs. 10 and 12);
:class:`MessageStats` is the ledger they read from.

The ledger is columnar: one count column per message kind, indexed by
node id, all columns one length.  A column is an int64 numpy array
when numpy is active and a plain list under ``REPRO_NO_NUMPY=1`` (the
reference form).  So the fast protocol kernels charge a whole phase
with one scatter-add, and a merge or copy is one array operation per
kind.  ``per_node``, ``per_kind`` and ``per_node_kind`` are read-only
mapping views that compare equal to the ``Counter`` ledgers of the
original design (keys ``node``, ``kind`` and ``(node, kind)``, only
nonzero counts present, and a missing key reads as 0); their keys and
tuples are built only when a view is read.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import repeat
from typing import Any, Iterable, Iterator, Sequence

from repro.core import compat


def _as_index(key: Any) -> int:
    """``key`` as a node id, or -1 when it cannot be one."""
    try:
        return operator.index(key)
    except TypeError:
        return -1


class _LedgerView(Mapping):
    """A read-only, ``Counter``-like projection of a :class:`MessageStats`.

    Whole-view reads (iteration, ``items()``, equality) materialize one
    dict; single-key reads look the column entry up directly.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: "MessageStats") -> None:
        self._stats = stats

    def _snapshot(self) -> dict:
        raise NotImplementedError

    def _lookup(self, key: Any) -> int:
        raise NotImplementedError

    def __getitem__(self, key: Any) -> int:
        return self._lookup(key)

    def __contains__(self, key: object) -> bool:
        return self._lookup(key) > 0

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._lookup(key)
        return value if value else default

    def __iter__(self) -> Iterator:
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())

    def keys(self):  # type: ignore[override]
        return self._snapshot().keys()

    def items(self):  # type: ignore[override]
        return self._snapshot().items()

    def values(self):  # type: ignore[override]
        return self._snapshot().values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LedgerView):
            other = other._snapshot()
        if isinstance(other, Mapping):
            return self._snapshot() == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._snapshot()!r})"


class _PerNode(_LedgerView):
    """Sends per node, over every kind (ascending node ids)."""

    __slots__ = ()

    def _snapshot(self) -> dict:
        totals = self._stats._node_totals()
        if isinstance(totals, list):
            return {node: sent for node, sent in enumerate(totals) if sent}
        nodes = totals.nonzero()[0]
        return dict(zip(nodes.tolist(), totals[nodes].tolist()))

    def _lookup(self, key: Any) -> int:
        node = _as_index(key)
        if not 0 <= node < self._stats._size:
            return 0
        return sum(int(col[node]) for col in self._stats._columns.values())


class _PerKind(_LedgerView):
    """Sends per kind, in the order the kinds were first sent."""

    __slots__ = ()

    def _snapshot(self) -> dict:
        return dict(self._stats._totals)

    def _lookup(self, key: Any) -> int:
        return self._stats._totals.get(key, 0)  # type: ignore[arg-type]


class _PerNodeKind(_LedgerView):
    """Sends per ``(node, kind)``, kind by kind, nodes ascending."""

    __slots__ = ()

    def _snapshot(self) -> dict:
        out: dict = {}
        for kind, col in self._stats._columns.items():
            if isinstance(col, list):
                out.update(((node, kind), sent) for node, sent in enumerate(col) if sent)
            else:
                nodes = col.nonzero()[0]
                out.update(zip(((node, kind) for node in nodes.tolist()), col[nodes].tolist()))
        return out

    def _lookup(self, key: Any) -> int:
        try:
            node, kind = key
        except (TypeError, ValueError):
            return 0
        col = self._stats._columns.get(kind)
        node = _as_index(node)
        if col is None or not 0 <= node < self._stats._size:
            return 0
        return int(col[node])


class MessageStats:
    """Counts of broadcasts sent, by node and by message kind."""

    def __init__(self) -> None:
        #: kind -> count column (length ``_size``), in first-send order.
        self._columns: dict[str, Any] = {}
        #: kind -> total sends, kept alongside so totals are O(kinds).
        self._totals: dict[str, int] = {}
        self._size = 0
        self._numpy = compat.numpy_active()

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the columnar form hold three Counters.
        if "per_node_kind" not in state:
            self.__dict__.update(state)
            return
        self.__init__()  # type: ignore[misc]
        for kind in state["per_kind"]:
            self._totals[kind] = 0
        for (node, kind), sent in state["per_node_kind"].items():
            self.record(node, kind, sent)
        self._columns = {kind: self._columns[kind] for kind in self._totals}

    # -- columns ---------------------------------------------------------

    @property
    def per_node(self) -> Mapping[int, int]:
        """Sends per node (a read-only view; absent nodes read as 0)."""
        return _PerNode(self)

    @property
    def per_kind(self) -> Mapping[str, int]:
        """Sends per message kind (a read-only view)."""
        return _PerKind(self)

    @property
    def per_node_kind(self) -> Mapping[tuple[int, str], int]:
        """Sends per ``(node, kind)`` (a read-only view)."""
        return _PerNodeKind(self)

    def _empty(self, size: int) -> Any:
        return compat.np.zeros(size, dtype=compat.np.int64) if self._numpy else [0] * size

    def _convert(self, col: Any) -> Any:
        """Another ledger's column in this ledger's form."""
        if self._numpy:
            return compat.np.asarray(col, dtype=compat.np.int64)
        return col if isinstance(col, list) else col.tolist()

    def _grow(self, size: int) -> None:
        """Lengthen every column to hold node ``size - 1`` (doubling)."""
        if size <= self._size:
            return
        size = max(size, 2 * self._size)
        for kind, col in self._columns.items():
            grown = self._empty(size)
            grown[: self._size] = col
            self._columns[kind] = grown
        self._size = size

    def _column(self, kind: str) -> Any:
        col = self._columns.get(kind)
        if col is None:
            col = self._columns[kind] = self._empty(self._size)
            self._totals.setdefault(kind, 0)
        return col

    def _node_totals(self) -> Any:
        """Sends per node over every kind, as one column."""
        cols = list(self._columns.values())
        if not self._numpy:
            return [sum(row) for row in zip(*cols)] if cols else []
        totals = self._empty(self._size)
        for col in cols:
            totals += col
        return totals

    # -- charging --------------------------------------------------------

    def record(self, node: int, kind: str, count: int = 1) -> None:
        """Charge ``count`` broadcasts of ``kind`` to ``node``.

        A zero count records nothing: a node that never sent stays out
        of the ledger, so :meth:`avg_per_node` does not count it.
        """
        count = operator.index(count)  # a Python int, as totals serialize
        if count < 0:
            raise ValueError("count must be non-negative")
        if node < 0:
            raise ValueError("node ids must be non-negative")
        if count == 0:
            return
        self._grow(node + 1)
        self._column(kind)[node] += count
        self._totals[kind] += count

    def record_counts(
        self, kind: str, nodes: Iterable[int], counts: "Iterable[int] | int"
    ) -> None:
        """Charge ``counts[i]`` broadcasts of ``kind`` to ``nodes[i]``.

        The bulk form of :meth:`record` for kernels that count per node
        in arrays: the same ledger as one :meth:`record` call per pair,
        as one scatter-add.  ``nodes`` must be distinct; ``counts`` may
        be one int charged to every node.
        """
        if not self._numpy:
            each = repeat(counts) if isinstance(counts, int) else counts
            sent = [(node, int(count)) for node, count in zip(nodes, each) if count]
            if not sent:
                return
            if min(count for _, count in sent) < 0 or min(node for node, _ in sent) < 0:
                raise ValueError("counts and node ids must be non-negative")
            self._grow(max(node for node, _ in sent) + 1)
            col = self._column(kind)
            for node, count in sent:
                col[node] += count
            self._totals[kind] += sum(count for _, count in sent)
            return
        np = compat.np
        if isinstance(nodes, range):
            idx = np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)
        elif isinstance(nodes, np.ndarray):
            idx = nodes.astype(np.int64, copy=False)
        else:
            idx = np.fromiter(nodes, dtype=np.int64)
        if isinstance(counts, (int, np.ndarray)):
            vals = np.broadcast_to(np.asarray(counts, dtype=np.int64), idx.shape)
        else:
            vals = np.fromiter(counts, dtype=np.int64, count=idx.shape[0])
        if not vals.any():
            return
        if vals.min() < 0 or idx.min() < 0:
            raise ValueError("counts and node ids must be non-negative")
        self._grow(int(idx.max()) + 1)
        np.add.at(self._column(kind), idx, vals)
        self._totals[kind] += int(vals.sum())

    def merge(
        self, other: "MessageStats", relabel: Sequence[int] | None = None
    ) -> "MessageStats":
        """Accumulate another ledger into this one (returns self).

        With ``relabel``, ``other``'s node ``i`` is charged as node
        ``relabel[i]`` (a sub-network's ledger folded into the parent's
        ids; ``relabel`` must be one-to-one).
        """
        columns = {kind: self._convert(col) for kind, col in other._columns.items()}
        if relabel is None:
            self._grow(other._size)
            for kind, col in columns.items():
                mine = self._column(kind)
                if self._numpy:
                    mine[: other._size] += col
                else:
                    for node, sent in enumerate(col):
                        mine[node] += sent
        else:
            k = len(relabel)
            if any(any(col[k:]) for col in columns.values()):
                raise IndexError("relabel does not cover every sending node")
            if self._numpy:
                ids = compat.np.asarray(relabel, dtype=compat.np.int64)[: other._size]
                if ids.shape[0]:
                    self._grow(int(ids.max()) + 1)
                for kind, col in columns.items():
                    self._column(kind)[ids] += col[: ids.shape[0]]
            else:
                targets = list(relabel[: other._size])
                if targets:
                    self._grow(max(targets) + 1)
                for kind, col in columns.items():
                    mine = self._column(kind)
                    for node, sent in zip(targets, col):
                        mine[node] += sent
        for kind, sent in other._totals.items():
            self._totals[kind] = self._totals.get(kind, 0) + sent
        return self

    def copy(self) -> "MessageStats":
        """Independent deep copy of the ledger."""
        out = MessageStats()
        out._numpy = self._numpy
        out._columns = {kind: col.copy() for kind, col in self._columns.items()}
        out._totals = dict(self._totals)
        out._size = self._size
        return out

    # -- reading ---------------------------------------------------------

    @property
    def total(self) -> int:
        """Broadcasts sent, over every node and kind."""
        return sum(self._totals.values())

    def node_total(self, node: int) -> int:
        """Broadcasts sent by ``node`` (0 if it never sent)."""
        return self.per_node[node]

    def max_per_node(self, nodes: Iterable[int] | None = None) -> int:
        """Largest per-node send count (over ``nodes`` if given)."""
        if nodes is not None:
            view = self.per_node
            return max((view[n] for n in nodes), default=0)
        totals = self._node_totals()
        if not len(totals):
            return 0
        return max(totals) if isinstance(totals, list) else int(totals.max())

    def avg_per_node(self, node_count: int | None = None) -> float:
        """Average sends per node.

        ``node_count`` should be the number of *participating* nodes
        (silent nodes count as zero senders); defaults to the number of
        nodes that sent at least one message.
        """
        if node_count is None:
            totals = self._node_totals()
            node_count = (
                sum(1 for sent in totals if sent)
                if isinstance(totals, list)
                else int(compat.np.count_nonzero(totals))
            )
        if node_count <= 0:
            return 0.0
        return self.total / node_count

    def by_kind(self) -> Mapping[str, int]:
        """Total sends per message kind."""
        return dict(self._totals)
