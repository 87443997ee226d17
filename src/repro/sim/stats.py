"""Per-node, per-kind message accounting.

The experiments report the maximum and average number of messages a
node sends while constructing each structure (paper Figs. 10 and 12);
:class:`MessageStats` is the ledger they read from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence


@dataclass
class MessageStats:
    """Counts of broadcasts sent, by node and by message kind."""

    per_node: Counter = field(default_factory=Counter)
    per_kind: Counter = field(default_factory=Counter)
    per_node_kind: Counter = field(default_factory=Counter)

    def record(self, node: int, kind: str, count: int = 1) -> None:
        """Charge ``count`` broadcasts of ``kind`` to ``node``.

        A zero count records nothing: a node that never sent stays out
        of the ledger, so :meth:`avg_per_node` does not count it.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self.per_node[node] += count
        self.per_kind[kind] += count
        self.per_node_kind[(node, kind)] += count

    def record_counts(self, kind: str, nodes: Iterable[int], counts: Iterable[int]) -> None:
        """Charge ``counts[i]`` broadcasts of ``kind`` to ``nodes[i]``.

        The bulk form of :meth:`record` for kernels that count per node
        in arrays: the same ledger as one :meth:`record` call per pair,
        without the per-call overhead.  ``nodes`` must be distinct.
        """
        sent = {node: count for node, count in zip(nodes, counts) if count}
        if not sent:
            return
        if min(sent.values()) < 0:
            raise ValueError("count must be non-negative")
        fresh = kind not in self.per_kind
        self.per_kind[kind] += sum(sent.values())
        self.per_node.update(sent)
        keyed = zip(zip(sent, repeat(kind)), sent.values())
        if fresh:
            # No (node, kind) key exists yet: a plain dict update.
            dict.update(self.per_node_kind, keyed)
        else:
            self.per_node_kind.update(dict(keyed))

    def merge(
        self, other: "MessageStats", relabel: Sequence[int] | None = None
    ) -> "MessageStats":
        """Accumulate another ledger into this one (returns self).

        With ``relabel``, ``other``'s node ``i`` is charged as node
        ``relabel[i]`` (a sub-network's ledger folded into the parent's
        ids; ``relabel`` must be one-to-one).
        """
        per_node: Mapping = other.per_node
        per_node_kind: Mapping = other.per_node_kind
        if relabel is not None:
            per_node = {relabel[node]: sent for node, sent in per_node.items()}
            per_node_kind = {
                (relabel[node], kind): sent for (node, kind), sent in per_node_kind.items()
            }
        self.per_node.update(per_node)
        if self.per_kind.keys().isdisjoint(other.per_kind):
            # Each protocol phase sends kinds of its own, so a merge
            # usually adds only fresh (node, kind) keys: a dict update.
            dict.update(self.per_node_kind, per_node_kind)
        else:
            self.per_node_kind.update(per_node_kind)
        self.per_kind.update(other.per_kind)
        return self

    def copy(self) -> "MessageStats":
        """Independent deep copy of the ledger."""
        out = MessageStats()
        return out.merge(self)

    @property
    def total(self) -> int:
        return sum(self.per_kind.values())

    def node_total(self, node: int) -> int:
        """Broadcasts sent by ``node`` (0 if it never sent)."""
        return self.per_node.get(node, 0)

    def max_per_node(self, nodes: Iterable[int] | None = None) -> int:
        """Largest per-node send count (over ``nodes`` if given)."""
        if nodes is not None:
            return max((self.per_node.get(n, 0) for n in nodes), default=0)
        return max(self.per_node.values(), default=0)

    def avg_per_node(self, node_count: int | None = None) -> float:
        """Average sends per node.

        ``node_count`` should be the number of *participating* nodes
        (silent nodes count as zero senders); defaults to the number of
        nodes that sent at least one message.
        """
        n = node_count if node_count is not None else len(self.per_node)
        if n <= 0:
            return 0.0
        return self.total / n

    def by_kind(self) -> Mapping[str, int]:
        """Total sends per message kind."""
        return dict(self.per_kind)
