"""Gossiped dropped-message records (paper Fig. 5).

Every node maintains one **own record** — the set of messages *it* has
dropped, stamped with the time of its latest drop — plus cached records
gossiped from other nodes.  On contact, two nodes exchange records and keep,
for each origin node, the copy with the newest record time ("only the source
node can modify the record time... updating the record with the nearest
record time").  ``d_i(T_i)`` (Table I) is then the number of node records
containing message i.

The merge is a last-writer-wins (LWW) map union: commutative, associative
and idempotent (property-tested in ``tests/core/test_dropped_list.py``), so
gossip order cannot corrupt the estimate.

Records also carry each dropped message's expiry time so stale entries
(messages past TTL, which no longer influence any buffer) can be pruned —
the paper assumes the structure is negligibly small; pruning keeps that true
in long runs.

What the store maintains
------------------------
``count_drops`` feeds every priority evaluation and the policy prunes and
merges on every link-up, so the store keeps derived state that makes each
operation cost only what changed.  Every step is exact: the records, and
so every ``count_drops``, ``seen_by_any`` and ``has_dropped`` answer, are
the ones a full rescan at each step would give.

* **Origins that never dropped are not gossiped.**  Their record time is
  −inf and their list is empty, so they count toward no d_i, and any later
  record from that origin is strictly newer.  The store holds its own
  record plus the records of origins that dropped.
* **d_i is a per-message count** (``_counts``), raised when an entry
  arrives (a drop, an adopted record) and lowered when one leaves (a
  replaced record, a prune).  ``count_drops`` and ``seen_by_any`` are dict
  lookups.
* **A prune waits for the earliest expiry.**  ``next_expiry`` is a lower
  bound on every stored expiry, own and adopted, so a prune before it
  would remove nothing; a prune at or after it walks the records and
  recomputes the bound.

:meth:`DroppedListStore.load` replaces the records (snapshot restore) and
rebuilds all of the above from them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field


@dataclass
class DropRecord:
    """One node's dropped-message list.

    ``dropped`` maps message id -> expiry time (absolute seconds), so pruning
    does not need to consult any other component.
    """

    node_id: int
    record_time: float = float("-inf")
    dropped: dict[str, float] = field(default_factory=dict)

    def copy(self) -> "DropRecord":
        return DropRecord(self.node_id, self.record_time, dict(self.dropped))


class DroppedListStore:
    """The per-node gossip store."""

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self._own = DropRecord(node_id)
        #: origin node id -> newest known record from that node.
        self._records: dict[int, DropRecord] = {node_id: self._own}
        #: message id -> number of records listing it (d_i); never 0.
        self._counts: dict[str, int] = {}
        #: Lower bound on every stored expiry.
        self.next_expiry = math.inf

    # -- local drops --------------------------------------------------------

    def record_drop(self, msg_id: str, now: float, expires_at: float) -> None:
        """Add a drop by this node; bumps the own record's time (Fig. 5)."""
        expires_at = float(expires_at)
        if msg_id not in self._own.dropped:
            self._counts[msg_id] = self._counts.get(msg_id, 0) + 1
        self._own.dropped[msg_id] = expires_at
        self._own.record_time = float(now)
        self.next_expiry = min(self.next_expiry, expires_at)

    def has_dropped(self, msg_id: str) -> bool:
        """True if *this* node previously dropped the message (reject rule)."""
        return msg_id in self._own.dropped

    # -- gossip -------------------------------------------------------------

    def merge_from(self, other: "DroppedListStore") -> None:
        """Adopt any record of *other* that is newer than ours (LWW union)."""
        for origin, theirs in other._records.items():
            if origin == self.node_id:
                continue  # only we are authoritative for our own record
            mine = self._records.get(origin)
            newest = -math.inf if mine is None else mine.record_time
            if theirs.record_time > newest:
                if mine is not None:
                    self._uncount(mine.dropped)
                self._records[origin] = theirs.copy()
                self._count(theirs.dropped)

    def known_records(self) -> dict[int, DropRecord]:
        """Snapshot view (origin -> record), including the own record."""
        return dict(self._records)

    def load(self, records: Iterable[DropRecord]) -> None:
        """Replace the records and rebuild the derived state (restore).

        *records* must include the own record.  Records of other origins
        that never dropped are skipped: snapshots from before this store
        stopped gossiping them still list them, and they are inert.
        """
        self._records = {
            rec.node_id: rec
            for rec in records
            if rec.node_id == self.node_id or rec.record_time > -math.inf
        }
        self._own = self._records[self.node_id]
        self._counts = {}
        self.next_expiry = math.inf
        for rec in self._records.values():
            self._count(rec.dropped)

    # -- estimation -----------------------------------------------------------

    def count_drops(self, msg_id: str) -> int:
        """d_i — number of known nodes whose list contains *msg_id*."""
        return self._counts.get(msg_id, 0)

    def seen_by_any(self, msg_id: str) -> bool:
        """True if any known record lists *msg_id* (``reject="any"`` mode)."""
        return msg_id in self._counts

    # -- maintenance -----------------------------------------------------------

    def prune(self, now: float) -> int:
        """Forget entries for messages whose TTL has fully elapsed.

        Returns the number of entries removed.  The own record's
        ``record_time`` is *not* touched — pruning is not a drop event.
        """
        if now < self.next_expiry:
            return 0
        removed = 0
        bound = math.inf
        for rec in self._records.values():
            stale = [mid for mid, exp in rec.dropped.items() if exp <= now]
            for mid in stale:
                del rec.dropped[mid]
            self._uncount(stale)
            removed += len(stale)
            if rec.dropped:
                bound = min(bound, min(rec.dropped.values()))
        self.next_expiry = bound
        return removed

    def __len__(self) -> int:
        """Total dropped entries across all known records."""
        return sum(self._counts.values())

    # -- derived state -----------------------------------------------------------

    def _count(self, dropped: dict[str, float]) -> None:
        counts = self._counts
        for mid in dropped:
            counts[mid] = counts.get(mid, 0) + 1
        if dropped:
            self.next_expiry = min(self.next_expiry, min(dropped.values()))

    def _uncount(self, msg_ids: Iterable[str]) -> None:
        counts = self._counts
        for mid in msg_ids:
            left = counts[mid] - 1
            if left:
                counts[mid] = left
            else:
                del counts[mid]
