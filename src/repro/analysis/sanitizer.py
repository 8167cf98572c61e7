"""Runtime invariant sanitizer.

The static layer (``tools/reprolint``) catches determinism and style bugs in
the source; this module catches *state* corruption while a simulation runs.
A :class:`Sanitizer` subscribes to the simulator's listener registry and
re-validates the structural invariants of the message plane on every world
tick:

* **buffer accounting** — each node's ``MessageBuffer.used`` equals the sum
  of its stored message sizes, and never exceeds the capacity;
* **pin hygiene** — every pinned id refers to a message actually stored in
  that buffer (a dangling pin makes bytes undroppable forever);
* **TTL monotonicity** — a copy's remaining TTL never *increases* between
  ticks for the same (node, message) pair;
* **spray-token conservation** — for token-splitting routers, the global sum
  of ``Message.copies`` over all live copies of a logical message never
  exceeds ``initial_copies`` and never increases tick-over-tick (binary
  splits conserve tokens; drops only destroy them);
* **single commit** — the two-phase transfer protocol commits each
  transfer's token halving at most once (``transfer.commit`` with a repeated
  :attr:`~repro.net.transfer.Transfer.seq` is a protocol bug);
* **TTL purge** — no unpinned expired copy survives the tick's purge loop
  (which skips buffers whose ``next_expiry`` bound has not passed);
* **scan memo** — every idle, linked node the tick's idle-sender loop is
  about to skip as asleep really has nothing to send: a full rescan finds
  no candidate;
* **dropped count** — every SDSRP node's maintained d_i counts equal a
  recount over its dropped-list records, and the store's prune bound
  (``next_expiry``) is no later than any stored expiry.  A store is
  recounted whenever a record's time or length, the bound or the counts
  changed since its last passing recount.

Violations raise :class:`~repro.errors.InvariantViolation` naming the
invariant, the node, the message and the simulation time, so a corrupted run
dies at the first bad tick instead of producing silently skewed figures.

Checks are O(total buffered messages) per tick, plus the send scans the
scan memo saved and a recount of each dropped-list store that changed —
cheap enough for CI smoke runs (``make sanitize-smoke``), too slow for
large sweeps; enable explicitly via ``Simulator(sanitize=True)``,
``ScenarioConfig(sanitize=True)``, ``repro-exp run --sanitize`` or
``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro.core.dropped_list import DroppedListStore
from repro.errors import InvariantViolation
from repro.units import TIME_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator
    from repro.net.transfer import Transfer
    from repro.world.node import Node

#: Remaining-TTL slack: two ticks reading the same copy must not see the
#: remaining TTL grow by more than float noise.
_TTL_EPS = TIME_EPS


class Sanitizer:
    """Per-tick structural validation of the simulation's message plane.

    Parameters
    ----------
    nodes:
        The fleet to watch.
    check_copies:
        Enable the spray-token conservation check.  Only meaningful for
        token-splitting routers ("snw", "snf"): vanilla source-spray and
        epidemic forwarding clone full token counts by design, which this
        invariant would (correctly, but uselessly) reject.
    """

    def __init__(self, nodes: list[Node], check_copies: bool = True) -> None:
        self.nodes = nodes
        self.check_copies = bool(check_copies)
        #: Ticks validated so far (diagnostics; lets smoke tests assert the
        #: sanitizer actually ran rather than silently doing nothing).
        self.ticks_checked = 0
        # remaining-TTL floor per (node_id, msg_id), pruned as copies vanish.
        self._ttl_seen: dict[tuple[int, str], float] = {}
        # live token-sum ceiling per msg_id (starts at initial_copies and
        # ratchets down as drops destroy tokens).
        self._copy_budget: dict[str, int] = {}
        self._committed_seqs: set[int] = set()
        # node id -> ((store, prune bound, record shapes), counts) as of its
        # last passing dropped-list recount.
        self._dropped_verified: dict[int, tuple[Any, ...]] = {}

    # -- wiring ------------------------------------------------------------

    def subscribe(self, sim: Simulator) -> None:
        """Attach to *sim*'s listener registry."""
        sim.listeners.subscribe("world.updated", self.check_tick)
        sim.listeners.subscribe("transfer.commit", self.on_commit)

    # -- event handlers ----------------------------------------------------

    def on_commit(self, transfer: Transfer) -> None:
        """Reject a second commit of the same transfer's token halving."""
        if transfer.seq in self._committed_seqs:
            raise InvariantViolation(
                "single-commit",
                f"transfer seq={transfer.seq} "
                f"({transfer.sender.id}->{transfer.receiver.id}) "
                "committed twice",
                node_id=transfer.sender.id,
                msg_id=transfer.message.msg_id,
            )
        self._committed_seqs.add(transfer.seq)

    # -- the per-tick sweep -------------------------------------------------

    def check_tick(self, now: float) -> None:
        """Validate every invariant against the current fleet state."""
        live_keys: set[tuple[int, str]] = set()
        copy_sums: dict[str, int] = {}
        initial: dict[str, int] = {}

        for node in self.nodes:
            buf = node.buffer
            stored = buf.messages()

            recomputed = sum(m.size for m in stored)
            if recomputed != buf.used:
                raise InvariantViolation(
                    "buffer-accounting",
                    f"used={buf.used}B but stored messages sum to "
                    f"{recomputed}B",
                    node_id=node.id,
                    time=now,
                )
            if buf.used > buf.capacity:
                raise InvariantViolation(
                    "buffer-capacity",
                    f"used={buf.used}B exceeds capacity={buf.capacity}B",
                    node_id=node.id,
                    time=now,
                )

            stored_ids = {m.msg_id for m in stored}
            for pinned in buf.pinned_ids():
                if pinned not in stored_ids:
                    raise InvariantViolation(
                        "pin-hygiene",
                        "pinned id not stored in buffer (leaked pin)",
                        node_id=node.id,
                        msg_id=pinned,
                        time=now,
                    )

            for m in stored:
                key = (node.id, m.msg_id)
                live_keys.add(key)
                remaining = m.remaining_ttl(now)
                floor = self._ttl_seen.get(key)
                if floor is not None and remaining > floor + _TTL_EPS:
                    raise InvariantViolation(
                        "ttl-monotonic",
                        f"remaining TTL rose from {floor:.6f}s to "
                        f"{remaining:.6f}s",
                        node_id=node.id,
                        msg_id=m.msg_id,
                        time=now,
                    )
                self._ttl_seen[key] = remaining
                copy_sums[m.msg_id] = copy_sums.get(m.msg_id, 0) + m.copies
                initial[m.msg_id] = m.initial_copies

        # Prune state for copies that left every buffer this tick.
        for key in [k for k in self._ttl_seen if k not in live_keys]:
            del self._ttl_seen[key]

        if self.check_copies:
            self._check_copy_conservation(copy_sums, initial, now)

        # Checked last: corrupted message state (e.g. inflated tokens) can
        # also create a send candidate, and the checks above name the cause.
        for node in self.nodes:
            if node.router is not None:
                self._check_purged(node, now)
                self._check_dropped_counts(node, now)
                self._check_scan_memo(node, now)

        self.ticks_checked += 1

    def _check_purged(self, node: Node, now: float) -> None:
        buf = node.buffer
        for m in buf.expired(now):
            if not buf.is_pinned(m.msg_id):
                raise InvariantViolation(
                    "ttl-purge",
                    f"expired copy survived the TTL purge (expiry bound "
                    f"{buf.next_expiry:.6f}s)",
                    node_id=node.id,
                    msg_id=m.msg_id,
                    time=now,
                )

    def _check_dropped_counts(self, node: Node, now: float) -> None:
        assert node.router is not None
        store = getattr(node.router.policy, "dropped", None)
        if not isinstance(store, DroppedListStore):
            return
        records = store.known_records()
        # Every change a store makes to its records moves some record's
        # time (a drop, an adoption) or length (a new drop, a prune), so
        # while neither that, the bound nor the counts moved, the last
        # recount still stands.
        state = (store, store.next_expiry, [
            (origin, rec.record_time, len(rec.dropped))
            for origin, rec in records.items()
        ])
        if self._dropped_verified.get(node.id) == (state, store._counts):
            return
        lists = [record.dropped for record in records.values()]
        bound = min(chain.from_iterable(d.values() for d in lists), default=math.inf)
        if bound < store.next_expiry:
            msg_id = next(m for d in lists for m, exp in d.items() if exp == bound)
            raise InvariantViolation(
                "dropped-count",
                f"stored expiry {bound:.6f}s precedes the prune bound "
                f"{store.next_expiry:.6f}s",
                node_id=node.id,
                msg_id=msg_id,
                time=now,
            )
        recount = dict(Counter(chain.from_iterable(lists)))
        # A count kept for an id no record lists is corruption too.
        for msg_id in sorted(recount.keys() | store._counts.keys()):
            kept, actual = store.count_drops(msg_id), recount.get(msg_id, 0)
            if kept != actual:
                raise InvariantViolation(
                    "dropped-count",
                    f"maintained d_i is {kept} but {actual} records list "
                    "the message",
                    node_id=node.id,
                    msg_id=msg_id,
                    time=now,
                )
        self._dropped_verified[node.id] = (state, recount)

    def _check_scan_memo(self, node: Node, now: float) -> None:
        if not node.asleep or node.sending or not node.neighbors:
            return
        assert node.router is not None
        choice = node.router.select_next()
        if choice is not None:
            peer, message, mode = choice
            raise InvariantViolation(
                "scan-memo",
                f"asleep node would send to {peer.id} ({mode}); a change "
                "that created this candidate did not wake it",
                node_id=node.id,
                msg_id=message.msg_id,
                time=now,
            )

    def _check_copy_conservation(
        self, copy_sums: dict[str, int], initial: dict[str, int], now: float
    ) -> None:
        for msg_id, total in copy_sums.items():
            budget = self._copy_budget.get(msg_id, initial[msg_id])
            if total > budget:
                raise InvariantViolation(
                    "copy-conservation",
                    f"live spray tokens sum to {total} but at most {budget} "
                    f"may exist (initial={initial[msg_id]})",
                    msg_id=msg_id,
                    time=now,
                )
            # Ratchet: drops destroy tokens; splits conserve them.  A later
            # tick showing more tokens than any earlier tick is corruption.
            self._copy_budget[msg_id] = total
        for msg_id in [m for m in self._copy_budget if m not in copy_sums]:
            del self._copy_budget[msg_id]
