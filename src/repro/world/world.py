"""The world: time-stepped movement + connectivity, event-driven messaging.

Each tick (default 1 s, matching the granularity ONE uses for the paper's
scenarios) the world advances the mobility model, recomputes the link set
with the contact detector, fires ``link.down`` (aborting in-flight
transfers) and ``link.up`` events, purges expired messages, and gives idle
routers a chance to start transfers.

The tick costs what changed.  It hands the detector a drift, how far any
node can have moved since the last tick (the mobility model's
``max_speed`` times the time between ticks, infinite for a model without
one), so the detector tests positions only once nodes may have left their
half-skin (:mod:`repro.world.contacts`).  Then one of three cases holds:

* no candidate flipped: the detector returns its previous key array, the
  very object :attr:`World.link_keys` holds, and the tick fires nothing;
* some candidates flipped: :meth:`KDTreeDetector.changes` names the keys
  that left and joined, in key order, and the tick fires those;
* the detector rebuilt, or the world's link set is not its last result
  (down nodes or mixed radio ranges filter the detector's keys, or
  :meth:`World.set_node_down`, :meth:`World.force_link_down` or
  :meth:`World.set_links` replaced the set): the tick compares the two
  arrays and diffs them by sorted-array search.

All three fire the same events in the same order.  The identity test is
sound because link arrays are replaced, never edited in place.

The last two steps (:func:`routing_phase`) visit only the nodes of a
:class:`DueSet`, the nodes that can act:

* a buffer is purged only once its ``next_expiry`` bound has passed, and
  the purge loop walks the nodes only once the due set's ``min_expiry``
  has: that float bounds every buffer's ``next_expiry`` from below.  A
  buffer's :meth:`~repro.net.buffer.MessageBuffer.add` is the only step
  that lowers its bound, and it lowers ``min_expiry`` with it
  (``on_expiry``); the walk recomputes ``min_expiry`` once it is done;
* an idle sender whose last full scan found nothing, or that has no
  neighbors at all, is asleep (:attr:`Node.asleep`, for routers with
  ``sleeps_when_idle``) and is not rescanned until one of three changes
  wakes it: its own buffer gains a message, a neighbor's buffer loses one
  (the copy may be offered there again), or one of its links comes up.
  Every other change can only remove candidates: deliveries, link
  teardown, token halving, expiry, and SDSRP dropped-list merges and
  prunes (a prune forgets only entries whose message has expired).
  :meth:`Node.wake` and :meth:`Node.sleep` keep the due set's ``awake``
  ids equal to the nodes that are not asleep.

Both loops visit their nodes in ascending id and apply the same per-node
test a walk over every node would, so purges and retries fire on the same
ticks, on the same nodes, in the same order: while the clock is below
``min_expiry`` no buffer passes the purge test, and an asleep node fails
the retry test.  The retry loop walks the ``awake`` ids as they were
when it began; nothing a retry does can wake another node, since a retry
only starts a transfer, which pins a copy and marks its sender busy.  The
retry loop puts an idle node with no neighbors to sleep instead of
skipping it on every tick: ``try_send`` would return at once, and the
link-up that ends its isolation wakes it.

The link hooks skip calls that cannot change anything: ``link_down``
aborts transfers only when one end is sending, and :meth:`Router.try_send`
puts a node with an empty buffer to sleep without a scan.

A link event costs what its work costs.  The tick reads the time once and
hands it down: :func:`link_up` and :func:`link_down` take ``now``, and so
do the hooks they call, ``Router.on_link_up(peer, now)`` and
``Router.on_link_down(peer, now)``, the convention the buffer policies'
hooks share.  The tick splits the keys that changed into two lists of ends
with one array division (:func:`~repro.world.contacts.split_keys`) and
walks them in step.  Each hook is looked up on its instance when it is
called, so a wrapper installed on one router or policy sees every call.

So is each step of the tick: ``mobility.advance``, :meth:`World.detect_links`,
:meth:`World.relink`, :meth:`DueSet.purge`, :meth:`World.announce` (the
``world.updated`` fan-out) and :meth:`DueSet.retry`.  The profiler
(:mod:`repro.obs.profiler`) times them from outside, through wrappers the
scenario builder installs on the instances.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.engine.events import PRIORITY_WORLD
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.net.transfer import TransferManager
from repro.world.contacts import KDTreeDetector, decode, diff_keys, split_keys
from repro.world.node import Node


class DueSet:
    """The nodes a tick's :func:`routing_phase` can have work for.

    ``awake`` holds the ids of the nodes that are not asleep;
    :meth:`Node.wake` and :meth:`Node.sleep` keep it in step.
    ``min_expiry`` is a lower bound on every buffer's ``next_expiry``,
    which :meth:`lower_expiry`, each buffer's ``on_expiry`` hook, keeps.
    Attaches itself to *nodes* and their buffers.
    """

    def __init__(self, nodes: list[Node]) -> None:
        #: Indexed by id: the world holds dense ids, sorted.
        self.nodes = nodes
        self.awake = {node.id for node in nodes if not node.asleep}
        self.min_expiry = min(
            (node.buffer.next_expiry for node in nodes), default=math.inf
        )
        for node in nodes:
            node.due = self
            node.buffer.on_expiry = self.lower_expiry

    def lower_expiry(self, bound: float) -> None:
        """A buffer lowered its expiry bound to *bound*."""
        if bound < self.min_expiry:
            self.min_expiry = bound

    def purge(self, now: float) -> None:
        """Purge every buffer whose expiry bound has passed *now*, then
        recompute :attr:`min_expiry` from the buffers' bounds."""
        nodes = self.nodes
        for node in nodes:
            if node.buffer.next_expiry <= now and node.router is not None:
                node.router.purge_expired()
        self.min_expiry = min(node.buffer.next_expiry for node in nodes)

    def retry(self) -> None:
        """Let every awake idle sender retry: new eligibility can appear
        without a link event (e.g. a neighbor dropped its copy of a message
        we hold)."""
        nodes = self.nodes
        for node_id in sorted(self.awake):
            node = nodes[node_id]
            router = node.router
            if node.sending or node.asleep or router is None:
                continue
            if node.neighbors:
                router.try_send()
            elif router.sleeps_when_idle:
                # No peer to offer a copy to; only a link-up gives it one.
                node.sleep()


def routing_phase(world: World, now: float) -> None:
    """The tail of every tick: TTL purges, ``world.updated``, idle-sender
    retries (see the module docstring for which nodes each loop visits)."""
    due = world.due
    if now >= due.min_expiry:
        due.purge(now)
    world.announce(now)
    due.retry()


def link_up(sim: Simulator, a: Node, b: Node, now: float) -> None:
    """Connect *a* and *b* at time *now*: neighbor maps, ``link.up``,
    router hooks.

    Both ends wake first, since each gained a peer to offer copies to;
    their ``on_link_up`` scans may put them back to sleep.
    """
    a.neighbors[b.id] = b
    b.neighbors[a.id] = a
    a.wake()
    b.wake()
    sim.listeners.emit("link.up", a, b)
    router = a.router
    if router is not None:
        router.on_link_up(b, now)
    router = b.router
    if router is not None:
        router.on_link_up(a, now)


def link_down(
    sim: Simulator, transfer_manager: TransferManager, a: Node, b: Node,
    now: float,
) -> None:
    """Disconnect *a* and *b* at time *now*, aborting transfers riding the
    link."""
    # Neighbor sets first: the aborted sender immediately retries other
    # links and must not re-select the one that just died.
    a.neighbors.pop(b.id, None)
    b.neighbors.pop(a.id, None)
    if a.sending or b.sending:  # else no transfer can ride the link
        transfer_manager.abort_for_link(a, b)
    sim.listeners.emit("link.down", a, b)
    router = a.router
    if router is not None:
        router.on_link_down(b, now)
    router = b.router
    if router is not None:
        router.on_link_down(a, now)


class World:
    """Owns nodes, positions and the link set."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        nodes: list[Node],
        transfer_manager: TransferManager,
        tick: float = 1.0,
    ) -> None:
        if len(nodes) != mobility.n_nodes:
            raise ConfigurationError(
                f"{len(nodes)} nodes but mobility drives {mobility.n_nodes}"
            )
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive: {tick}")
        if sorted(n.id for n in nodes) != list(range(len(nodes))):
            raise ConfigurationError("node ids must be 0..N-1 (dense)")
        self.sim = sim
        self.mobility = mobility
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.transfer_manager = transfer_manager
        #: Looked up on every tick, so a per-instance wrapper of its
        #: ``pairs`` installed after build sees every call.
        self.detector = KDTreeDetector()
        self.tick = float(tick)
        #: The link set: sorted int64 keys ``i * N + j``
        #: (:mod:`repro.world.contacts`), replaced, never edited in place.
        self.link_keys = np.empty(0, dtype=np.int64)
        #: Nodes currently offline (fault injection); they hold no links and
        #: the detector's candidate pairs touching them are discarded.
        self.down_nodes: set[int] = set()
        self.positions = np.zeros((len(nodes), 2))
        #: The time :attr:`positions` were last advanced to: the detector's
        #: drift bound covers the movement since then.
        self._moved_at = 0.0
        self._ranges = np.array([n.radio.range_m for n in self.nodes])
        self._max_range = float(self._ranges.max())
        self._uniform_range = bool(np.all(self._ranges == self._ranges[0]))
        self.due = DueSet(self.nodes)

    def start(self, rng: np.random.Generator) -> None:
        """Initialize mobility and register the recurring update event."""
        self.mobility.initialize(rng)
        self.positions = self.mobility.advance(0.0)
        self.sim.schedule_every(
            self.tick, self.update, priority=PRIORITY_WORLD, start=self.sim.now,
            name="world.update",
        )

    # -- the tick ----------------------------------------------------------

    def update(self) -> None:
        """One world step: move, rewire links, purge TTLs, kick senders."""
        now = self.sim.now
        mobility = self.mobility
        self.positions = mobility.advance(now)
        bound = mobility.max_speed
        drift = math.inf if bound is None else bound * (now - self._moved_at)
        self._moved_at = now
        self.relink(self.detect_links(self.detector, drift), now)
        routing_phase(self, now)

    def relink(self, keys: np.ndarray, now: float) -> None:
        """Make *keys*, the detector's latest result, the link set at time
        *now*, firing ``link.down`` for the pairs that left and ``link.up``
        for those that joined (see the module docstring)."""
        old = self.link_keys
        changes = None
        # The same array means no candidate flipped (module docstring).
        if keys is not old:
            changes = self.detector.changes(old)
            if changes is None and not np.array_equal(keys, old):
                changes = diff_keys(old, keys)
        if changes is not None:
            gone, came = changes
            # Key order is pair order, so events fire in an order that is a
            # function of the pair ids alone; snapshot/restore runs stay
            # byte-identical to uninterrupted ones.
            sim, nodes = self.sim, self.nodes
            n = len(nodes)
            manager = self.transfer_manager
            for i, j in zip(*split_keys(gone, n)):
                link_down(sim, manager, nodes[i], nodes[j], now)
            for i, j in zip(*split_keys(came, n)):
                link_up(sim, nodes[i], nodes[j], now)
        self.link_keys = keys

    def announce(self, now: float) -> None:
        """Fan the tick's ``world.updated`` event out to its listeners."""
        self.sim.listeners.emit("world.updated", now)

    def close(self) -> None:
        """Do nothing: the world holds no external resources.

        Kept so callers that finish with a built simulation (the perf
        benchmark's worker does) need not know that.
        """

    def detect_links(
        self, detector: KDTreeDetector, drift: float = math.inf
    ) -> np.ndarray:
        """The link keys *detector* finds at the current positions: pairs
        within the smaller of the two radio ranges, neither end down.
        *drift* bounds any node's movement since *detector*'s last call
        (see :meth:`KDTreeDetector.pairs`)."""
        keys = detector.pairs(self.positions, self._max_range, drift)
        if not self._uniform_range:
            keys = self._within_both_ranges(keys)
        if self.down_nodes:
            keys = keys[~self._touches(keys, self.down_nodes)]
        return keys

    def _within_both_ranges(self, keys: np.ndarray) -> np.ndarray:
        """Keep pairs within the *smaller* of the two nodes' radio ranges."""
        i, j = np.divmod(keys, len(self.nodes))
        limit = np.minimum(self._ranges[i], self._ranges[j])
        diff = self.positions[i] - self.positions[j]
        # Row by row ``diff @ diff``: the dot kernel of a single pair's
        # ``diff @ diff``, which may fuse the multiply-add, so a distance
        # at the limit rounds (and ties) as it does for one pair.
        squared = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        return keys[squared <= limit * limit]

    def _touches(self, keys: np.ndarray, node_ids: set[int]) -> np.ndarray:
        """Mask of the links in *keys* with an end in *node_ids*."""
        marked = np.zeros(len(self.nodes), dtype=bool)
        marked[sorted(node_ids)] = True
        i, j = np.divmod(keys, len(self.nodes))
        return marked[i] | marked[j]

    # -- fault hooks -------------------------------------------------------

    def set_node_down(self, node_id: int) -> None:
        """Take a node offline: tear down all its links (aborting in-flight
        transfers) and keep it unlinkable until :meth:`set_node_up`."""
        if node_id in self.down_nodes:
            return
        self.down_nodes.add(node_id)
        touching = self._touches(self.link_keys, {node_id})
        gone = self.link_keys[touching]
        self.link_keys = self.link_keys[~touching]
        now = self.sim.now
        for i, j in zip(*split_keys(gone, len(self.nodes))):
            link_down(
                self.sim, self.transfer_manager, self.nodes[i], self.nodes[j], now
            )

    def set_node_up(self, node_id: int) -> None:
        """Bring a node back online; links re-form on the next tick."""
        self.down_nodes.discard(node_id)

    def force_link_down(self, i: int, j: int) -> bool:
        """Drop the (i, j) link now (fault injection).  Returns True if the
        link existed.  If both nodes stay in range it re-forms next tick."""
        a, b = min(i, j), max(i, j)
        n = len(self.nodes)
        if not 0 <= a < b < n:
            return False
        key = a * n + b
        at = int(np.searchsorted(self.link_keys, key))
        if at == self.link_keys.size or self.link_keys[at] != key:
            return False
        self.link_keys = np.delete(self.link_keys, at)
        link_down(
            self.sim, self.transfer_manager, self.nodes[a], self.nodes[b],
            self.sim.now,
        )
        return True

    def set_links(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Make *pairs* ``(i, j), i < j`` the link set without firing link
        events (snapshot restore, which restores neighbor maps itself)."""
        n = len(self.nodes)
        keys = np.array([i * n + j for i, j in pairs], dtype=np.int64)
        keys.sort()
        self.link_keys = keys

    # -- convenience -------------------------------------------------------

    @property
    def links(self) -> frozenset[tuple[int, int]]:
        """The current link set as (i, j) with i < j, decoded on each read."""
        return frozenset(decode(self.link_keys, len(self.nodes)))
