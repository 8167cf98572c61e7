"""Contact-trace-driven world: replay connectivity without mobility.

Given a recorded :class:`~repro.traces.contact_trace.ContactTrace`, this
world schedules the exact same link transitions as events — no positions, no
detector.  Uses:

* **regression**: a run replayed from its own recorded trace produces
  byte-identical message metrics (tested in
  ``tests/world/test_trace_world.py``);
* **real contact datasets**: many DTN traces are published as contact lists
  rather than GPS logs; this is the entry point for them;
* **speed**: replay skips the mobility + detection cost entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.events import PRIORITY_WORLD
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.transfer import TransferManager
from repro.world.node import Node
from repro.world.world import DueSet, link_down, link_up, routing_phase

if TYPE_CHECKING:  # pragma: no cover - breaks the traces<->world import cycle
    from repro.traces.contact_trace import ContactTrace


class TraceWorld:
    """Link lifecycle driven by a contact trace instead of movement."""

    def __init__(
        self,
        sim: Simulator,
        nodes: list[Node],
        transfer_manager: TransferManager,
        trace: ContactTrace,
        tick: float = 1.0,
    ) -> None:
        if sorted(n.id for n in nodes) != list(range(len(nodes))):
            raise ConfigurationError("node ids must be 0..N-1 (dense)")
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive: {tick}")
        max_id = max((max(e.a, e.b) for e in trace.events), default=-1)
        if max_id >= len(nodes):
            raise ConfigurationError(
                f"trace references node {max_id}, only {len(nodes)} nodes"
            )
        self.sim = sim
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.due = DueSet(self.nodes)
        self.transfer_manager = transfer_manager
        self.trace = trace
        self.tick = float(tick)
        self.links: set[tuple[int, int]] = set()
        #: Nodes currently offline (fault injection).  Trace ``up`` events
        #: touching a down node are discarded; after a rejoin, connectivity
        #: resumes at the next recorded contact.
        self.down_nodes: set[int] = set()

    def start(self) -> None:
        """Schedule every trace event plus the recurring maintenance tick."""
        for event in self.trace.events:
            if event.time > self.sim.end_time:
                break
            self.sim.schedule_at(
                event.time,
                self._apply,
                event.a,
                event.b,
                event.up,
                priority=PRIORITY_WORLD,
            )
        self.sim.schedule_every(self.tick, self._maintain, priority=PRIORITY_WORLD)

    # -- event application ---------------------------------------------------

    def _apply(self, a_id: int, b_id: int, up: bool) -> None:
        a, b = self.nodes[a_id], self.nodes[b_id]
        key = (min(a_id, b_id), max(a_id, b_id))
        if up:
            if key in self.links:
                return  # idempotent against duplicate trace lines
            if a_id in self.down_nodes or b_id in self.down_nodes:
                return  # faulted node: the recorded contact never happens
            self.links.add(key)
            link_up(self.sim, a, b, self.sim.now)
        else:
            if key not in self.links:
                return
            self._drop_link(a, b, self.sim.now)

    def _drop_link(self, a: Node, b: Node, now: float) -> None:
        self.links.discard((min(a.id, b.id), max(a.id, b.id)))
        link_down(self.sim, self.transfer_manager, a, b, now)

    # -- fault hooks ---------------------------------------------------------

    def set_node_down(self, node_id: int) -> None:
        """Take a node offline: tear down its links and discard its trace
        contacts until :meth:`set_node_up`."""
        if node_id in self.down_nodes:
            return
        self.down_nodes.add(node_id)
        # Sorted so teardown order is a function of the pair ids alone,
        # never of set memory layout (matches World.set_node_down).
        now = self.sim.now
        for i, j in sorted(pair for pair in self.links if node_id in pair):
            self._drop_link(self.nodes[i], self.nodes[j], now)

    def set_node_up(self, node_id: int) -> None:
        """Bring a node back online (connectivity resumes at the next
        recorded contact)."""
        self.down_nodes.discard(node_id)

    def force_link_down(self, i: int, j: int) -> bool:
        """Drop the (i, j) link now.  Returns True if the link existed.
        It re-forms only at the trace's next ``up`` event for the pair."""
        key = (min(i, j), max(i, j))
        if key not in self.links:
            return False
        self._drop_link(self.nodes[key[0]], self.nodes[key[1]], self.sim.now)
        return True

    def _maintain(self) -> None:
        """TTL purge + idle-sender retry (the tick half of World.update)."""
        routing_phase(self.sim, self.due, self.sim.now)
