"""Traffic generation.

The paper's workload: "messages with random sources and destinations are
generated periodically" with an inter-generation gap drawn uniformly from an
interval (e.g. "one message every 25-35 seconds", Table II), fixed size
0.5 MB, fixed TTL 300 min, and L initial copies placed at the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.world.node import Node


@dataclass(frozen=True)
class TrafficSpec:
    """Workload parameters (Table II / Table III rows).

    The paper uses a fixed 0.5 MB message size; ``size_range`` optionally
    draws sizes uniformly instead (an extension workload under which
    set-based drop strategies like the knapsack variant differ from plain
    ranking).
    """

    interval_range: tuple[float, float]
    message_size: int
    ttl: float
    initial_copies: int
    size_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        lo, hi = self.interval_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad interval_range: {self.interval_range}")
        if self.message_size <= 0:
            raise ConfigurationError(f"bad message_size: {self.message_size}")
        if self.ttl <= 0:
            raise ConfigurationError(f"bad ttl: {self.ttl}")
        if self.initial_copies < 1:
            raise ConfigurationError(f"bad initial_copies: {self.initial_copies}")
        if self.size_range is not None:
            slo, shi = self.size_range
            if not 0 < slo <= shi:
                raise ConfigurationError(f"bad size_range: {self.size_range}")

    def draw_size(self, rng: np.random.Generator) -> int:
        """The next message's size in bytes."""
        if self.size_range is None:
            return self.message_size
        slo, shi = self.size_range
        return int(rng.integers(slo, shi + 1))


class MessageGenerator:
    """Creates messages at random nodes on the spec's schedule."""

    def __init__(
        self,
        sim: Simulator,
        nodes: list[Node],
        spec: TrafficSpec,
        rng: np.random.Generator,
        id_prefix: str = "M",
    ) -> None:
        if len(nodes) < 2:
            raise ConfigurationError("traffic needs at least 2 nodes")
        self.sim = sim
        self.nodes = nodes
        self.spec = spec
        self.rng = rng
        self.id_prefix = id_prefix
        self.created = 0
        #: Time of the next generation event, recorded even when it falls
        #: past the horizon (so a restore with an extended horizon re-arms
        #: the exact draw this generator already consumed).
        self._next_at = float("nan")

    def start(self) -> None:
        """Arm the first generation event."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        lo, hi = self.spec.interval_range
        gap = float(self.rng.uniform(lo, hi))
        when = self.sim.now + gap
        self._next_at = when
        if when <= self.sim.end_time:
            self.sim.schedule_at(when, self._generate)

    def rearm(self) -> None:
        """Re-schedule the pending generation event (snapshot restore)."""
        when = self._next_at
        if when == when and when <= self.sim.end_time:
            self.sim.schedule_at(when, self._generate)

    def _generate(self) -> None:
        """Create one message at a random source, then arm the next."""
        src_idx, dst_idx = self.rng.choice(len(self.nodes), size=2, replace=False)
        source = self.nodes[int(src_idx)]
        dest = self.nodes[int(dst_idx)]
        self.created += 1
        message = Message(
            msg_id=f"{self.id_prefix}{self.created}",
            source=source.id,
            destination=dest.id,
            size=self.spec.draw_size(self.rng),
            created_at=self.sim.now,
            ttl=self.spec.ttl,
            initial_copies=self.spec.initial_copies,
            copies=self.spec.initial_copies,
        )
        assert source.router is not None
        source.router.create_message(message)
        self._schedule_next()
