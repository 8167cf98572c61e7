"""A :class:`~repro.world.world.World` whose contact plane is sharded.

Everything order-dependent — routing, transfers, traffic, faults, metrics —
runs unchanged in this process; only :meth:`World._detect_pairs` is
overridden to answer from the worker fleet via the coordinator's tick
barrier.  The world still advances its own mobility (the coordinator's
push-recovery source and digest reference), so from the simulator's point
of view a sharded run is the scalar engine with a different detector, which
is precisely why its traces are byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.engine.simulator import Simulator
from repro.mobility.base import MobilityModel
from repro.net.transfer import TransferManager
from repro.shard.coordinator import ShardCoordinator
from repro.world.node import Node
from repro.world.world import World

__all__ = ["ShardedWorld"]


class ShardedWorld(World):
    """World variant delegating contact detection to shard workers."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        nodes: list[Node],
        transfer_manager: TransferManager,
        tick: float = 1.0,
        *,
        coordinator: ShardCoordinator,
    ) -> None:
        super().__init__(sim, mobility, nodes, transfer_manager, tick=tick)
        self.coordinator = coordinator

    def start(self, rng: np.random.Generator) -> None:
        super().start(rng)
        # Workers spawn lazily at the first barrier; attaching the live
        # mobility + stream here arms the push-recovery/seed path first.
        self.coordinator.attach(self.mobility, rng)

    def _detect_pairs(self) -> set[tuple[int, int]]:
        return self.coordinator.pairs(self.sim.now, self.positions)

    def close(self) -> None:
        self.coordinator.close()
