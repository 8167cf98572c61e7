"""Epidemic routing (Vahdat & Becker [7]).

Replicate every message to every encountered node that lacks it.  Maximal
delivery ratio under infinite resources, pathological under constrained
buffers — which is the paper's motivation for copy-limited routing.  Used
as a substrate baseline in the extended benchmarks.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.routing.base import MODE_COPY, Router
from repro.world.node import Node


class EpidemicRouter(Router):
    """Unlimited replication."""

    name = "epidemic"
    sleeps_when_idle = True

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        return MODE_COPY
