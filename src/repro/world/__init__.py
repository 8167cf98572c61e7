"""World model: nodes, radios, connectivity and the time-stepped update.

The :class:`repro.world.world.World` advances the mobility substrate at a
fixed tick, detects link changes with the KD-tree
:class:`~repro.world.contacts.KDTreeDetector`, purges expired messages, and
publishes ``link.up`` / ``link.down`` / ``world.updated`` events that drive
the routing layer.
"""

from repro.world.contacts import ContactDetector, KDTreeDetector
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.trace_world import TraceWorld
from repro.world.world import World

__all__ = [
    "ContactDetector",
    "KDTreeDetector",
    "Node",
    "Radio",
    "TraceWorld",
    "World",
]
