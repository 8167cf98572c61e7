"""LIFO policy — newest-arrived is offered first and dropped first.

A classic queue-policy baseline from Lindgren & Phanse [9]; not in the
paper's comparison but useful as an extra reference point in the extended
benchmarks.  It keeps FIFO's arrival bookkeeping and reverses both ranks.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.policies.fifo import FifoPolicy


class LifoPolicy(FifoPolicy):
    """Send newest first; drop newest first (newcomer loses ties)."""

    name = "lifo"
    compare_newcomer = True

    def send_priority(self, message: Message, now: float) -> float:
        return float(self._order(message))

    def drop_priority(self, message: Message, now: float) -> float:
        return -float(self._order(message))
