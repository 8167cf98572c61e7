"""MOFO — "evict most forwarded first" (Lindgren & Phanse [9]).

Tracks how many times this node has forwarded each buffered message; on
overflow the most-forwarded one is dropped (it has had the most spreading
opportunities).  Scheduling sends the *least*-forwarded first for the same
reason.  Extra baseline beyond the paper's four.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.policies.base import BufferPolicy


class MofoPolicy(BufferPolicy):
    """Drop the message this node forwarded most often."""

    name = "mofo"
    compare_newcomer = True

    def __init__(self) -> None:
        super().__init__()
        self._forwards: dict[str, int] = {}

    def on_message_forwarded(self, message: Message, now: float) -> None:
        msg_id = message.msg_id
        self._forwards[msg_id] = self._forwards.get(msg_id, 0) + 1

    def send_priority(self, message: Message, now: float) -> float:
        return -float(self._forwards.get(message.msg_id, 0))

    def drop_priority(self, message: Message, now: float) -> float:
        return -float(self._forwards.get(message.msg_id, 0))

    def on_message_dropped(self, message: Message, now: float, reason: str) -> None:
        self._forwards.pop(message.msg_id, None)
