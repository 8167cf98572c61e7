"""Byte-exact message buffer.

The buffer only does storage and accounting; *which* message to drop when
space runs out is the buffer policy's job (see :mod:`repro.policies`).  It
preserves insertion order so FIFO-style policies can rank without extra
bookkeeping, and tracks "pinned" messages (currently being transmitted) that
must not be dropped mid-transfer.

Cheap summaries let the world tick skip buffers that cannot have changed:
:attr:`MessageBuffer.next_expiry` bounds the earliest expiry from below,
and three optional hooks tell the owner what happened:

* ``on_add()``: the buffer gained a message;
* ``on_remove()``: the buffer lost a message;
* ``on_expiry(bound)``: :meth:`~MessageBuffer.add` lowered
  ``next_expiry`` to *bound*, the only step that lowers it (the world's
  due set keeps a lower bound over all buffers).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from repro.errors import (
    DuplicateMessageError,
    MessageNotFoundError,
    ReproBufferError,
)
from repro.net.message import Message


class MessageBuffer:
    """A capacity-limited store of :class:`Message` copies.

    Parameters
    ----------
    capacity:
        Capacity in bytes. Must be positive.
    on_add, on_remove:
        Called with no arguments after a message is stored / removed.
    """

    def __init__(
        self,
        capacity: int,
        on_add: Callable[[], None] | None = None,
        on_remove: Callable[[], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ReproBufferError(f"buffer capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._messages: dict[str, Message] = {}  # insertion-ordered
        self._used = 0
        self._pins: dict[str, int] = {}
        #: Lower bound on the earliest ``expires_at()`` of the stored copies
        #: (``inf`` when none): :meth:`add` lowers it and
        #: :meth:`refresh_expiry` makes it exact.  No copy has expired while
        #: the clock is below it.
        self.next_expiry = math.inf
        self._on_add = on_add
        self._on_remove = on_remove
        #: Called with the new :attr:`next_expiry` whenever :meth:`add`
        #: lowers it; the world's due set installs it.
        self.on_expiry: Callable[[float], None] | None = None

    # -- capacity ----------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes currently occupied."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self.capacity - self._used

    def fits(self, message: Message) -> bool:
        """True if *message* fits in the current free space."""
        return message.size <= self.free

    def could_ever_fit(self, message: Message) -> bool:
        """True if *message* would fit in an empty buffer."""
        return message.size <= self.capacity

    # -- storage -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._messages

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages.values())

    def messages(self) -> list[Message]:
        """Snapshot of stored messages in insertion (arrival) order."""
        return list(self._messages.values())

    def ids(self) -> list[str]:
        """Message ids in insertion order."""
        return list(self._messages.keys())

    def get(self, msg_id: str) -> Message:
        """Return the stored copy for *msg_id*.

        Raises :class:`MessageNotFoundError` if absent.
        """
        try:
            return self._messages[msg_id]
        except KeyError:
            raise MessageNotFoundError(msg_id) from None

    def add(self, message: Message) -> None:
        """Insert *message*; the caller must have ensured space.

        Raises :class:`DuplicateMessageError` on id collision and
        :class:`ReproBufferError` if the message does not fit — callers are
        expected to run the drop policy first, so an overflow here is a bug.
        """
        if message.msg_id in self._messages:
            raise DuplicateMessageError(message.msg_id)
        if message.size > self.free:
            raise ReproBufferError(
                f"message {message.msg_id} ({message.size}B) exceeds free "
                f"space ({self.free}B of {self.capacity}B)"
            )
        self._messages[message.msg_id] = message
        self._used += message.size
        expires = message.expires_at()
        if expires < self.next_expiry:
            self.next_expiry = expires
            if self.on_expiry is not None:
                self.on_expiry(expires)
        if self._on_add is not None:
            self._on_add()

    def remove(self, msg_id: str) -> Message:
        """Remove and return the copy for *msg_id*.

        Pinned messages cannot be removed (see :meth:`pin`).
        """
        if self.is_pinned(msg_id):
            raise ReproBufferError(f"message {msg_id} is pinned (in transfer)")
        message = self._messages.pop(msg_id, None)
        if message is None:
            raise MessageNotFoundError(msg_id)
        self._used -= message.size
        if self._on_remove is not None:
            self._on_remove()
        return message

    # -- pinning (active transfers) -----------------------------------------

    def pin(self, msg_id: str) -> None:
        """Protect *msg_id* from removal while a transfer is in flight.

        Pins are counted, so concurrent transfers of the same message each
        pin/unpin independently.
        """
        if msg_id not in self._messages:
            raise MessageNotFoundError(msg_id)
        self._pins[msg_id] = self._pins.get(msg_id, 0) + 1

    def unpin(self, msg_id: str) -> None:
        """Release one pin on *msg_id* (idempotent for unknown ids)."""
        count = self._pins.get(msg_id, 0)
        if count <= 1:
            self._pins.pop(msg_id, None)
        else:
            self._pins[msg_id] = count - 1

    def is_pinned(self, msg_id: str) -> bool:
        """True while at least one transfer holds *msg_id*."""
        return self._pins.get(msg_id, 0) > 0

    def pinned_ids(self) -> list[str]:
        """Ids currently holding at least one pin (sanitizer/debug view)."""
        return [msg_id for msg_id, count in self._pins.items() if count > 0]

    def droppable(self) -> list[Message]:
        """Messages eligible for policy-driven dropping (unpinned)."""
        return [m for m in self._messages.values() if not self.is_pinned(m.msg_id)]

    def expired(self, now: float) -> list[Message]:
        """Messages whose TTL has elapsed (pinned ones included)."""
        return [m for m in self._messages.values() if m.is_expired(now)]

    def refresh_expiry(self) -> None:
        """Make :attr:`next_expiry` the exact earliest expiry stored."""
        self.next_expiry = min(
            (m.expires_at() for m in self._messages.values()), default=math.inf
        )

    def occupancy(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self._used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MessageBuffer {len(self)} msgs, {self._used}/{self.capacity}B>"
        )
