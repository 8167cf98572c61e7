"""Bandwidth-limited message transfers.

A transfer occupies the sender's interface for ``size / bandwidth`` seconds
(paper: 0.5 MB at 250 kbit/s ≈ 16.8 s — bandwidth, not latency, is the
scarce resource).  Transfers abort when the link drops mid-flight; the
message is pinned in the sender's buffer for the duration so the drop policy
cannot evict bytes that are on the air.

Completion runs the two-phase spray-token protocol: the receiver first
decides (duplicate / dropped-list / overflow per Algorithm 1), and only then
are the sender's tokens committed.  A newcomer that *loses the drop
decision* still consumes tokens — the copy existed and was destroyed, which
is exactly the paper's :math:`\\Delta n_i = -1` drop semantics — whereas a
duplicate race (receiver got the message from a third party mid-transfer)
aborts without token loss, like ONE's denied transfers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.events import Event
from repro.engine.simulator import Simulator
from repro.errors import TransferError
from repro.net.message import Message
from repro.net.outcomes import (
    DROP_TTL,
    MODE_COPY,
    MODE_DELIVERY,
    MODE_MOVE,
    MODE_SPLIT,
    ReceiveOutcome,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.world.node import Node

#: Outcomes that mean "the transfer happened" for relay accounting (ONE
#: increments its relayed counter on completion even when the receiving
#: policy immediately drops the newcomer).
_PROCESSED = (
    ReceiveOutcome.ACCEPTED,
    ReceiveOutcome.DELIVERED,
    ReceiveOutcome.REJECTED_OVERFLOW,
)


class Transfer:
    """One in-flight message transmission."""

    __slots__ = (
        "sender", "receiver", "message", "mode", "started_at", "eta", "event",
        "seq",
    )

    def __init__(
        self,
        sender: Node,
        receiver: Node,
        message: Message,
        mode: str,
        started_at: float,
        eta: float,
        seq: int = 0,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.mode = mode
        self.started_at = started_at
        self.eta = eta
        self.event: Event | None = None
        #: Manager-assigned serial; identifies this transfer in sanitizer
        #: double-commit checks and debugging output.
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transfer {self.message.msg_id} {self.sender.id}->{self.receiver.id} "
            f"{self.mode} eta={self.eta:.1f}>"
        )


class TransferManager:
    """Tracks the (at most one) outgoing transfer per node."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._active: dict[int, Transfer] = {}  # keyed by sender id
        self._seq = 0
        #: Optional fault model (see :mod:`repro.faults`): an object with a
        #: ``transfer_fails(transfer) -> bool`` method consulted at completion
        #: time.  A failed transfer is truncated on the air: the receiver
        #: never materializes the copy and, because the spray-token protocol
        #: is two-phase, the sender's tokens are left uncommitted.
        self.fault_model: object | None = None

    # -- queries -----------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- lifecycle -----------------------------------------------------------

    def start(self, sender: Node, receiver: Node, message: Message, mode: str) -> Transfer:
        """Begin transmitting *message* from *sender* to *receiver*."""
        if sender.sending or sender.id in self._active:
            raise TransferError(f"node {sender.id} is already sending")
        if not sender.is_connected_to(receiver):
            raise TransferError(
                f"no link {sender.id}->{receiver.id}; cannot start transfer"
            )
        if message.msg_id not in sender.buffer:
            raise TransferError(
                f"message {message.msg_id} not in node {sender.id} buffer"
            )
        if mode not in (MODE_SPLIT, MODE_COPY, MODE_MOVE, MODE_DELIVERY):
            raise TransferError(f"unknown transfer mode {mode!r}")
        duration = sender.radio.transfer_time(message.size, receiver.radio)
        self._seq += 1
        transfer = Transfer(
            sender, receiver, message, mode, self.sim.now,
            self.sim.now + duration, seq=self._seq,
        )
        sender.buffer.pin(message.msg_id)
        sender.sending = True
        self._active[sender.id] = transfer
        transfer.event = self.sim.schedule_in(duration, self._complete, transfer)
        self.sim.listeners.emit("transfer.started", transfer)
        return transfer

    def abort_for_link(self, a: Node, b: Node) -> None:
        """Abort any in-flight transfer riding the (a, b) link (both ways)."""
        for sender, receiver in ((a, b), (b, a)):
            transfer = self._active.get(sender.id)
            if transfer is not None and transfer.receiver.id == receiver.id:
                self._teardown(transfer)
                if transfer.event is not None:
                    self.sim.queue.cancel(transfer.event)
                self.sim.listeners.emit("transfer.aborted", transfer)
                # The sender may have other neighbors to serve.
                if sender.router is not None:
                    sender.router.try_send()

    # -- completion -----------------------------------------------------------

    def _teardown(self, transfer: Transfer) -> None:
        self._active.pop(transfer.sender.id, None)
        transfer.sender.sending = False
        transfer.sender.buffer.unpin(transfer.message.msg_id)

    def _complete(self, transfer: Transfer) -> None:
        sender, receiver = transfer.sender, transfer.receiver
        message, mode = transfer.message, transfer.mode
        assert sender.router is not None and receiver.router is not None
        now = self.sim.now
        self._teardown(transfer)

        # Injected mid-transfer fault: the payload was truncated on the air.
        # The receiver discards the partial copy; no tokens were committed
        # (two-phase split), so spray accounting is untouched.
        if self.fault_model is not None and self.fault_model.transfer_fails(  # type: ignore[attr-defined]
            transfer
        ):
            self.sim.listeners.emit("transfer.aborted", transfer)
            sender.router.try_send()
            receiver.router.try_send()
            return

        # The payload expired on the air: the sender's copy dies too.
        if message.is_expired(now):
            if message.msg_id in sender.buffer:
                sender.router.drop_message(message, DROP_TTL)
            self.sim.listeners.emit("transfer.aborted", transfer)
            sender.router.try_send()
            return

        # Re-check (a third party may have infected the receiver mid-flight).
        if not receiver.router.will_accept(message, sender):
            self.sim.listeners.emit("transfer.aborted", transfer)
            sender.router.try_send()
            receiver.router.try_send()
            return

        if mode == MODE_SPLIT:
            payload = message.split_child(now)
        else:
            payload = message.forward_clone(now)

        outcome = receiver.router.receive(payload, sender)
        if outcome in _PROCESSED:
            if mode == MODE_SPLIT:
                # Commit the sender-side token halving even when the newcomer
                # lost the drop decision: that copy existed and was dropped
                # (the paper's Δn_i = -1), not refused on the air.  The
                # commit event precedes the mutation so the sanitizer can
                # catch a double commit before tokens are destroyed.
                self.sim.listeners.emit("transfer.commit", transfer)
                message.apply_split(now)
            self.sim.listeners.emit(
                "message.relayed", payload, sender, receiver, outcome
            )
            sender.router.after_transfer(message, receiver, mode, outcome)
        else:
            self.sim.listeners.emit("transfer.aborted", transfer)

        sender.router.try_send()
        receiver.router.try_send()
