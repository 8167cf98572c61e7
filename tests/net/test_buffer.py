"""Buffer accounting, pinning, and the capacity invariant (property)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ReproBufferError,
    DuplicateMessageError,
    MessageNotFoundError,
)
from repro.net.buffer import MessageBuffer
from tests.helpers import make_message


def msg(i: int, size: int = 100) -> object:
    return make_message(msg_id=f"M{i}", size=size)


class TestAccounting:
    def test_add_and_remove_track_bytes(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1, 300))
        buf.add(msg(2, 200))
        assert (buf.used, buf.free, len(buf)) == (500, 500, 2)
        buf.remove("M1")
        assert (buf.used, buf.free, len(buf)) == (200, 800, 1)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ReproBufferError):
            MessageBuffer(0)

    def test_add_overflow_is_an_error(self):
        buf = MessageBuffer(100)
        with pytest.raises(ReproBufferError):
            buf.add(msg(1, 101))

    def test_duplicate_id_rejected(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1))
        with pytest.raises(DuplicateMessageError):
            buf.add(msg(1))

    def test_remove_unknown_raises(self):
        with pytest.raises(MessageNotFoundError):
            MessageBuffer(100).remove("nope")

    def test_get_unknown_raises(self):
        with pytest.raises(MessageNotFoundError):
            MessageBuffer(100).get("nope")

    def test_fits_and_could_ever_fit(self):
        buf = MessageBuffer(500)
        buf.add(msg(1, 400))
        small, big = msg(2, 100), msg(3, 600)
        assert buf.fits(small)
        assert not buf.fits(msg(4, 101))
        assert buf.could_ever_fit(msg(4, 500))
        assert not buf.could_ever_fit(big)

    def test_insertion_order_preserved(self):
        buf = MessageBuffer(1000)
        for i in (3, 1, 2):
            buf.add(msg(i))
        assert buf.ids() == ["M3", "M1", "M2"]
        assert [m.msg_id for m in buf.messages()] == ["M3", "M1", "M2"]

    def test_occupancy(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1, 250))
        assert buf.occupancy() == 0.25


class TestPinning:
    def test_pinned_message_cannot_be_removed(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1))
        buf.pin("M1")
        with pytest.raises(ReproBufferError):
            buf.remove("M1")
        buf.unpin("M1")
        buf.remove("M1")

    def test_pins_are_counted(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1))
        buf.pin("M1")
        buf.pin("M1")
        buf.unpin("M1")
        assert buf.is_pinned("M1")
        buf.unpin("M1")
        assert not buf.is_pinned("M1")

    def test_unpin_unknown_is_noop(self):
        MessageBuffer(100).unpin("ghost")

    def test_pin_unknown_raises(self):
        with pytest.raises(MessageNotFoundError):
            MessageBuffer(100).pin("ghost")

    def test_droppable_excludes_pinned(self):
        buf = MessageBuffer(1000)
        buf.add(msg(1))
        buf.add(msg(2))
        buf.pin("M1")
        assert [m.msg_id for m in buf.droppable()] == ["M2"]


class TestExpiry:
    def test_expired_lists_past_ttl(self):
        buf = MessageBuffer(10_000)
        buf.add(make_message(msg_id="old", size=10, created_at=0.0, ttl=50.0))
        buf.add(make_message(msg_id="new", size=10, created_at=40.0, ttl=50.0))
        assert [m.msg_id for m in buf.expired(60.0)] == ["old"]

    def test_next_expiry_is_a_lower_bound_made_exact_on_refresh(self):
        buf = MessageBuffer(10_000)
        assert buf.next_expiry == float("inf")
        buf.add(make_message(msg_id="late", size=10, created_at=0.0, ttl=90.0))
        buf.add(make_message(msg_id="soon", size=10, created_at=0.0, ttl=50.0))
        assert buf.next_expiry == 50.0
        buf.remove("soon")
        assert buf.next_expiry == 50.0  # removal never raises the bound
        buf.refresh_expiry()
        assert buf.next_expiry == 90.0
        buf.remove("late")
        buf.refresh_expiry()
        assert buf.next_expiry == float("inf")


class TestChangeHooks:
    def test_hooks_fire_after_each_add_and_remove(self):
        calls: list[tuple[str, int]] = []
        buf = MessageBuffer(
            1000,
            on_add=lambda: calls.append(("add", len(buf))),
            on_remove=lambda: calls.append(("remove", len(buf))),
        )
        buf.add(msg(1))
        buf.add(msg(2))
        buf.remove("M1")
        assert calls == [("add", 1), ("add", 2), ("remove", 1)]


class TestCapacityInvariant:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=60,
        )
    )
    def test_used_never_exceeds_capacity_and_matches_contents(self, ops):
        """Arbitrary legal add/remove sequences keep accounting exact."""
        buf = MessageBuffer(1000)
        for op, ident, size in ops:
            mid = f"M{ident}"
            if op == "add" and mid not in buf and size <= buf.free:
                buf.add(make_message(msg_id=mid, size=size))
            elif op == "remove" and mid in buf:
                buf.remove(mid)
            assert 0 <= buf.used <= buf.capacity
            assert buf.used == sum(m.size for m in buf)
            assert buf.free == buf.capacity - buf.used
