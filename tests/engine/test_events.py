"""Event queue ordering, cancellation and edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.events import (
    PRIORITY_NORMAL,
    PRIORITY_REPORT,
    PRIORITY_WORLD,
    EventQueue,
)
from repro.errors import SchedulingError


def drain(queue: EventQueue) -> list:
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append(event)


class TestScheduling:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        for t in (5.0, 1.0, 3.0):
            q.schedule(t, fired.append, t)
        for event in drain(q):
            event.callback(*event.args)
        assert fired == [1.0, 3.0, 5.0]

    def test_equal_time_fifo_order(self):
        q = EventQueue()
        for label in "abc":
            q.schedule(7.0, lambda: None)
        events = drain(q)
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None, priority=PRIORITY_REPORT)
        q.schedule(1.0, lambda: None, priority=PRIORITY_WORLD)
        q.schedule(1.0, lambda: None, priority=PRIORITY_NORMAL)
        priorities = [e.priority for e in drain(q)]
        assert priorities == [PRIORITY_WORLD, PRIORITY_NORMAL, PRIORITY_REPORT]

    def test_rejects_nan_and_inf_times(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.schedule(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            q.schedule(float("inf"), lambda: None)

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
        assert not q

    def test_args_are_passed(self):
        q = EventQueue()
        got = []
        q.schedule(1.0, lambda *a: got.extend(a), 1, "x")
        event = q.pop()
        event.callback(*event.args)
        assert got == [1, "x"]


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        keep = q.schedule(1.0, lambda: None)
        kill = q.schedule(0.5, lambda: None)
        q.cancel(kill)
        events = drain(q)
        assert events == [keep]

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.schedule(1.0, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_pop_due_skips_cancelled_head(self):
        q = EventQueue()
        head = q.schedule(0.5, lambda: None)
        later = q.schedule(2.0, lambda: None)
        q.cancel(head)
        # The cancelled head is discarded; the live event past the horizon
        # stays queued until a later horizon reaches it.
        assert q.pop_due(1.0) is None
        assert len(q) == 1
        assert q.pop_due(2.0) is later
        assert q.pop_due(5.0) is None

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.clear()
        assert len(q) == 0
        assert q.pop() is None


class TestPropertyOrdering:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted_by_time(self, times):
        q = EventQueue()
        for t in times:
            q.schedule(t, lambda: None)
        popped = [e.time for e in drain(q)]
        assert popped == sorted(times)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=-10, max_value=10),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_pop_order_respects_time_then_priority(self, items):
        q = EventQueue()
        for t, p in items:
            q.schedule(t, lambda: None, priority=p)
        popped = [(e.time, e.priority, e.seq) for e in drain(q)]
        assert popped == sorted(popped)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=40),
        st.data(),
    )
    def test_cancellation_removes_exactly_the_cancelled(self, times, data):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in times]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(events) - 1))
        )
        for idx in to_cancel:
            q.cancel(events[idx])
        survivors = drain(q)
        expected = {id(e) for i, e in enumerate(events) if i not in to_cancel}
        assert {id(e) for e in survivors} == expected
