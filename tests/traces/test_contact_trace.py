"""Contact traces: recording, stats, file round-trip."""

from __future__ import annotations

import pytest

from repro.errors import TraceFormatError
from repro.traces.contact_trace import ContactEvent, ContactTrace, ContactTraceRecorder
from tests.helpers import build_micro_world, scripted_mobility


def sample_trace() -> ContactTrace:
    t = ContactTrace()
    t.append(ContactEvent(10.0, 0, 1, True))
    t.append(ContactEvent(20.0, 0, 1, False))
    t.append(ContactEvent(50.0, 1, 0, True))  # unordered pair ids
    t.append(ContactEvent(60.0, 1, 0, False))
    t.append(ContactEvent(15.0 + 50.0, 2, 3, True))
    return t


class TestStats:
    def test_intermeeting_samples(self):
        t = sample_trace()
        gaps = t.intermeeting_samples()
        assert list(gaps) == [30.0]  # 50 - 20 for pair (0,1)

    def test_contact_durations(self):
        t = sample_trace()
        assert sorted(t.contact_durations()) == [10.0, 10.0]

    def test_time_ordering_enforced(self):
        t = ContactTrace()
        t.append(ContactEvent(10.0, 0, 1, True))
        with pytest.raises(TraceFormatError):
            t.append(ContactEvent(5.0, 0, 1, False))

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_append_rejects_non_finite_time(self, time):
        # Both order comparisons are False for NaN, so 5.0, nan, 1.0 would
        # pass the order check alone.
        t = ContactTrace()
        t.append(ContactEvent(5.0, 0, 1, True))
        with pytest.raises(TraceFormatError, match="not finite"):
            t.append(ContactEvent(time, 0, 1, False))
        assert len(t) == 1

    def test_constructor_rejects_unsorted_events(self):
        # Replay stops at the first event past its horizon, so an unsorted
        # list would silently lose the contacts after it.
        with pytest.raises(TraceFormatError, match="time-ordered"):
            ContactTrace([
                ContactEvent(10.0, 0, 1, True),
                ContactEvent(5.0, 0, 1, False),
            ])

    def test_constructor_rejects_nan_inside_a_list(self):
        with pytest.raises(TraceFormatError, match="not finite"):
            ContactTrace([
                ContactEvent(5.0, 0, 1, True),
                ContactEvent(float("nan"), 0, 1, False),
                ContactEvent(1.0, 2, 3, True),
            ])

    def test_constructor_keeps_sorted_events(self):
        events = sample_trace().events
        assert ContactTrace(events).events == events


class TestIO:
    def test_round_trip(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "contacts.txt"
        t.save(path)
        loaded = ContactTrace.load(path)
        assert len(loaded) == len(t)
        assert loaded.events[0] == t.events[0]
        assert list(loaded.intermeeting_samples()) == [30.0]

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0 1 CONN sideways\n")
        with pytest.raises(TraceFormatError):
            ContactTrace.load(p)
        p.write_text("1.0 0 1 NOPE up\n")
        with pytest.raises(TraceFormatError):
            ContactTrace.load(p)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite_time(self, tmp_path, time):
        # A NaN time would pass both the order check and the scheduler's.
        p = tmp_path / "contacts.txt"
        p.write_text(f"1.000 0 1 CONN up\n{time} 0 1 CONN down\n")
        with pytest.raises(TraceFormatError, match=r"contacts\.txt:2: non-finite"):
            ContactTrace.load(p)


class TestRecorder:
    def test_records_world_link_events(self):
        mobility = scripted_mobility(
            [0.0, 10.0, 11.0, 30.0],
            [
                [(0.0, 0.0), (50.0, 0.0)],
                [(0.0, 0.0), (50.0, 0.0)],
                [(0.0, 0.0), (800.0, 800.0)],
                [(0.0, 0.0), (800.0, 800.0)],
            ],
        )
        mw = build_micro_world(mobility=mobility, sim_time=30.0)
        rec = ContactTraceRecorder()
        rec.subscribe(mw.sim)
        mw.sim.run()
        kinds = [(e.up) for e in rec.trace.events]
        assert kinds == [True, False]
        assert rec.trace.contact_durations().size == 1
