"""FIFO / LIFO / Random / SnW-O / SnW-C / MOFO / SHLI ranking behaviour."""

from __future__ import annotations

import pytest

from repro.policies.copies_based import CopiesRatioPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lifo import LifoPolicy
from repro.policies.mofo import MofoPolicy
from repro.policies.random_drop import RandomPolicy
from repro.policies.shli import ShliPolicy
from repro.policies.ttl_based import TtlRatioPolicy
from repro.units import megabytes
from tests.helpers import build_micro_world, make_message


def rank_for_send(policy, messages, now=0.0):
    return sorted(
        messages, key=lambda m: policy.send_priority(m, now), reverse=True
    )


def drop_victim(policy, messages, now=0.0):
    return min(messages, key=lambda m: policy.drop_priority(m, now))


class TestFifo:
    def test_sends_oldest_first(self):
        p = FifoPolicy()
        a, b, c = (make_message(msg_id=m) for m in "abc")
        for m in (a, b, c):
            p.on_message_added(m, 0.0)
        assert rank_for_send(p, [c, a, b]) == [a, b, c]

    def test_drops_oldest_first(self):
        p = FifoPolicy()
        a, b = make_message(msg_id="a"), make_message(msg_id="b")
        p.on_message_added(a, 0.0)
        p.on_message_added(b, 1.0)
        assert drop_victim(p, [b, a]) is a

    def test_newcomer_never_rejected(self):
        assert FifoPolicy.compare_newcomer is False

    def test_redelivery_after_drop_is_new(self):
        p = FifoPolicy()
        a, b = make_message(msg_id="a"), make_message(msg_id="b")
        p.on_message_added(a, 0.0)
        p.on_message_added(b, 1.0)
        p.on_message_dropped(a, 2.0, "overflow")
        a2 = make_message(msg_id="a")
        p.on_message_added(a2, 3.0)
        assert drop_victim(p, [a2, b]) is b  # b is now the oldest


class TestLifo:
    def test_sends_newest_first_drops_newest_first(self):
        p = LifoPolicy()
        a, b = make_message(msg_id="a"), make_message(msg_id="b")
        p.on_message_added(a, 0.0)
        p.on_message_added(b, 1.0)
        assert rank_for_send(p, [a, b]) == [b, a]
        assert drop_victim(p, [a, b]) is b


class TestRandom:
    def test_scores_stable_per_message(self):
        p = RandomPolicy(seed=1)
        m = make_message(msg_id="x")
        assert p.send_priority(m, 0.0) == p.send_priority(m, 99.0)

    def test_scores_in_unit_interval(self):
        p = RandomPolicy(seed=2)
        for i in range(20):
            s = p.send_priority(make_message(msg_id=f"m{i}"), 0.0)
            assert 0.0 <= s < 1.0


class TestSnwO:
    def test_priority_is_ttl_ratio(self):
        p = TtlRatioPolicy()
        m = make_message(created_at=0.0, ttl=100.0)
        assert p.priority(m, 25.0) == pytest.approx(0.75)

    def test_fresher_message_wins(self):
        p = TtlRatioPolicy()
        fresh = make_message(msg_id="f", created_at=90.0, ttl=100.0)
        stale = make_message(msg_id="s", created_at=0.0, ttl=100.0)
        assert rank_for_send(p, [stale, fresh], now=100.0) == [fresh, stale]
        assert drop_victim(p, [stale, fresh], now=100.0) is stale

    def test_normalization_matters_for_mixed_ttls(self):
        p = TtlRatioPolicy()
        # 50/100 s left (ratio .5) vs 100/1000 s left (ratio .1):
        short = make_message(msg_id="short", created_at=0.0, ttl=100.0)
        long = make_message(msg_id="long", created_at=0.0, ttl=1000.0)
        assert drop_victim(p, [short, long], now=900.0 * 0 + 50.0) is not None
        assert p.priority(short, 50.0) == pytest.approx(0.5)
        assert p.priority(long, 900.0) == pytest.approx(0.1)


class TestSnwC:
    def test_priority_is_copies_ratio(self):
        p = CopiesRatioPolicy()
        m = make_message(copies=8, initial_copies=16)
        assert p.priority(m, 0.0) == pytest.approx(0.5)

    def test_copies_rich_sent_first_poor_dropped_first(self):
        p = CopiesRatioPolicy()
        rich = make_message(msg_id="r", copies=16, initial_copies=16)
        poor = make_message(msg_id="p", copies=1, initial_copies=16)
        assert rank_for_send(p, [poor, rich]) == [rich, poor]
        assert drop_victim(p, [poor, rich]) is poor


class TestMofo:
    def test_most_forwarded_dropped_first(self):
        p = MofoPolicy()
        hot = make_message(msg_id="hot")
        cold = make_message(msg_id="cold")
        for _ in range(3):
            p.on_message_forwarded(hot, 0.0)
        assert drop_victim(p, [hot, cold]) is hot
        assert rank_for_send(p, [hot, cold]) == [cold, hot]

    def test_completed_relay_is_counted_and_evicted_first(self):
        # Node 0 sprays "hot" to node 1 and keeps half the tokens; "cold"
        # is in its wait phase for the far node 2, so it is never relayed.
        mw = build_micro_world(
            points=[(0.0, 0.0), (50.0, 0.0), (900.0, 900.0)],
            buffer_bytes=megabytes(1.0),
            policy_factory=MofoPolicy,
        )
        mw.router(0).create_message(
            make_message(msg_id="hot", destination=2, copies=2)
        )
        mw.router(0).create_message(
            make_message(msg_id="cold", destination=2, copies=1)
        )
        mw.sim.run(until=25.0)
        sender = mw.router(0).policy
        hot = mw.node(0).buffer.get("hot")
        assert "hot" in mw.node(1).buffer
        assert sender.drop_priority(hot, 25.0) == -1.0
        # Node 0's buffer is full.  A newcomer from node 1 ranks above the
        # forwarded copy, so MOFO drops "hot" rather than refusing "new".
        mw.router(1).create_message(
            make_message(msg_id="new", source=1, destination=2, copies=2,
                         created_at=25.0)
        )
        mw.sim.run(until=60.0)
        assert "new" in mw.node(0).buffer
        assert "hot" not in mw.node(0).buffer
        assert "cold" in mw.node(0).buffer
        assert mw.metrics.drops_by_reason == {"overflow": 1}


class TestShli:
    def test_shortest_absolute_lifetime_dropped_first(self):
        p = ShliPolicy()
        # ratio would prefer to drop `long` (0.1 < 0.5); SHLI drops `short`
        # because its absolute remaining lifetime (50 s) is smaller.
        short = make_message(msg_id="short", created_at=0.0, ttl=100.0)
        long = make_message(msg_id="long", created_at=0.0, ttl=1000.0)
        now = 50.0
        assert p.priority(short, now) == pytest.approx(50.0)
        assert p.priority(long, now) == pytest.approx(950.0)
        assert drop_victim(p, [short, long], now=now) is short
