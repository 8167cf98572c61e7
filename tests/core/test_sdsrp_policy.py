"""SDSRP policy behaviour (Algorithm 1 glued to the estimators)."""

from __future__ import annotations

import pytest

from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import SdsrpParams
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.net.outcomes import ReceiveOutcome
from repro.units import megabytes
from tests.helpers import build_micro_world, make_message


def sdsrp_world(points, params: SdsrpParams | None = None, oracle=None, **kw):
    shared = SdsrpShared.for_fleet(len(points), params=params, oracle=oracle)

    def factory():
        return SdsrpPolicy(shared)

    kw.setdefault("area", (10_000.0, 1_000.0))
    mw = build_micro_world(points=points, policy_factory=factory, **kw)
    return mw, shared


#: Two isolated nodes, but in a 10-node fleet context (N matters: the
#: Eq. 10 spray penalty scales with 1/(N-1), and N=2 with L=16 is
#: degenerate).  Nodes are 900 m apart: no links ever form.
ISOLATED = [(i * 900.0, 0.0) for i in range(10)]
ISOLATED_AREA = (10_000.0, 1_000.0)


class TestAttach:
    def test_policy_requires_attach_for_estimator(self):
        # The link hooks feed the estimator as this node: not before attach.
        mw, shared = sdsrp_world(ISOLATED)
        policy = SdsrpPolicy(shared)
        with pytest.raises(AssertionError, match="before attach"):
            policy.on_link_up(mw.nodes[1], 0.0)
        with pytest.raises(AssertionError, match="before attach"):
            policy.on_link_down(mw.nodes[1], 0.0)

    def test_oracle_mode_requires_oracle(self):
        # Oracle mode is the fleet's oracle, not a parameter: without one,
        # m comes from the spray lineage (Eq. 15) and n from Eq. 14.
        msg = make_message(msg_id="M1", copies=2, initial_copies=16,
                           created_at=0.0, spray_times=[0.0, 10.0, 20.0])
        mw, _ = sdsrp_world(ISOLATED)
        assert mw.router(0).policy._infection(msg, 30.0) == (3, 4)
        mw, _ = sdsrp_world(ISOLATED, oracle=GlobalInfectionOracle())
        # The oracle never saw M1 created: no other node has seen it.
        assert mw.router(0).policy._infection(msg, 30.0) == (0, 1)

    def test_params_via_shared_and_direct_conflict(self):
        # The params come from the shared state alone.
        shared = SdsrpShared.for_fleet(4, params=SdsrpParams(taylor_terms=3))
        assert SdsrpPolicy(shared).params is shared.params
        with pytest.raises(TypeError):
            SdsrpPolicy(shared, params=SdsrpParams())  # type: ignore[call-arg]


class TestPriorityRanking:
    def test_widely_seen_message_ranks_below_fresh(self):
        mw, _ = sdsrp_world(ISOLATED)
        policy = mw.router(0).policy
        now = 10.0
        fresh = make_message(msg_id="fresh", created_at=10.0, copies=16,
                             spray_times=[])
        # A message whose lineage sprayed long ago over many branches.
        seen = make_message(
            msg_id="seen", created_at=-9000.0, ttl=18000.0, copies=2,
            initial_copies=16, spray_times=[-9000.0, -6000.0, -3000.0],
        )
        # The fresh source copy: m=0 -> P(T)=0, positive utility.
        assert policy.drop_priority(fresh, now) > policy.drop_priority(seen, now)

    def test_expired_message_has_nonpositive_priority(self):
        mw, _ = sdsrp_world(ISOLATED)
        policy = mw.router(0).policy
        dead = make_message(msg_id="dead", created_at=0.0, ttl=10.0, copies=1,
                            initial_copies=16)
        assert policy.drop_priority(dead, 100.0) <= 0.0

    def test_taylor_form_ranks_like_closed_form(self):
        mw_c, _ = sdsrp_world(ISOLATED)
        mw_t, _ = sdsrp_world(
            ISOLATED, params=SdsrpParams(priority_form="taylor",
                                         taylor_terms=32),
        )
        closed = mw_c.router(0).policy
        taylor = mw_t.router(0).policy
        msgs = [
            make_message(msg_id="a", copies=16, created_at=0.0),
            make_message(msg_id="b", copies=2, initial_copies=16,
                         created_at=0.0, spray_times=[0.0, 100.0, 200.0]),
            make_message(msg_id="c", copies=1, initial_copies=16,
                         created_at=0.0, spray_times=[0.0, 50.0, 99.0, 150.0]),
        ]
        now = 300.0
        order_c = sorted(msgs, key=lambda m: closed.priority(m, now))
        order_t = sorted(msgs, key=lambda m: taylor.priority(m, now))
        assert [m.msg_id for m in order_c] == [m.msg_id for m in order_t]


class TestDroppedListIntegration:
    def test_overflow_drop_recorded_and_rejected_on_return(self):
        mw, _ = sdsrp_world(ISOLATED, buffer_bytes=megabytes(1.0))
        mw.sim.run(until=1.0)
        r = mw.router(0)
        policy = r.policy
        victim = make_message(msg_id="victim", source=1, destination=9,
                              copies=1, initial_copies=16,
                              created_at=-5000.0, ttl=18000.0,
                              spray_times=[-5000.0, -4000.0, -3000.0, -2000.0])
        assert r.receive(victim, mw.nodes[1]) == ReceiveOutcome.ACCEPTED
        # Fill with two strong newcomers; the stale one gets evicted.
        for i in (1, 2):
            out = r.receive(
                make_message(msg_id=f"fresh{i}", source=1, destination=9,
                             copies=8, initial_copies=16, created_at=0.9),
                mw.nodes[1],
            )
            assert out == ReceiveOutcome.ACCEPTED
        assert policy.dropped.has_dropped("victim")
        # The node now refuses to take "victim" again (Fig. 5 reject rule).
        again = make_message(msg_id="victim", source=1, destination=9,
                             copies=1, initial_copies=16,
                             created_at=-5000.0, ttl=18000.0,
                             spray_times=[-5000.0])
        assert r.receive(again, mw.nodes[1]) == ReceiveOutcome.REJECTED_POLICY

    def test_ttl_drops_not_gossiped(self):
        mw, _ = sdsrp_world(ISOLATED)
        mw.sim.run(until=1.0)
        r = mw.router(0)
        r.create_message(make_message(source=0, destination=1, ttl=5.0))
        mw.sim.run(until=10.0)
        assert not r.policy.dropped.has_dropped("M1")

    def test_reject_rule_off_accepts_previously_dropped(self):
        mw, _ = sdsrp_world(
            ISOLATED, params=SdsrpParams(reject_rule="off"),
            buffer_bytes=megabytes(1.0),
        )
        mw.sim.run(until=1.0)
        r = mw.router(0)
        r.policy.dropped.record_drop("M9", now=0.5, expires_at=1e5)
        msg = make_message(msg_id="M9", source=1, destination=9)
        assert r.receive(msg, mw.nodes[1]) == ReceiveOutcome.ACCEPTED


class TestGossipOnContact:
    def test_records_merge_when_nodes_meet(self):
        mw, _ = sdsrp_world([(0.0, 0.0), (80.0, 0.0)])
        p0 = mw.router(0).policy
        p1 = mw.router(1).policy
        p0.dropped.record_drop("Mx", now=0.0, expires_at=1e6)
        mw.sim.run(until=2.0)  # link comes up -> gossip fires
        assert p1.dropped.count_drops("Mx") == 1

    def test_estimator_fed_by_contacts(self):
        mw, shared = sdsrp_world([(0.0, 0.0), (80.0, 0.0)])
        mw.sim.run(until=2.0)
        # One contact started; Def. 2 estimator has armed state but the mean
        # still equals the prior (no complete gap yet).
        assert shared.estimator.mean_intermeeting() > 0


class TestOracleMode:
    def test_oracle_mode_uses_exact_counts(self):
        oracle = GlobalInfectionOracle()
        mw, _ = sdsrp_world(ISOLATED, oracle=oracle)
        oracle.subscribe(mw.sim)
        mw.sim.run(until=1.0)
        r = mw.router(0)
        r.create_message(make_message(source=0, destination=1, copies=8))
        m, n = r.policy._infection(mw.nodes[0].buffer.get("M1"), mw.sim.now)
        assert (m, n) == (0, 1)


class TestSharedFactory:
    def test_for_fleet_builds_min_estimator_by_default(self):
        from repro.core.intermeeting import MinIntermeetingEstimator

        shared = SdsrpShared.for_fleet(20)
        assert isinstance(shared.estimator, MinIntermeetingEstimator)

    def test_policies_share_the_fleet_estimator(self):
        mw, shared = sdsrp_world([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)])
        mw.sim.run(until=2.0)
        # Nodes 0 and 2 each meet node 1: every endpoint's first contact
        # lands in the one fleet-wide estimator.
        assert sorted(shared.estimator._active) == [0, 1, 2]
