"""Every registered policy attaches and ranks without a full scenario."""

from __future__ import annotations

import pytest

from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.policies.base import PolicyContext
from repro.policies.registry import available_policies, make_policy, policy_factory
from tests.helpers import build_micro_world, make_message


@pytest.fixture(scope="module")
def host():
    return build_micro_world(points=[(0.0, 0.0), (900.0, 900.0)])


@pytest.mark.parametrize("name", available_policies())
def test_attach_and_rank(host, name):
    if issubclass(policy_factory(name), SdsrpPolicy):
        policy = make_policy(name, shared=SdsrpShared.for_fleet(10))
    else:
        policy = make_policy(name)
    policy.attach(PolicyContext(node=host.nodes[0], sim=host.sim, n_nodes=10))
    msg = make_message(msg_id=f"probe-{name}", copies=4, initial_copies=8)
    send = policy.send_priority(msg, now=1.0)
    drop = policy.drop_priority(msg, now=1.0)
    assert isinstance(send, float) and isinstance(drop, float)
    assert send == send and drop == drop  # not NaN
    # Hooks are callable without effect requirements.
    policy.on_message_added(msg, 1.0)
    policy.on_link_up(host.nodes[1], 1.0)
    policy.on_link_down(host.nodes[1], 2.0)
    policy.on_message_dropped(msg, 3.0, "overflow")
    assert policy.will_accept(make_message(msg_id="other"), 3.0) in (True, False)
