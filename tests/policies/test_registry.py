"""Policy registry."""

import pytest

from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.errors import ConfigurationError
from repro.policies.base import BufferPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.registry import available_policies, make_policy, register_policy


def test_builtins_present():
    names = available_policies()
    for expected in ("fifo", "lifo", "random", "snw-o", "snw-c", "mofo",
                     "shli", "sdsrp"):
        assert expected in names


def test_make_policy_by_name():
    assert isinstance(make_policy("fifo"), FifoPolicy)
    shared = SdsrpShared.for_fleet(4)
    assert isinstance(make_policy("sdsrp", shared=shared), SdsrpPolicy)


def test_instances_are_fresh():
    assert make_policy("fifo") is not make_policy("fifo")


def test_unknown_policy():
    with pytest.raises(ConfigurationError):
        make_policy("magic")


def test_register_custom_policy():
    class Custom(FifoPolicy):
        name = "custom-test"

    register_policy("custom-test", Custom)
    try:
        assert isinstance(make_policy("custom-test"), BufferPolicy)
        with pytest.raises(ConfigurationError):
            register_policy("custom-test", Custom)
    finally:
        from repro.policies import registry

        registry._REGISTRY.pop("custom-test", None)
