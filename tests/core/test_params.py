"""SdsrpParams validation."""

import pytest

from repro.core.params import SdsrpParams
from repro.errors import ConfigurationError

#: Knobs SdsrpParams no longer has: the oracle is picked by policy name,
#: the λ prior is a constant, and overflow drops are always gossiped and
#: pruned.  Naming one is an unknown keyword.
DELETED_KNOBS = {
    "estimator", "prior_intermeeting", "prior_weight", "intermeeting_mode",
    "gossip_drops", "prune_dropped_lists",
}


def test_defaults_are_paper_faithful():
    p = SdsrpParams()
    assert p.priority_form == "closed"
    assert p.reject_rule == "own"
    assert p.extrapolate_spray_tree is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"estimator": "psychic"},
        {"priority_form": "cubic"},
        {"taylor_terms": 0},
        {"prior_intermeeting": 0.0},
        {"prior_weight": 0},
        {"reject_rule": "sometimes"},
        {"intermeeting_mode": "vibes"},
        {"gossip_drops": False},
        {"prune_dropped_lists": False},
    ],
)
def test_rejects_bad_values(kwargs):
    error = TypeError if DELETED_KNOBS & set(kwargs) else ConfigurationError
    with pytest.raises(error):
        SdsrpParams(**kwargs)


def test_frozen():
    p = SdsrpParams()
    with pytest.raises(AttributeError):
        p.taylor_terms = 3  # type: ignore[misc]
