"""The intermeeting estimator: Def. 2 sampling and Eq. 3 scaling."""

from __future__ import annotations

import pytest

from repro.core.intermeeting import (
    PRIOR_INTERMEETING,
    PRIOR_WEIGHT,
    MinIntermeetingEstimator,
)
from repro.errors import ConfigurationError


class TestMinEstimator:
    def test_prior_is_pairwise_scaled(self):
        est = MinIntermeetingEstimator(n_nodes=101)
        assert est.mean_min_intermeeting() == pytest.approx(
            PRIOR_INTERMEETING / 100
        )
        assert est.mean_intermeeting() == pytest.approx(PRIOR_INTERMEETING)

    def test_prior_used_before_samples(self):
        est = MinIntermeetingEstimator(n_nodes=10)
        est.observe_link_up(0, 5.0)
        est.observe_link_down(0, 10.0)  # idle from t=10, no gap closed yet
        assert est.sample_count == 0
        assert est.mean_intermeeting() == PRIOR_INTERMEETING

    def test_derived_quantities(self):
        # Eq. 3: E(I) = (N-1) E(I_min) and λ = 1/E(I).
        est = MinIntermeetingEstimator(n_nodes=11)
        est.observe_link_down(3, 0.0)
        est.observe_link_up(3, 40.0)
        assert est.mean_intermeeting() == est.mean_min_intermeeting() * 10
        assert est.rate() == 1.0 / est.mean_intermeeting()

    def test_first_contact_yields_no_sample(self):
        est = MinIntermeetingEstimator(n_nodes=10)
        est.observe_link_up(0, 50.0)
        assert est.sample_count == 0

    def test_node_level_gap_sampling(self):
        est = MinIntermeetingEstimator(n_nodes=100)
        est.observe_link_up(5, 0.0)
        est.observe_link_down(5, 10.0)  # node 5 idle from t=10
        est.observe_link_up(5, 30.0)  # gap 20 for node 5
        assert est.sample_count == 1
        prior_min = PRIOR_INTERMEETING / 99
        expected = (20.0 + PRIOR_WEIGHT * prior_min) / (1 + PRIOR_WEIGHT)
        assert est.mean_min_intermeeting() == pytest.approx(expected)
        assert est.mean_intermeeting() == pytest.approx(expected * 99)

    def test_overlapping_contacts_do_not_sample(self):
        est = MinIntermeetingEstimator(n_nodes=100)
        est.observe_link_up(5, 0.0)
        est.observe_link_up(5, 5.0)  # still busy: no gap started
        est.observe_link_down(5, 10.0)  # one contact remains
        est.observe_link_up(5, 15.0)  # no sample: node never went idle
        assert est.sample_count == 0
        est.observe_link_down(5, 20.0)
        est.observe_link_down(5, 20.0)
        est.observe_link_up(5, 50.0)  # idle 20 -> 50: sample 30
        assert est.sample_count == 1

    def test_both_endpoints_sample_independently(self):
        est = MinIntermeetingEstimator(n_nodes=100)
        est.observe_link_up(0, 0.0)
        est.observe_link_up(1, 0.0)
        est.observe_link_down(0, 10.0)
        est.observe_link_down(1, 10.0)
        est.observe_link_up(0, 30.0)
        est.observe_link_up(1, 40.0)
        assert est.sample_count == 2  # one gap per node

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MinIntermeetingEstimator(n_nodes=1)
