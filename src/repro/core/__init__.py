"""SDSRP — the paper's contribution.

* :mod:`repro.core.priority` — the delivery-probability and priority math
  (Eqs. 4-13 of the paper): broadcasting functions for curves, and
  bit-identical scalar kernels for the policy's per-message ranking.
* :mod:`repro.core.intermeeting` — intermeeting-time estimation
  (Definitions 1-2, Eq. 3): λ and λ_min = (N-1)λ.
* :mod:`repro.core.dropped_list` — the gossiped dropped-message records
  (Fig. 5) used to estimate :math:`d_i(T_i)`.
* :mod:`repro.core.spray_tree` — the binary-spray-tree estimate of
  :math:`m_i(T_i)` (Eq. 15, Fig. 6).
* :mod:`repro.core.sdsrp` — the buffer policy combining all of the above
  (Algorithm 1).
* :mod:`repro.core.oracle` — a global-knowledge oracle supplying exact
  :math:`m_i, n_i, d_i` (ablation against the distributed estimators).
"""

from repro.core.dropped_list import DroppedListStore, DropRecord
from repro.core.knapsack import KnapsackSdsrpPolicy
from repro.core.intermeeting import (
    IntermeetingEstimator,
    MinIntermeetingEstimator,
    PairIntermeetingEstimator,
    StaticIntermeetingEstimator,
)
from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import SdsrpParams
from repro.core.priority import (
    PEAK_P_R,
    delivery_probability,
    exponent_coefficient,
    p_delivered,
    p_remaining,
    priority_closed_form,
    priority_from_probabilities,
    priority_taylor,
)
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.core.spray_tree import estimate_infected

__all__ = [
    "PEAK_P_R",
    "DropRecord",
    "DroppedListStore",
    "GlobalInfectionOracle",
    "IntermeetingEstimator",
    "KnapsackSdsrpPolicy",
    "MinIntermeetingEstimator",
    "PairIntermeetingEstimator",
    "SdsrpParams",
    "SdsrpPolicy",
    "SdsrpShared",
    "StaticIntermeetingEstimator",
    "delivery_probability",
    "estimate_infected",
    "exponent_coefficient",
    "p_delivered",
    "p_remaining",
    "priority_closed_form",
    "priority_from_probabilities",
    "priority_taylor",
]
