"""GBSD-style utility policy (Krifa & Barakat [15-17]) — related work.

The paper positions SDSRP against the Global-knowledge-Based Scheduling and
Drop family, which targets *Epidemic* routing: the per-message delivery-rate
utility there is :math:`(1 - m_i/(N-1))\\,\\lambda R_i e^{-\\lambda n_i R_i}`
— exactly SDSRP's Eq. 10 with the copy-limit term removed (an unlimited-
replication message behaves like :math:`C_i = 1` in the exponent
coefficient, where :math:`\\log_2 C_i = 0` kills the spray penalty).

Implemented by reusing the SDSRP estimator machinery with the copies term
neutralized, so the paper's "their strategies are only appropriate for
Epidemic routing" comparison is actually runnable: pair ``gbsd`` with the
``epidemic`` router (its intended home) or with Spray-and-Wait (where
ignoring C_i loses information — measurable in the extended benchmarks).
"""

from __future__ import annotations

from repro.core.sdsrp import SdsrpPolicy
from repro.net.message import Message


class GbsdPolicy(SdsrpPolicy):
    """Epidemic-style delivery-rate utility (copies term ignored)."""

    name = "gbsd"
    compare_newcomer = True

    def _priority_copies(self, message: Message) -> int:
        # copies=1 zeroes the spray-penalty/copy terms of Eq. 10, leaving
        # Krifa & Barakat's utility.
        return 1
