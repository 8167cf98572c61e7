"""Buffer-management policies (scheduling order + drop decision).

The paper compares four strategies on top of binary Spray-and-Wait:

* ``fifo``    — plain Spray-and-Wait: send oldest first, drop oldest
  (:class:`repro.policies.fifo.FifoPolicy`).
* ``snw-o``   — Spray-and-Wait-O: priority = remaining TTL / initial TTL
  (:class:`repro.policies.ttl_based.TtlRatioPolicy`).
* ``snw-c``   — Spray-and-Wait-C: priority = copies / initial copies
  (:class:`repro.policies.copies_based.CopiesRatioPolicy`).
* ``sdsrp``   — the paper's contribution
  (:class:`repro.core.sdsrp.SdsrpPolicy`, re-exported here).

Additional classic policies are included as extra baselines: LIFO, random,
MOFO (most-forwarded-first dropped) and SHLI (shortest-lifetime-first
dropped) from Lindgren & Phanse's queue-policy study [9].

Use :func:`make_policy` to construct any policy by name.  An SDSRP-family
policy also takes its fleet's ``shared`` state, which the scenario runner
builds once per run.
"""

from repro.policies.base import BufferPolicy, PolicyContext
from repro.policies.copies_based import CopiesRatioPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lifo import LifoPolicy
from repro.policies.mofo import MofoPolicy
from repro.policies.random_drop import RandomPolicy
from repro.policies.registry import available_policies, make_policy, register_policy
from repro.policies.shli import ShliPolicy
from repro.policies.ttl_based import TtlRatioPolicy

__all__ = [
    "BufferPolicy",
    "CopiesRatioPolicy",
    "FifoPolicy",
    "LifoPolicy",
    "MofoPolicy",
    "PolicyContext",
    "RandomPolicy",
    "ShliPolicy",
    "TtlRatioPolicy",
    "available_policies",
    "make_policy",
    "register_policy",
]
