"""Deterministic fault injection for DTN scenarios.

The paper evaluates SDSRP under ideal conditions — every node stays up for
the whole run and every accepted transfer succeeds.  Real DTN deployments
(disaster relief, vehicular fleets) are motivated by exactly the opposite,
so this subsystem adds a first-class fault model:

* **node churn** — nodes go offline (dropping all links, optionally wiping
  their buffer) and rejoin later on a deterministic duty cycle;
* **link flaps** — random live links are forced down mid-tick, aborting
  in-flight transfers; if both endpoints stay in range the link re-forms on
  the next world tick;
* **transfer faults** — a completed transmission is truncated on the air
  with some probability; the receiver discards the partial copy and spray
  tokens are left uncommitted (the split protocol is two-phase).

Everything is driven by a dedicated :class:`~repro.rng.RngFactory` stream
(``"faults"``), so faulted runs stay bit-reproducible: identical seeds give
identical outages, flaps and truncations.
"""

from repro.faults.plan import EVENT_KINDS, FaultEvent, FaultPlan

__all__ = ["EVENT_KINDS", "FaultEvent", "FaultPlan"]
