"""SDSRP configuration knobs.

The defaults reproduce the paper's strategy; the alternatives are the
ablation axes called out in DESIGN.md §3.  Where m_i and n_i come from is
not a knob here: the scenario builder picks it once for the fleet (the
``-oracle`` policy names, :class:`repro.core.sdsrp.SdsrpShared`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Which priority expression to evaluate.
FORM_CLOSED = "closed"  # Eq. 10
FORM_TAYLOR = "taylor"  # Eq. 13 truncation

#: Dropped-list rejection rule ("nodes reject receiving the message already
#: in their dropped lists").
REJECT_OWN = "own"  # reject messages this node itself dropped (default)
REJECT_ANY = "any"  # reject messages any known record lists (aggressive)
REJECT_OFF = "off"  # no rejection (ablation)


@dataclass(frozen=True)
class SdsrpParams:
    """Tunable parameters of :class:`repro.core.sdsrp.SdsrpPolicy`."""

    #: Priority expression: FORM_CLOSED or FORM_TAYLOR.
    priority_form: str = FORM_CLOSED
    #: Taylor truncation length when priority_form == FORM_TAYLOR.
    taylor_terms: int = 8
    #: Dropped-list rejection rule: REJECT_OWN / REJECT_ANY / REJECT_OFF.
    reject_rule: str = REJECT_OWN
    #: Eq. 15 reference time: False = latest spray (the paper's formula),
    #: True = current time (aggressive branch growth; ablation).
    extrapolate_spray_tree: bool = False

    def __post_init__(self) -> None:
        if self.priority_form not in (FORM_CLOSED, FORM_TAYLOR):
            raise ConfigurationError(f"unknown priority_form {self.priority_form!r}")
        if self.taylor_terms < 1:
            raise ConfigurationError(f"taylor_terms must be >= 1: {self.taylor_terms}")
        if self.reject_rule not in (REJECT_OWN, REJECT_ANY, REJECT_OFF):
            raise ConfigurationError(f"unknown reject_rule {self.reject_rule!r}")
