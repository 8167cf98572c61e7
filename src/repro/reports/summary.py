"""One run's results as a plain record (sweep rows, table printing).

Two record types: :class:`RunSummary` for a completed simulation and
:class:`FailedRun` for one that died or timed out inside a sweep (see
:func:`repro.experiments.runner.run_scenario_safe`).  Both round-trip
through plain dicts; the run store (:mod:`repro.experiments.checkpoint`)
keeps summaries in that form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass(frozen=True)
class RunSummary:
    """Headline metrics of a single simulation run."""

    scenario: str
    policy: str
    seed: int
    sim_time: float
    # workload knobs the paper sweeps:
    initial_copies: int
    buffer_bytes: int
    interval_range: tuple[float, float]
    # outcomes:
    created: int
    delivered: int
    relayed: int
    delivery_ratio: float
    average_hopcount: float
    overhead_ratio: float
    average_latency: float
    drops: dict[str, int] = field(default_factory=dict)
    #: Injected-fault counts by kind (empty when the run had no fault plan).
    faults: dict[str, int] = field(default_factory=dict)
    contacts: int = 0
    mean_intermeeting: float = float("nan")
    wall_seconds: float = 0.0
    #: Per-phase wall-time breakdown (self seconds by subsystem, see
    #: :mod:`repro.obs.profiler`); empty unless the run was profiled.
    #: Diagnostic, like ``wall_seconds`` — never simulation state.
    profile: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flat dict (drops/faults/profile expanded as prefixed keys)."""
        out = asdict(self)
        drops = out.pop("drops")
        for reason, count in drops.items():
            out[f"drop_{reason}"] = count
        faults = out.pop("faults")
        for kind, count in faults.items():
            out[f"fault_{kind}"] = count
        profile = out.pop("profile")
        for phase, seconds in profile.items():
            out[f"profile_{phase}"] = seconds
        return out

    def record(self) -> dict[str, Any]:
        """Nested dict that :meth:`from_record` restores exactly."""
        return asdict(self)

    @classmethod
    def from_record(cls, data: dict[str, Any]) -> "RunSummary":
        """Rebuild a summary from :meth:`record` output (JSON round-trip)."""
        data = dict(data)
        data["interval_range"] = tuple(data["interval_range"])
        return cls(**data)

    @staticmethod
    def table_header() -> str:
        return (
            f"{'policy':<12} {'L':>4} {'buffer':>10} {'rate':>10} "
            f"{'deliv':>7} {'hops':>6} {'ovh':>7} {'created':>8}"
        )

    def table_row(self) -> str:
        lo, hi = self.interval_range
        return (
            f"{self.policy:<12} {self.initial_copies:>4} "
            f"{self.buffer_bytes / (1024 * 1024):>8.1f}MB "
            f"{f'[{lo:.0f},{hi:.0f}]':>10} "
            f"{self.delivery_ratio:>7.3f} {self.average_hopcount:>6.2f} "
            f"{self.overhead_ratio:>7.2f} {self.created:>8}"
        )


@dataclass(frozen=True)
class FailedRun:
    """A sweep item that did not produce a summary.

    Returned (never raised) by the sweep path so one crashed or hung
    worker cannot poison a multi-hour grid; results stay in input order
    with failures in place.
    """

    scenario: str
    policy: str
    seed: int
    error_type: str
    error_message: str
    traceback: str = ""
    attempts: int = 1

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    record = as_dict  # same nested form; kept for symmetry with RunSummary

    @classmethod
    def from_record(cls, data: dict[str, Any]) -> "FailedRun":
        return cls(**data)

    def replace_attempts(self, attempts: int) -> "FailedRun":
        """Copy with the attempt counter updated (retry bookkeeping)."""
        return dataclasses.replace(self, attempts=attempts)

    def table_row(self) -> str:
        return (
            f"{self.policy:<12} FAILED seed={self.seed} "
            f"{self.error_type}: {self.error_message}"
        )
