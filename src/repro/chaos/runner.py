"""Run one chaos case and judge it with the local oracles.

:func:`run_case` is the fuzzing loop's workhorse: build the scenario with
the sanitizer armed, run to the horizon, and translate whatever happens —
an :class:`~repro.errors.InvariantViolation`, any other crash, or an
inconsistent summary — into an :class:`~repro.chaos.oracles.OracleFailure`.
:func:`case_digest` is the byte-identity probe used by the metamorphic and
replay oracles: a SHA-256 over the full event trace plus the stable part of
the run summary.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass
from typing import Any

from repro.chaos.oracles import (
    ORACLE_CRASH,
    ORACLE_INVARIANT,
    OracleFailure,
    check_summary,
)
from repro.errors import InvariantViolation
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig

__all__ = [
    "CaseResult",
    "case_digest",
    "run_case",
    "stable_summary",
]

#: RunSummary fields excluded from digests: wall-clock diagnostics that
#: legitimately differ between byte-identical runs.
_UNSTABLE_SUMMARY_FIELDS = ("wall_seconds", "profile")


@dataclass
class CaseResult:
    """Outcome of one chaos case."""

    config: ScenarioConfig
    summary: Any | None = None
    failure: OracleFailure | None = None
    #: Full event-trace JSONL of the run (None when the case crashed before
    #: producing one).
    trace_jsonl: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def stable_summary(summary: Any) -> dict[str, Any]:
    """The deterministic projection of a RunSummary (digest input)."""
    data = summary.as_dict()
    for key in _UNSTABLE_SUMMARY_FIELDS:
        data.pop(key, None)
    # Profile keys were expanded with a prefix by as_dict.
    return {k: v for k, v in data.items() if not k.startswith("profile_")}


def run_case(config: ScenarioConfig) -> CaseResult:
    """Run *config* and apply the invariant-family oracles."""
    try:
        built = build_scenario(config)
        summary = run_built(built)
    except (KeyboardInterrupt, SystemExit):
        raise
    except InvariantViolation as exc:
        # The per-tick sanitizer fired: the canonical invariant-oracle hit.
        # run_built already attached the trace tail.
        return CaseResult(
            config=config,
            failure=OracleFailure(
                oracle=ORACLE_INVARIANT,
                detail=str(exc),
                invariant=exc.invariant,
                violation_time=exc.time,
                node_id=exc.node_id,
                msg_id=exc.msg_id,
                trace_tail=list(getattr(exc, "trace_tail", None) or []),
            ),
        )
    except Exception as exc:
        # Any other escape is its own oracle: the simulator must never
        # crash on a config its validators accepted.
        return CaseResult(
            config=config,
            failure=OracleFailure(
                oracle=ORACLE_CRASH,
                detail=traceback.format_exc(),
                invariant=type(exc).__name__,
            ),
        )
    trace_jsonl = built.trace.to_jsonl() if built.trace is not None else None
    failure = check_summary(summary)
    return CaseResult(
        config=config,
        summary=summary,
        failure=failure,
        trace_jsonl=trace_jsonl,
    )


def case_digest(config: ScenarioConfig) -> str | None:
    """SHA-256 of the run's observable bytes (trace + stable summary).

    Returns ``None`` when the run fails — digests are only meaningful for
    clean runs (failures are compared via :meth:`OracleFailure.matches`).
    """
    result = run_case(config)
    if result.failure is not None:
        return None
    payload = (result.trace_jsonl or "") + json.dumps(
        stable_summary(result.summary), sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
