"""The fuzzing loop: sample, run, judge, shrink, record.

:func:`fuzz` drives the whole campaign.  Per iteration:

1. sample case *i* from the :class:`~repro.chaos.space.ChaosSpace`
   (pure function of ``(space, seed, i)``);
2. run it with the sanitizer armed and apply the invariant-family oracles
   (:func:`~repro.chaos.runner.run_case`);
3. every ``metamorphic_every``-th *clean* case additionally pays for the
   expensive oracles: replay byte-identity (run the same config twice and
   compare digests), shard identity (a sharded case — worker kill
   included — must replay the single-process bytes), zero-fault identity
   (a disabled fault plan must match a plan-free run byte-for-byte) and
   buffer monotonicity (half the buffer must not *improve* delivery at
   fixed seed);
4. a failing case is verified by replay (same failure class again — a
   non-reproducing failure is itself a replay-oracle finding), shrunk via
   :mod:`~repro.chaos.shrink`, localized via
   :func:`~repro.chaos.bisect.locate_violation`, and written to the corpus
   as a self-contained reproducer.

Wall-clock only gates the *budget* (``time.perf_counter``, the one clock
reprolint REP002 allows); nothing wall-clock-derived reaches the report
payload, so a completed campaign's ``as_dict`` is byte-identical across
re-runs with the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.bisect import locate_violation
from repro.chaos.corpus import make_entry, write_entry
from repro.chaos.oracles import (
    ORACLE_BUFFER_MONOTONE,
    ORACLE_INVARIANT,
    ORACLE_REPLAY,
    ORACLE_SHARD,
    ORACLE_ZERO_FAULT,
    OracleFailure,
    check_buffer_monotone,
)
from repro.chaos.runner import case_digest, check_shard_identity, run_case
from repro.chaos.shrink import shrink, shrink_stats
from repro.chaos.space import ChaosSpace, describe_case, sample_case
from repro.experiments.scenario import ScenarioConfig

__all__ = ["Finding", "FuzzReport", "fuzz"]


@dataclass
class Finding:
    """One confirmed failure, after shrinking and localization."""

    iteration: int
    failure: OracleFailure
    config: ScenarioConfig
    original_config: ScenarioConfig
    shrink_attempts: int = 0
    replay_confirmed: bool = True
    corpus_path: str | None = None
    bracket: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        failure = self.failure.as_dict()
        # The trace tail is reproducer context, not report material.
        failure.pop("trace_tail", None)
        return {
            "iteration": self.iteration,
            "failure": failure,
            "replay_confirmed": self.replay_confirmed,
            "shrunk": shrink_stats(self.config),
            "original": shrink_stats(self.original_config),
            "shrink_attempts": self.shrink_attempts,
            "corpus_path": self.corpus_path,
            "bracket": self.bracket,
        }


@dataclass
class FuzzReport:
    """Campaign outcome.  ``as_dict`` is deterministic for a completed
    campaign (no wall-clock values; see module docstring)."""

    seed: int
    iterations_requested: int
    iterations_run: int = 0
    checks: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def count(self, oracle: str) -> None:
        self.checks[oracle] = self.checks.get(oracle, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "iterations_requested": self.iterations_requested,
            "iterations_run": self.iterations_run,
            "checks": dict(sorted(self.checks.items())),
            "findings": [f.as_dict() for f in self.findings],
            "budget_exhausted": self.budget_exhausted,
        }


def _zero_fault_pair(config: ScenarioConfig) -> ScenarioConfig | None:
    """The metamorphic partner for the zero-fault identity check.

    For a faulted case: the same scenario with the plan removed must be
    byte-identical to the same scenario with a *disabled* plan (faults
    must be pay-for-what-you-use).  For an unfaulted case there is nothing
    to compare.
    """
    if config.faults is None:
        return None
    from repro.faults.plan import FaultPlan

    return config.replace(faults=FaultPlan())


def fuzz(
    iterations: int,
    seed: int,
    *,
    corpus_dir: str | None = None,
    budget_seconds: float | None = None,
    space: ChaosSpace | None = None,
    shrink_failures: bool = True,
    shrink_budget: int = 64,
    metamorphic_every: int = 5,
    check: Callable[[ScenarioConfig], OracleFailure | None] | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run a fuzzing campaign; see the module docstring for the loop.

    *check* overrides the per-case oracle runner (the mutation tests use
    this to fuzz a deliberately-broken simulator); *log* receives one-line
    progress strings (the CLI passes ``print``).
    """
    space = space or ChaosSpace()
    report = FuzzReport(seed=seed, iterations_requested=iterations)
    say = log or (lambda _line: None)
    started = time.perf_counter()
    run_failure = check or (lambda config: run_case(config).failure)

    for index in range(iterations):
        if (
            budget_seconds is not None
            and time.perf_counter() - started >= budget_seconds
        ):
            report.budget_exhausted = True
            say(
                f"budget of {budget_seconds:.0f}s exhausted after "
                f"{report.iterations_run} iterations"
            )
            break
        config = sample_case(space, seed, index)
        report.iterations_run += 1
        failure = run_failure(config)
        report.count(ORACLE_INVARIANT)
        if failure is None and metamorphic_every > 0 \
                and index % metamorphic_every == 0:
            failure = _metamorphic_checks(config, report)
        if failure is None:
            continue
        say(f"FAIL {describe_case(config)}")
        say(f"     {failure.oracle}/{failure.invariant}")
        finding = _handle_failure(
            config,
            failure,
            index,
            seed,
            corpus_dir=corpus_dir,
            shrink_failures=shrink_failures,
            shrink_budget=shrink_budget,
            check=run_failure,
            say=say,
        )
        report.findings.append(finding)
    return report


def _metamorphic_checks(
    config: ScenarioConfig, report: FuzzReport
) -> OracleFailure | None:
    """Replay, zero-fault and buffer-monotone oracles for one clean case."""
    # Replay identity: the exact same config twice, byte-compared.
    report.count(ORACLE_REPLAY)
    first = case_digest(config)
    second = case_digest(config)
    if first != second:
        return OracleFailure(
            oracle=ORACLE_REPLAY,
            detail=(
                f"two runs of the same config diverged: {first} vs {second}"
            ),
            invariant="self-replay",
        )

    # Shard identity: a sharded case (worker kill included) must replay
    # the single-process bytes (reuses `first` from the replay check
    # above); vacuous for unsharded cases.
    if config.shard_count > 1:
        report.count(ORACLE_SHARD)
        shard_failure = check_shard_identity(config, own_digest=first)
        if shard_failure is not None:
            return shard_failure

    partner = _zero_fault_pair(config)
    if partner is not None:
        report.count(ORACLE_ZERO_FAULT)
        plain = config.replace(faults=None)
        disabled = case_digest(partner)
        bare = case_digest(plain)
        if disabled != bare:
            return OracleFailure(
                oracle=ORACLE_ZERO_FAULT,
                detail=(
                    "a disabled fault plan perturbed the run: digest "
                    f"{disabled} with FaultPlan() vs {bare} with faults=None"
                ),
                invariant="zero-fault-identity",
            )

    # Buffer monotonicity: half the buffer must not improve delivery.
    smaller = config.replace(
        buffer_bytes=max(config.message_size, config.buffer_bytes // 2)
    )
    if smaller.buffer_bytes < config.buffer_bytes:
        report.count(ORACLE_BUFFER_MONOTONE)
        small_run = run_case(smaller)
        large_run = run_case(config)
        if small_run.ok and large_run.ok:
            return check_buffer_monotone(small_run.summary, large_run.summary)
    return None


def _handle_failure(
    config: ScenarioConfig,
    failure: OracleFailure,
    iteration: int,
    seed: int,
    *,
    corpus_dir: str | None,
    shrink_failures: bool,
    shrink_budget: int,
    check: Callable[[ScenarioConfig], OracleFailure | None],
    say: Callable[[str], None],
) -> Finding:
    """Verify by replay, shrink, localize and record one failure."""
    # A shard-identity failure can only be re-observed by its own
    # sharded-vs-single comparison; run_case alone would always "pass" and
    # wrongly downgrade the finding to a failure-replay record.  The same
    # checker drives shrinking, so candidates are accepted on the oracle
    # that actually fired.
    if failure.oracle == ORACLE_SHARD:
        check = check_shard_identity
    replayed = check(config)
    replay_confirmed = failure.matches(replayed)
    if not replay_confirmed:
        # The failure itself is flaky: that *is* a replay-oracle finding,
        # and shrinking a non-reproducing case would chase noise.
        failure = OracleFailure(
            oracle=ORACLE_REPLAY,
            detail=(
                f"original failure {failure.oracle}/{failure.invariant} did "
                f"not reproduce on replay (got "
                f"{None if replayed is None else replayed.oracle})"
            ),
            invariant="failure-replay",
            trace_tail=failure.trace_tail,
        )

    minimal = config
    attempts = 0
    if shrink_failures and replay_confirmed:
        minimal, attempts = shrink(
            config, failure, check=check, budget=shrink_budget
        )
        say(
            f"     shrunk to {shrink_stats(minimal)} "
            f"in {attempts} candidate runs"
        )

    bracket = None
    if replay_confirmed and failure.oracle == ORACLE_INVARIANT:
        located = _try_locate(minimal)
        if located is not None:
            bracket = located
            say(
                f"     first violation at t={located['violation_time']:.1f} "
                f"(checkpoint bracket from t={located['checkpoint_time']})"
            )

    finding = Finding(
        iteration=iteration,
        failure=failure,
        config=minimal,
        original_config=config,
        shrink_attempts=attempts,
        replay_confirmed=replay_confirmed,
        bracket=bracket,
    )
    if corpus_dir is not None:
        entry = make_entry(
            minimal,
            failure,
            base_seed=seed,
            iteration=iteration,
            shrink_attempts=attempts,
            original_config=config,
        )
        path = write_entry(corpus_dir, entry)
        finding.corpus_path = str(path)
        say(f"     reproducer written to {path}")
    return finding


def _try_locate(config: ScenarioConfig) -> dict[str, Any] | None:
    """Snapshot-bracket the violation; best-effort (a config whose failure
    is a *crash* during capture must not sink the campaign)."""
    try:
        bracket = locate_violation(config)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        return None
    if bracket is None:
        return None
    return {
        "invariant": bracket.invariant,
        "violation_time": bracket.violation_time,
        "checkpoint_time": bracket.checkpoint_time,
        "confirmed_from_checkpoint": bracket.confirmed_from_checkpoint,
    }
