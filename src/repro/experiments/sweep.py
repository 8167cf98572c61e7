"""Parameter sweeps over scenarios.

Thin, deterministic glue between scenario configs and worker processes:

* :func:`replicate` — n seeds per config (seed derivation is stable under
  reordering, see :func:`repro.rng.derive_seed`);
* :func:`run_many` — run a list of configs on the worker supervisor,
  serial or parallel, preserving input order; failures become
  :class:`~repro.reports.summary.FailedRun` records in place, optionally
  retried with fresh derived seeds and checkpointed to a resumable JSONL
  file;
* :func:`summarize_replicates` — average metric values over replicates.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

from repro.experiments.checkpoint import (
    SweepCheckpoint,
    SweepResult,
    config_fingerprint,
)
from repro.experiments.runner import run_scenario_safe
from repro.experiments.scenario import ScenarioConfig
from repro.parallel.supervisor import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    JobOutcome,
    WorkerSupervisor,
    backoff_delays,
    default_workers,
)
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import derive_seed

__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "backoff_delays",
    "replicate",
    "run_many",
    "summarize_replicates",
]


def replicate(config: ScenarioConfig, n: int) -> list[ScenarioConfig]:
    """*n* copies of *config* with independent, reproducible seeds."""
    return [
        config.replace(seed=derive_seed(config.seed, "replicate", i))
        for i in range(n)
    ]


def run_many(
    configs: Sequence[ScenarioConfig],
    workers: int | None = None,
    *,
    retries: int = 0,
    timeout: float | None = None,
    checkpoint: str | None = None,
) -> list[SweepResult]:
    """Run every config; results are in input order.

    ``workers=None`` uses all cores minus one; ``workers=1`` forces serial.

    The configs run on a :class:`~repro.parallel.supervisor.WorkerSupervisor`:
    inline when the sweep is serial or has at most one config left to run,
    on worker lanes otherwise, and on at least one lane whenever
    ``timeout`` is set, since a hung run can only be stopped by killing its
    worker.  Every failure — a raising scenario, a hung worker (``timeout``
    seconds after its item was handed to it; it is killed), or a dying
    worker process — is returned as a :class:`FailedRun` record in the
    failing config's slot instead of poisoning the sweep:

    * ``retries`` re-runs failed items up to that many extra times, each
      attempt with a fresh seed derived from the original (a pathological
      seed must not fail the grid point forever), after a seeded
      exponential-with-jitter backoff (:func:`backoff_delays`; transient
      resource exhaustion — OOM-killed workers, a saturated disk — needs
      breathing room, but the pause must stay deterministic per seed);
    * ``checkpoint`` appends each finished item to a JSONL file keyed by
      config fingerprint; re-running with the same path skips configs whose
      summaries are already recorded (``--resume`` in the CLI).
    """
    return _run_resilient(
        list(configs),
        workers=default_workers() if workers is None else workers,
        retries=retries,
        timeout=timeout,
        checkpoint=SweepCheckpoint(checkpoint) if checkpoint else None,
    )


def _run_resilient(
    configs: list[ScenarioConfig],
    workers: int,
    retries: int,
    timeout: float | None,
    checkpoint: SweepCheckpoint | None,
) -> list[SweepResult]:
    keys = [config_fingerprint(c) for c in configs]
    # One backoff schedule per sweep, seeded from the grid itself so the
    # pause pattern replays exactly (and differs between unrelated sweeps).
    backoff = backoff_delays(
        derive_seed(configs[0].seed if configs else 0, "sweep.backoff"),
        retries,
    )
    results: dict[int, SweepResult] = {}
    if checkpoint is not None:
        for i, key in enumerate(keys):
            hit = checkpoint.completed(key)
            if hit is not None:
                results[i] = hit

    pending = [i for i in range(len(configs)) if i not in results]
    # The sweep keeps its own retry policy (whole rounds, a fresh seed per
    # round), so the supervisor runs each submission exactly once.  A
    # serial sweep, or one with a single config left, runs inline, in
    # input order, unless a timeout needs a worker to kill.
    inline = timeout is None and (workers <= 1 or len(pending) <= 1)
    supervisor = WorkerSupervisor(
        0 if inline else max(1, workers),
        run_fn=run_scenario_safe,
        timeout=timeout,
        max_attempts=1,
    )
    try:
        for attempt in range(retries + 1):
            if not pending:
                break
            if attempt > 0:
                time.sleep(backoff[attempt - 1])
            batch = []
            for i in pending:
                cfg = configs[i]
                if attempt > 0:
                    # Fresh derived seed per retry: a crash tied to one
                    # seed's event sequence must not fail the grid point
                    # forever.
                    cfg = cfg.replace(
                        seed=derive_seed(cfg.seed, "retry", attempt)
                    )
                if (
                    checkpoint is not None
                    and cfg.snapshot_every > 0
                    and cfg.snapshot_to is None
                ):
                    # Mid-run resume for killed workers: each grid point
                    # rolls its own snapshot file next to the sweep
                    # checkpoint, keyed by config fingerprint.
                    # run_scenario_safe resumes from it when present and
                    # removes it on success.  A retry changes the seed, so
                    # a stale snapshot from the crashed attempt fails the
                    # config match and is rebuilt from scratch.
                    snap_dir = checkpoint.path.parent / (
                        checkpoint.path.name + ".snap"
                    )
                    cfg = cfg.replace(
                        snapshot_to=str(snap_dir / f"{keys[i]}.snap.gz")
                    )
                batch.append(cfg)

            def settle(outcomes: list[JobOutcome]) -> None:
                for outcome in outcomes:
                    i = int(outcome.job_id)
                    result = outcome.result
                    if checkpoint is not None:
                        checkpoint.record(keys[i], result)
                    if isinstance(result, FailedRun):
                        result = result.replace_attempts(attempt + 1)
                    results[i] = result

            for i, cfg in zip(pending, batch):
                while not supervisor.has_capacity():
                    settle(supervisor.wait())
                supervisor.submit(str(i), cfg)
                settle(supervisor.poll())
            while supervisor.pending():
                settle(supervisor.wait())
            pending = [i for i in pending if isinstance(results[i], FailedRun)]
    finally:
        supervisor.shutdown()
    return [results[i] for i in range(len(configs))]


def summarize_replicates(
    summaries: Sequence[SweepResult], metric: str
) -> float:
    """Mean of *metric* across replicate summaries, ignoring NaNs.

    :class:`FailedRun` records are skipped (a crashed replicate must not
    poison the surviving ones).  Returns NaN when every replicate is NaN or
    failed (e.g. overhead with zero deliveries).
    """
    values = [
        v
        for s in summaries
        if isinstance(s, RunSummary)
        and not math.isnan(v := float(getattr(s, metric)))
    ]
    if not values:
        return math.nan
    return sum(values) / len(values)
