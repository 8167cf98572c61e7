"""Parameter sweeps over scenarios.

Thin, deterministic glue between scenario configs and worker processes:

* :func:`replicate` — n seeds per config (seed derivation is stable under
  reordering, see :func:`repro.rng.derive_seed`);
* :func:`run_many` — run a list of configs on the worker supervisor,
  serial or parallel, preserving input order; failures become
  :class:`~repro.reports.summary.FailedRun` records in place, optionally
  retried (the same config again, after a seeded backoff) and kept in a
  resumable run store;
* :func:`summarize_replicates` — average metric values over replicates.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Union

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import RunStore, config_fingerprint
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

SweepResult = Union[RunSummary, FailedRun]

#: Seconds between polls while backed-off retries are all a sweep has left
#: (the pace of ScenarioService.drain).
_RETRY_POLL = 0.02


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
    seconds after its lane was ready to run the item, so a new lane's
    start-up is not charged; it is killed), or a dying worker process — is
    returned as a :class:`FailedRun` record in the failing config's slot
    instead of poisoning the sweep:

    * ``retries`` reruns a failed config, unchanged, up to that many extra
      times, each after a seeded exponential-with-jitter backoff per job
      (:func:`backoff_delays`; transient resource exhaustion — OOM-killed
      workers, a saturated disk — needs breathing room, but the pause must
      stay deterministic);
    * ``checkpoint`` names a run-store directory
      (:class:`~repro.experiments.checkpoint.RunStore`, the layout the
      scenario service keeps under its root): each finished summary is
      stored under its config's fingerprint, and configs already stored
      there are served without running (``--resume`` in the CLI).
      Failures are not stored, so running the sweep again retries them.
    """
    configs = list(configs)
    workers = default_workers() if workers is None else workers
    store = None
    if checkpoint is not None:
        if Path(checkpoint).is_file():
            raise ConfigurationError(
                f"sweep checkpoint {checkpoint} is a file; a sweep resumes "
                "from a run-store directory (JSONL sweep checkpoints are "
                "not read)"
            )
        store = RunStore(checkpoint)
    keys = [config_fingerprint(c) for c in configs]
    results: dict[int, SweepResult] = {}
    if store is not None:
        for i, key in enumerate(keys):
            hit = store.cache.get(key)
            if hit is not None:
                results[i] = hit

    pending = [i for i in range(len(configs)) if i not in results]
    # A serial sweep, or one with a single config left, runs inline, in
    # input order, unless a timeout needs a worker to kill.
    inline = timeout is None and (workers <= 1 or len(pending) <= 1)
    supervisor = WorkerSupervisor(
        0 if inline else max(1, workers),
        run_fn=run_scenario_safe,
        timeout=timeout,
        max_attempts=retries + 1,
        # Seeded from the grid itself, so the pause pattern replays exactly
        # (and differs between unrelated sweeps).
        seed=derive_seed(configs[0].seed if configs else 0, "sweep.backoff"),
        backoff_base=BACKOFF_BASE,
        backoff_cap=BACKOFF_CAP,
    )

    def settle(outcomes: list[JobOutcome]) -> None:
        for outcome in outcomes:
            i = int(outcome.job_id)
            results[i] = outcome.result
            if store is not None and isinstance(outcome.result, RunSummary):
                store.cache.put(keys[i], outcome.result)

    try:
        for i in pending:
            while not supervisor.has_capacity():
                settle(supervisor.wait())
            cfg = configs[i]
            supervisor.submit(
                str(i), cfg if store is None else store.to_run(cfg, keys[i])
            )
            settle(supervisor.poll())
        while supervisor.pending():
            outcomes = supervisor.wait()
            if not outcomes:
                # wait() returns at once when no run is in flight: pace the
                # backed-off retries, as ScenarioService.drain paces its
                # pump.
                time.sleep(_RETRY_POLL)
            settle(outcomes)
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
