"""Supervised worker lanes: the one place scenarios run on worker processes.

Sweeps (:func:`repro.experiments.sweep.run_many`) and the job service
(:mod:`repro.service`) both run their scenarios through
:class:`WorkerSupervisor`.  Each of its ``workers`` slots is a **lane**: a
single-process executor (``ProcessPoolExecutor(max_workers=1)``) that
always uses the ``spawn`` start method, so workers behave identically on
Linux (fork default) and macOS/Windows (spawn default) and never inherit
lazily-initialized parent state.  A lane runs one job at a time, so a hang
or a death belongs to exactly one job and no other in-flight job is charged
or re-run:

* **worker death** — the lane's future fails with
  :class:`BrokenProcessPool`; the job is charged a ``WorkerDeath`` attempt
  and only that lane is replaced;
* **hangs** — each flight carries a deadline on the supervisor's injected
  clock, counted from when its lane is ready to run it (detection is a
  pure function of that clock, so tests drive it deterministically); an
  overdue flight's worker is killed, the job charged a ``WorkerTimeout``
  attempt, and the lane replaced.  A new lane's start-up — spawning the
  worker and importing ``run_fn``'s module — is not the job's: with a
  timeout, the new worker first imports that module, and the job's
  deadline starts once the import has returned, or once start-up has
  run past :data:`LANE_STARTUP_LIMIT`, so a worker that hangs while
  starting is still caught.  Nothing waits for a start-up: cold lanes
  start together;
* **orphans** — lane workers watch their parent and exit when it dies, so
  a SIGKILLed caller leaves no worker (and no resource tracker) behind;
* **bounded retries** — with ``max_attempts > 1`` a failed attempt is
  rescheduled after the seeded equal-jitter :func:`backoff_delays` (never
  an ad-hoc sleep — reprolint REP010 enforces this repo-wide).  Retries
  rerun the *byte-exact same config*: the run store that sweeps and the
  service share is keyed by config fingerprint, and mutating the seed on
  retry would break the same-fingerprint-same-bytes soundness argument
  (docs/service.md).  Sweeps and the service both retry this way;
* **poison-job quarantine** — a job that exhausts ``max_attempts`` is
  failed terminally and, given a ``quarantine_dir``, written as a
  self-contained JSON reproducer in the chaos-corpus format
  (:mod:`repro.chaos.corpus`), so triage starts from the same artifact the
  fuzzer produces.

``workers=0`` runs jobs inline (serial, deterministic, no processes); the
retry/backoff machinery is identical in both modes.  The caller supplies
``run_fn`` (for scenarios, ``repro.experiments.runner.run_scenario_safe``):
a module-level function, so spawn workers can unpickle it, that returns a
:class:`RunSummary` or a :class:`FailedRun`.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import RngFactory, derive_seed

__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "JobOutcome",
    "WorkerSupervisor",
    "backoff_delays",
    "default_workers",
]

#: Default backoff shape (a sweep's retries): base * 2^(k-1) seconds for
#: retry k, capped.  The service passes its own, shorter shape.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0

#: Longest a new lane may take to start, in seconds on the supervisor's
#: clock, before a flight's deadline starts anyway: a worker that hangs
#: while starting is then still caught by that deadline.
LANE_STARTUP_LIMIT = 60.0

#: Error type recorded when a flight exceeds its heartbeat deadline.
ERROR_TIMEOUT = "WorkerTimeout"
#: Error type recorded when the worker process died under a flight.
ERROR_WORKER_DEATH = "WorkerDeath"


def default_workers() -> int:
    """A sensible worker count: physical parallelism minus one, min 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _pool_context() -> multiprocessing.context.BaseContext:
    """The explicit start method used for every worker process."""
    return multiprocessing.get_context("spawn")


def backoff_delays(
    seed: int,
    attempts: int,
    *,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> list[float]:
    """Exponential backoff with equal jitter, fully determined by *seed*.

    Delay for retry ``k`` (1-based) is drawn from
    ``[w/2, w]`` where ``w = min(cap, base * 2**(k-1))`` — the classic
    equal-jitter scheme, except the jitter comes from a dedicated stream of
    a :class:`~repro.rng.RngFactory` seeded with *seed*, never from
    wall-clock or ambient randomness.  Two sweeps over the same grid
    therefore back off on an identical schedule (and a test can assert the
    exact sequence), while different sweeps still decorrelate their retry
    bursts against a shared machine.
    """
    stream = RngFactory(seed).stream("sweep.backoff")
    delays = []
    for k in range(1, attempts + 1):
        window = min(cap, base * (2.0 ** (k - 1)))
        delays.append(window * (0.5 + 0.5 * float(stream.random())))
    return delays


def _exit_with_parent() -> None:
    """Lane-worker initializer: exit as soon as the parent process dies.

    A SIGKILLed parent cannot shut its lanes down; without this watcher the
    worker, and the resource tracker it holds open, would outlive it.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return
    sentinel = parent.sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


@dataclass(frozen=True)
class JobOutcome:
    """One job's terminal verdict from the supervisor."""

    job_id: str
    result: RunSummary | FailedRun
    attempts: int
    #: Path of the quarantine reproducer, when the job was poisoned.
    quarantine: str = ""


@dataclass
class _Flight:
    job_id: str
    config: Any
    attempts: int  # 1-based attempt number this flight is running
    lane: int = 0
    future: Future | None = None
    #: The new lane's start-up (importing ``run_fn``'s module) while it
    #: runs; the flight's deadline is then the start-up limit.
    ready: Future | None = None
    deadline: float | None = None


@dataclass
class _Retry:
    job_id: str
    config: Any
    attempts: int  # attempts already consumed
    not_before: float


@dataclass
class SupervisorStats:
    worker_deaths: int = 0
    timeouts: int = 0
    retries: int = 0
    quarantined: int = 0
    completed: int = 0
    failed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class WorkerSupervisor:
    """Runs jobs on supervised worker lanes; never raises for a job."""

    def __init__(
        self,
        workers: int,
        *,
        run_fn: Callable[[Any], RunSummary | FailedRun],
        timeout: float | None = None,
        max_attempts: int = 2,
        seed: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        quarantine_dir: str | os.PathLike[str] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {max_attempts}"
            )
        self.workers = max(0, int(workers))
        self._run_fn = run_fn
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._seed = seed
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._quarantine_dir = (
            Path(quarantine_dir) if quarantine_dir is not None else None
        )
        # perf_counter, not time.time: diagnostic/pacing only, REP002-clean.
        self._clock = clock if clock is not None else time.perf_counter
        #: One single-process executor per lane; None until first used
        #: and again after its worker was killed or died.
        self._lanes: list[ProcessPoolExecutor | None] = [None] * self.workers
        self._flights: list[_Flight] = []
        self._retries: list[_Retry] = []
        self._ready: list[JobOutcome] = []
        self._dead = False
        self.stats = SupervisorStats()

    # -- lane lifecycle ----------------------------------------------------

    @property
    def inline(self) -> bool:
        return self.workers == 0

    @property
    def healthy(self) -> bool:
        """False once the supervisor is unrecoverable (degraded mode)."""
        return not self._dead

    def mark_dead(self) -> None:
        """Declare the workers unrecoverable (tests / chaos campaigns)."""
        self._dead = True

    def _close_lane(self, lane: int, *, kill: bool) -> None:
        """Stop and reap a lane's worker, SIGKILLing it first when *kill*;
        the lane's next flight starts a fresh worker."""
        executor, self._lanes[lane] = self._lanes[lane], None
        if executor is None:
            return
        if kill:
            for process in list(executor._processes.values()):
                process.kill()
        executor.shutdown(wait=True, cancel_futures=True)

    def worker_pids(self) -> list[int]:
        """Live lane worker pids, sorted (deterministic kill target order)."""
        return sorted(
            pid
            for executor in self._lanes
            if executor is not None
            for pid in executor._processes
        )

    def kill_worker(self, index: int = 0) -> int | None:
        """SIGKILL the *index*-th worker (kill tests)."""
        pids = self.worker_pids()
        if not pids:
            return None
        pid = pids[index % len(pids)]
        os.kill(pid, signal.SIGKILL)
        return pid

    def shutdown(self) -> None:
        """Stop every lane.  A lane still running a flight is killed, not
        waited for: the caller owns that job's fate (the service journal
        requeues it on restart)."""
        busy = {flight.lane for flight in self._flights}
        self._flights.clear()
        for lane in range(self.workers):
            self._close_lane(lane, kill=lane in busy)

    # -- capacity ----------------------------------------------------------

    def has_capacity(self) -> bool:
        if self._dead:
            return False
        if self.inline:
            return True
        return len(self._flights) < self.workers

    def pending(self) -> int:
        """Jobs the supervisor still owes an outcome for."""
        return len(self._flights) + len(self._retries) + len(self._ready)

    # -- submission --------------------------------------------------------

    def submit(self, job_id: str, config: Any, *, attempts: int = 0) -> None:
        """Start (or restart) a job; its outcome arrives via :meth:`poll`.

        Call only while :meth:`has_capacity` holds.  Never waits for a
        new lane to start: with a timeout, the job's deadline starts once
        :meth:`poll` finds its lane ready."""
        if not self.has_capacity():
            raise ConfigurationError(
                "supervisor is marked dead or has no free lane; "
                "cannot accept work"
            )
        self._start(
            _Flight(job_id=job_id, config=config, attempts=attempts + 1)
        )

    def _start(self, flight: _Flight) -> None:
        if self.inline:
            self._settle(flight, self._run_inline(flight.config))
            return
        busy = {f.lane for f in self._flights}
        flight.lane = next(i for i in range(self.workers) if i not in busy)
        executor = self._lanes[flight.lane]
        if executor is None or executor._broken:
            # A worker that died idle (OOM killer, an outside kill) broke
            # its lane without failing any job; submitting to it would
            # raise, so reap it and start afresh.
            self._close_lane(flight.lane, kill=False)
            executor = self._lanes[flight.lane] = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_pool_context(),
                initializer=_exit_with_parent,
            )
            if self.timeout is not None:
                # A start-up that fails fails the job's own future too,
                # which is where its error is read.
                flight.ready = executor.submit(
                    importlib.import_module, self._run_fn.__module__
                )
        flight.future = executor.submit(self._run_fn, flight.config)
        if self.timeout is not None:
            flight.deadline = self._clock() + (
                self.timeout if flight.ready is None else LANE_STARTUP_LIMIT
            )
        self._flights.append(flight)

    def _run_inline(self, config: Any) -> RunSummary | FailedRun:
        result = self._run_fn(config)
        if not isinstance(result, (RunSummary, FailedRun)):
            raise ConfigurationError(
                f"supervisor run_fn returned {type(result).__name__}; "
                "expected RunSummary or FailedRun"
            )
        return result

    # -- harvesting --------------------------------------------------------

    def poll(self) -> list[JobOutcome]:
        """Settle everything that finished, died, timed out, or is due a
        retry, and start the deadline of each flight whose lane has
        started; returns terminal outcomes in deterministic (submission)
        order.  Never blocks."""
        self._promote_retries()
        if not self.inline:
            self._harvest_flights()
        ready, self._ready = self._ready, []
        return ready

    def wait(self) -> list[JobOutcome]:
        """:meth:`poll`, after blocking until a flight finishes, a new
        lane has started, or the nearest deadline passes.

        Blocks on the flights' futures, bounded by the nearest deadline —
        never on a fixed sleep — so it is for callers on the real clock.
        May return ``[]``: when only a lane's start-up ended, and at once
        when nothing is in flight (retries still waiting out their backoff
        are the caller's to pace), so callers loop on :meth:`pending`.
        """
        outcomes = self.poll()
        if outcomes or not self._flights:
            return outcomes
        deadlines = [
            f.deadline for f in self._flights if f.deadline is not None
        ]
        concurrent.futures.wait(
            [f.ready or f.future for f in self._flights],
            timeout=(
                max(0.0, min(deadlines) - self._clock()) if deadlines else None
            ),
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return self.poll()

    def _promote_retries(self) -> None:
        now = self._clock()
        for retry in [r for r in self._retries if r.not_before <= now]:
            if not self.inline and len(self._flights) >= self.workers:
                break
            self._retries.remove(retry)
            self._start(
                _Flight(
                    job_id=retry.job_id,
                    config=retry.config,
                    attempts=retry.attempts + 1,
                )
            )

    def _harvest_flights(self) -> None:
        now = self._clock()
        for flight in list(self._flights):
            future = flight.future
            assert future is not None
            if future.done():
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    self.stats.worker_deaths += 1
                    result = self._lose_lane(
                        flight, ERROR_WORKER_DEATH, "worker died"
                    )
                elif exc is not None:
                    # A raising run_fn (run_scenario_safe never raises, but
                    # an injected one might): treated like any failed
                    # attempt, on a lane that stays healthy.
                    result = self._failed(
                        flight, type(exc).__name__, str(exc)
                    )
                else:
                    result = future.result()
            elif flight.ready is not None:
                if flight.ready.done() or now > flight.deadline:
                    # The lane has started (or is past the start-up
                    # limit): the job's own deadline starts now.
                    flight.ready = None
                    flight.deadline = now + self.timeout
                continue
            elif flight.deadline is not None and now > flight.deadline:
                self.stats.timeouts += 1
                result = self._lose_lane(
                    flight,
                    ERROR_TIMEOUT,
                    f"no heartbeat within {self.timeout}s",
                )
            else:
                continue
            self._flights.remove(flight)
            self._settle(flight, result)

    def _lose_lane(
        self, flight: _Flight, error_type: str, what: str
    ) -> FailedRun:
        """Kill the flight's lane worker (a hung one must not keep running;
        a dead one is reaped) and charge the flight alone."""
        self._close_lane(flight.lane, kill=True)
        return self._failed(
            flight, error_type, f"{what} (attempt {flight.attempts})"
        )

    @staticmethod
    def _failed(flight: _Flight, error_type: str, message: str) -> FailedRun:
        return FailedRun(
            scenario=flight.config.name,
            policy=flight.config.policy,
            seed=flight.config.seed,
            error_type=error_type,
            error_message=message,
        )

    # -- settle / retry / quarantine ---------------------------------------

    def _settle(
        self, flight: _Flight, result: RunSummary | FailedRun
    ) -> None:
        if isinstance(result, RunSummary):
            self.stats.completed += 1
            self._ready.append(
                JobOutcome(
                    job_id=flight.job_id,
                    result=result,
                    attempts=flight.attempts,
                )
            )
            return
        if flight.attempts < self.max_attempts:
            self.stats.retries += 1
            delay = self._backoff_for(flight.job_id)[flight.attempts - 1]
            self._retries.append(
                _Retry(
                    job_id=flight.job_id,
                    config=flight.config,
                    attempts=flight.attempts,
                    not_before=self._clock() + delay,
                )
            )
            return
        self.stats.failed += 1
        self.stats.quarantined += 1
        quarantine = self._quarantine(flight, result)
        self._ready.append(
            JobOutcome(
                job_id=flight.job_id,
                result=result.replace_attempts(flight.attempts),
                attempts=flight.attempts,
                quarantine=quarantine,
            )
        )

    def _backoff_for(self, job_id: str) -> list[float]:
        """The job's full seeded retry schedule (deterministic per job)."""
        return backoff_delays(
            derive_seed(self._seed, "service.backoff", job_id),
            max(1, self.max_attempts - 1),
            base=self._backoff_base,
            cap=self._backoff_cap,
        )

    def _quarantine(self, flight: _Flight, failure: FailedRun) -> str:
        """Write a poison job as a chaos-corpus reproducer; returns path."""
        if self._quarantine_dir is None:
            return ""
        from repro.chaos.corpus import make_entry, write_entry
        from repro.chaos.oracles import ORACLE_CRASH, OracleFailure

        entry = make_entry(
            flight.config,
            OracleFailure(
                oracle=ORACLE_CRASH,
                detail=(
                    f"service job {flight.job_id} poisoned after "
                    f"{flight.attempts} attempts: {failure.error_message}"
                ),
                invariant=failure.error_type,
            ),
        )
        try:
            return str(write_entry(self._quarantine_dir, entry))
        except OSError as exc:
            # Quarantine is diagnostics; a full disk must not turn a
            # cleanly-failed job into a crashed service.
            return f"unwritable: {exc}"
