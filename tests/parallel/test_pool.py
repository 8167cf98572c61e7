"""Supervised worker lanes: the spawn start method, input-order results
inline and across lanes, and failure containment."""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.parallel.supervisor import (
    WorkerSupervisor,
    _pool_context,
    default_workers,
)
from repro.reports.summary import RunSummary


def test_default_workers_positive():
    assert default_workers() >= 1


def test_pool_uses_spawn_start_method():
    # Workers must not inherit forked parent state (macOS/Windows parity).
    assert _pool_context().get_start_method() == "spawn"


# -- failure containment -----------------------------------------------------
# These drive the supervisor the way a sweep does: two lanes, one
# attempt per job unless a test asks for more.  Everything below is
# module-level and light to import, because every spawn worker imports this
# module to find `act`.


@dataclass(frozen=True)
class Job:
    """What the supervisor needs of a config, plus what `act` should do."""

    name: str  # the tag: "hang", "kill", "die-*", or a plain label
    delay: float = 0.0  # seconds `act` sleeps before acting
    policy: str = "fifo"
    seed: int = 0


def act(job: Job) -> RunSummary:
    """Sleeps, then hangs, SIGKILLs its own worker, or logs one line.

    The log file counts executions.  ``die-*`` jobs die on their first
    execution only (a marker file), so a retry succeeds.
    """
    logdir = os.environ["REPRO_LANE_TEST_DIR"]
    time.sleep(job.delay)
    if job.name == "hang":
        time.sleep(60.0)
    marker = os.path.join(logdir, f"{job.name}.died")
    if job.name == "kill" or (
        job.name.startswith("die") and not os.path.exists(marker)
    ):
        with open(marker, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    with open(
        os.path.join(logdir, f"{job.name}.log"), "a", encoding="utf-8"
    ) as fh:
        fh.write(f"{os.getpid()}\n")
    return RunSummary(
        scenario=job.name, policy=job.policy, seed=job.seed, sim_time=1.0,
        initial_copies=1, buffer_bytes=1, interval_range=(1.0, 1.0),
        created=0, delivered=0, relayed=0, delivery_ratio=0.0,
        average_hopcount=0.0, overhead_ratio=0.0, average_latency=0.0,
    )


@pytest.fixture
def lane_dir(tmp_path, monkeypatch):
    # Spawn workers inherit the environment, so `act` finds its log dir.
    monkeypatch.setenv("REPRO_LANE_TEST_DIR", str(tmp_path))
    return tmp_path


def supervise(jobs, *, workers=2, timeout=None, max_attempts=1):
    """Runs *jobs* on *workers* lanes (0: inline); returns (outcomes in
    input order, stats)."""
    sup = WorkerSupervisor(
        workers, run_fn=act, timeout=timeout, max_attempts=max_attempts,
        backoff_base=0.0,
    )
    outcomes = {}
    try:
        for i, job in enumerate(jobs):
            while not sup.has_capacity():
                outcomes.update((o.job_id, o) for o in sup.wait())
            sup.submit(str(i), job)
        while sup.pending():
            outcomes.update((o.job_id, o) for o in sup.wait())
    finally:
        sup.shutdown()
    return [outcomes[str(i)] for i in range(len(jobs))], sup.stats


def verdicts(outcomes):
    """Each job's tag when it completed, else its error type."""
    return [
        o.result.scenario
        if isinstance(o.result, RunSummary)
        else o.result.error_type
        for o in outcomes
    ]


def runs(logdir):
    """Completed executions per tag."""
    return {
        log.stem: len(log.read_text(encoding="utf-8").splitlines())
        for log in logdir.glob("*.log")
    }


def test_serial_path(lane_dir, monkeypatch):
    # No lanes: every job runs inline, once, and starts no worker.
    import repro.parallel.supervisor as supervisor_module

    def no_lanes(*args, **kwargs):
        raise AssertionError("an inline supervisor started a worker")

    monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", no_lanes)
    outcomes, _ = supervise([Job("a"), Job("b"), Job("c")], workers=0)
    assert verdicts(outcomes) == ["a", "b", "c"]
    assert runs(lane_dir) == {"a": 1, "b": 1, "c": 1}


def test_parallel_matches_serial_order(lane_dir):
    # Earlier jobs sleep longer, so the two lanes finish out of input
    # order; the outcomes still come back in it, equal to the inline run.
    jobs = [Job(f"j{i}", delay=0.05 * (5 - i), seed=i) for i in range(6)]
    serial, _ = supervise(jobs, workers=0)
    parallel, _ = supervise(jobs, workers=2)
    def ran(outcomes):
        return [(o.result.scenario, o.result.seed) for o in outcomes]

    assert ran(parallel) == ran(serial)
    assert ran(serial) == [(job.name, job.seed) for job in jobs]


class TestTimeout:
    def test_hung_item_becomes_error_and_rest_complete(self, lane_dir):
        outcomes, stats = supervise(
            [Job("a"), Job("hang"), Job("b")], timeout=3.0
        )
        assert verdicts(outcomes) == ["a", "WorkerTimeout", "b"]
        assert stats.timeouts == 1
        assert runs(lane_dir) == {"a": 1, "b": 1}

    def test_cold_lanes_start_together(self, lane_dir):
        # A submit to a cold lane does not wait for its worker to spawn and
        # import `act`: both lanes start at once, so no job has run when
        # the second submit returns.  Waiting on each start-up in turn
        # would have run the first job while the second lane started.
        sup = WorkerSupervisor(2, run_fn=act, timeout=30.0, max_attempts=1)
        outcomes = []
        try:
            sup.submit("0", Job("a"))
            sup.submit("1", Job("b"))
            assert runs(lane_dir) == {}
            while sup.pending():
                outcomes += sup.wait()
        finally:
            sup.shutdown()
        assert sorted(verdicts(outcomes)) == ["a", "b"]
        assert runs(lane_dir) == {"a": 1, "b": 1}


class TestWorkerDeath:
    def test_dead_worker_becomes_error_and_rest_complete(self, lane_dir):
        outcomes, stats = supervise(
            [Job("a"), Job("kill"), Job("b"), Job("c")]
        )
        # One process per lane: the death is charged to its own job only.
        assert verdicts(outcomes) == ["a", "WorkerDeath", "b", "c"]
        assert stats.worker_deaths == 1


class TestHarvestAfterWorkerDeath:
    def test_completed_items_harvested_not_recomputed(self, lane_dir):
        # One lane sleeps 2s then SIGKILLs its worker; the other lane
        # meanwhile finishes a, b and c.  None of them may run again.
        outcomes, _ = supervise(
            [Job("a"), Job("kill", 2.0), Job("b"), Job("c")]
        )
        assert verdicts(outcomes) == ["a", "WorkerDeath", "b", "c"]
        assert runs(lane_dir) == {"a": 1, "b": 1, "c": 1}

    def test_other_lane_item_completes_once_uncharged(self, lane_dir):
        # The SIGKILL lands while d is still running on the other lane: d
        # completes exactly once and is charged no attempt.
        outcomes, _ = supervise([Job("kill", 0.5), Job("d", 2.0)])
        assert verdicts(outcomes) == ["WorkerDeath", "d"]
        assert outcomes[1].attempts == 1
        assert runs(lane_dir) == {"d": 1}


class TestTwoDeathsSameGeneration:
    def test_two_workers_dying_together_cost_two_rebuilds_not_the_map(
        self, lane_dir
    ):
        """Both lanes' first jobs die at once.

        Each death is charged to its own job and replaces its own lane; the
        retries and the jobs behind them lose, duplicate and reorder
        nothing: every job completes exactly once, in its slot.
        """
        outcomes, stats = supervise(
            [Job("die-a"), Job("die-b"), Job("c"), Job("d")], max_attempts=2
        )
        assert verdicts(outcomes) == ["die-a", "die-b", "c", "d"]
        assert [o.attempts for o in outcomes] == [2, 2, 1, 1]
        assert stats.worker_deaths == 2
        assert runs(lane_dir) == {"die-a": 1, "die-b": 1, "c": 1, "d": 1}
