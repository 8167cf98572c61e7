"""Process-pool map: ordering, serial/parallel equivalence; supervised
lanes: failure containment."""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.parallel.pool import _pool_context, default_workers, parallel_map
from repro.parallel.supervisor import WorkerSupervisor
from repro.reports.summary import RunSummary


def square(x: int) -> int:
    return x * x


def flaky(x: int) -> int:
    """Raises on negative inputs (picklable, for spawn workers)."""
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x * x


def test_serial_path():
    assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]


def test_empty_input():
    assert parallel_map(square, [], workers=4) == []


def test_single_item_runs_inline():
    assert parallel_map(square, [7], workers=8) == [49]


def test_parallel_matches_serial_order():
    items = list(range(20))
    serial = parallel_map(square, items, workers=1)
    parallel = parallel_map(square, items, workers=2)
    assert serial == parallel


def test_default_workers_positive():
    assert default_workers() >= 1


def test_pool_uses_spawn_start_method():
    # Workers must not inherit forked parent state (macOS/Windows parity).
    assert _pool_context().get_start_method() == "spawn"


class TestOnError:
    def test_without_on_error_exceptions_propagate(self):
        with pytest.raises(ValueError):
            parallel_map(flaky, [2, -3, 4], workers=1)
        with pytest.raises(ValueError):
            parallel_map(flaky, [2, -3, 4], workers=2)


# -- supervised lanes --------------------------------------------------------
# Failure containment is the supervisor's job (parallel_map has none); these
# drive it the way a sweep round does: two lanes, one attempt per job unless
# a test asks for more.  Everything below is module-level and light to
# import, because every spawn worker imports this module to find `act`.


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


def supervise(jobs, *, timeout=None, max_attempts=1):
    """Runs *jobs* on two lanes; returns (outcomes in input order, stats)."""
    sup = WorkerSupervisor(
        2, run_fn=act, timeout=timeout, max_attempts=max_attempts,
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


class TestTimeout:
    def test_hung_item_becomes_error_and_rest_complete(self, lane_dir):
        outcomes, stats = supervise(
            [Job("a"), Job("hang"), Job("b")], timeout=3.0
        )
        assert verdicts(outcomes) == ["a", "WorkerTimeout", "b"]
        assert stats.timeouts == 1
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

    def test_retry_seeds_for_crashed_items_are_fresh_and_distinct(self):
        """The sweep's retry convention: each crashed item retries under a
        derived seed, so two items dying in the same generation never
        retry correlated."""
        from repro.rng import derive_seed

        base_a, base_b = 101, 202
        retry_a = [derive_seed(base_a, "retry", k) for k in (1, 2)]
        retry_b = [derive_seed(base_b, "retry", k) for k in (1, 2)]
        all_seeds = [base_a, base_b, *retry_a, *retry_b]
        assert len(set(all_seeds)) == len(all_seeds)
        # Deterministic: the same crash replays the same retry schedule.
        assert retry_a == [derive_seed(base_a, "retry", k) for k in (1, 2)]
