"""Worker supervisor: retries, heartbeat timeouts, kills, quarantine."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.chaos.corpus import load_entry
from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.parallel.supervisor import (
    ERROR_TIMEOUT,
    ERROR_WORKER_DEATH,
    WorkerSupervisor,
    backoff_delays,
)
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import derive_seed


def config(seed=1, **kw):
    return ScenarioConfig(
        name="svc-test", n_nodes=4, sim_time=20.0, policy="fifo",
        router="snw", seed=seed, **kw,
    )


def fake_summary(seed=1):
    """A cheap deterministic RunSummary (no simulator run)."""
    cfg = config(seed=seed)
    return RunSummary(
        scenario=cfg.name, policy=cfg.policy, seed=cfg.seed,
        sim_time=cfg.sim_time, initial_copies=cfg.initial_copies,
        buffer_bytes=cfg.buffer_bytes, interval_range=cfg.interval_range,
        created=10, delivered=7, relayed=20, delivery_ratio=0.7,
        average_hopcount=1.5, overhead_ratio=2.0, average_latency=30.0,
    )


def failed(cfg, kind="Boom"):
    return FailedRun(
        scenario=cfg.name, policy=cfg.policy, seed=cfg.seed,
        error_type=kind, error_message="injected failure",
    )


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestInline:
    def test_success_settles_immediately(self):
        sup = WorkerSupervisor(0, run_fn=lambda c: fake_summary(c.seed))
        sup.submit("j1", config())
        outcomes = sup.poll()
        assert [o.job_id for o in outcomes] == ["j1"]
        assert isinstance(outcomes[0].result, RunSummary)
        assert outcomes[0].attempts == 1
        assert sup.pending() == 0

    def test_failure_retries_after_seeded_backoff(self):
        clock = FakeClock()
        calls = []

        def flaky(cfg):
            calls.append(cfg.seed)
            return failed(cfg) if len(calls) == 1 else fake_summary(cfg.seed)

        sup = WorkerSupervisor(
            0, run_fn=flaky, max_attempts=2, seed=9,
            backoff_base=0.5, backoff_cap=2.0, clock=clock.now,
        )
        sup.submit("j1", config(seed=4))
        assert sup.poll() == []  # first attempt failed; retry scheduled
        delay = backoff_delays(
            derive_seed(9, "service.backoff", "j1"), 1, base=0.5, cap=2.0
        )[0]
        clock.advance(delay * 0.99)
        assert sup.poll() == []  # backoff not elapsed: deterministic wait
        clock.advance(delay * 0.02)
        outcomes = sup.poll()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].result, RunSummary)
        assert outcomes[0].attempts == 2
        # Cache soundness: the retry reran the byte-exact same config
        # (same seed), never a mutated one.
        assert calls == [4, 4]
        assert sup.stats.retries == 1

    def test_poison_job_is_quarantined_as_a_corpus_entry(self, tmp_path):
        sup = WorkerSupervisor(
            0, run_fn=failed, max_attempts=2, backoff_base=0.0,
            quarantine_dir=tmp_path, clock=FakeClock().now,
        )
        sup.submit("j1", config(seed=5))  # attempt 1 fails, retry at t+0
        outcomes = sup.poll()  # retry due immediately; attempt 2 exhausts
        assert len(outcomes) == 1
        result = outcomes[0].result
        assert isinstance(result, FailedRun)
        assert result.attempts == 2
        assert outcomes[0].quarantine
        entry = load_entry(outcomes[0].quarantine)
        assert entry["failure"]["invariant"] == "Boom"
        assert "j1" in entry["failure"]["detail"]
        assert sup.stats.quarantined == 1

    def test_dead_supervisor_refuses_work(self):
        sup = WorkerSupervisor(0, run_fn=lambda c: fake_summary())
        sup.mark_dead()
        assert not sup.has_capacity()
        with pytest.raises(ConfigurationError):
            sup.submit("j1", config())

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkerSupervisor(0, run_fn=quick_summary, max_attempts=0)

    def test_backoff_schedule_is_deterministic_per_job(self):
        sup = WorkerSupervisor(
            0, run_fn=quick_summary, seed=7, max_attempts=4
        )
        expected = backoff_delays(
            derive_seed(7, "service.backoff", "jX"), 3,
            base=0.05, cap=2.0,
        )
        assert sup._backoff_for("jX") == expected
        assert sup._backoff_for("jX") != sup._backoff_for("jY")


# -- process mode ------------------------------------------------------------
# run_fns must be module-level (spawn workers unpickle them by qualname).


def sleep_once_then_summary(cfg):
    """Sleeps long on the first attempt (marker file), fast after."""
    marker = Path(os.environ["REPRO_SERVICE_TEST_DIR"]) / f"ran-{cfg.seed}"
    if not marker.exists():
        marker.write_text("1", encoding="utf-8")
        time.sleep(60.0)
    return fake_summary(cfg.seed)


def hang_forever(cfg):
    time.sleep(60.0)
    return fake_summary(cfg.seed)


def quick_summary(cfg):
    return fake_summary(cfg.seed)


def die(cfg):
    os._exit(1)  # hard worker death, not an exception


def wait_for(sup, n, budget=30.0):
    """Real-time poll loop until *n* outcomes arrive (process mode)."""
    outcomes = []
    deadline = time.perf_counter() + budget
    while len(outcomes) < n and time.perf_counter() < deadline:
        outcomes.extend(sup.poll())
        if len(outcomes) < n:
            time.sleep(0.05)
    return outcomes


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestProcessMode:
    def test_runs_jobs_on_workers(self):
        sup = WorkerSupervisor(2, run_fn=quick_summary)
        try:
            sup.submit("j1", config(seed=1))
            sup.submit("j2", config(seed=2))
            outcomes = wait_for(sup, 2)
            assert sorted(o.job_id for o in outcomes) == ["j1", "j2"]
            assert all(isinstance(o.result, RunSummary) for o in outcomes)
        finally:
            sup.shutdown()

    def test_sigkilled_worker_is_detected_and_job_retried(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_TEST_DIR", str(tmp_path))
        sup = WorkerSupervisor(
            1, run_fn=sleep_once_then_summary, max_attempts=2,
            backoff_base=0.0,
        )
        try:
            sup.submit("j1", config(seed=6))
            # Wait until the worker has started the job (marker exists),
            # then SIGKILL it mid-run.
            deadline = time.perf_counter() + 15.0
            while (
                not (tmp_path / "ran-6").exists()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.05)
            assert (tmp_path / "ran-6").exists()
            killed = sup.kill_worker(0)
            assert killed is not None
            outcomes = wait_for(sup, 1)
            assert len(outcomes) == 1
            assert isinstance(outcomes[0].result, RunSummary)
            assert outcomes[0].attempts == 2
            assert sup.stats.worker_deaths == 1
            # The retry ran on a replacement worker, not a degraded lane.
            assert sup.worker_pids() and killed not in sup.worker_pids()
            assert sup.healthy
        finally:
            sup.shutdown()

    def test_worker_that_died_idle_is_replaced_on_next_job(self):
        sup = WorkerSupervisor(1, run_fn=quick_summary)
        try:
            sup.submit("j1", config(seed=1))
            assert len(wait_for(sup, 1)) == 1
            idle = sup.kill_worker(0)
            deadline = time.perf_counter() + 5.0
            while pid_alive(idle) and time.perf_counter() < deadline:
                time.sleep(0.05)
            sup.submit("j2", config(seed=2))  # must not raise
            outcomes = wait_for(sup, 1)
            assert isinstance(outcomes[0].result, RunSummary)
            assert outcomes[0].attempts == 1  # no job was charged
            assert sup.stats.worker_deaths == 0
        finally:
            sup.shutdown()

    def test_heartbeat_timeout_is_pure_clock_arithmetic(self):
        # Once the lane has started, the deadline check runs on the
        # injected clock: advancing it past the timeout fails the flight
        # without any real waiting.
        clock = FakeClock()
        sup = WorkerSupervisor(
            1, run_fn=hang_forever, timeout=5.0, max_attempts=1,
            backoff_base=0.0, clock=clock.now,
        )
        try:
            sup.submit("j1", config(seed=8))
            assert sup.wait() == []  # returns once the lane has started
            assert sup.poll() == []  # in flight, not overdue
            clock.advance(5.1)
            outcomes = wait_for(sup, 1, budget=10.0)
            assert len(outcomes) == 1
            result = outcomes[0].result
            assert isinstance(result, FailedRun)
            assert result.error_type == ERROR_TIMEOUT
            assert sup.stats.timeouts == 1
        finally:
            sup.shutdown()

    def test_timed_out_worker_is_killed(self):
        # A hung worker is killed, not abandoned: it must neither keep
        # running nor hold the interpreter at exit.
        clock = FakeClock()
        sup = WorkerSupervisor(
            1, run_fn=hang_forever, timeout=5.0, max_attempts=1,
            clock=clock.now,
        )
        try:
            sup.submit("j1", config(seed=8))
            [hung] = sup.worker_pids()
            assert sup.wait() == []  # returns once the lane has started
            clock.advance(5.1)
            outcomes = wait_for(sup, 1, budget=10.0)
            assert outcomes[0].result.error_type == ERROR_TIMEOUT
            deadline = time.perf_counter() + 5.0
            while pid_alive(hung) and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert not pid_alive(hung)
        finally:
            sup.shutdown()

    def test_worker_death_failure_names_the_attempt(self, tmp_path):
        # A job whose worker dies on its only attempt quarantines with
        # WorkerDeath.
        sup = WorkerSupervisor(
            1, run_fn=die, max_attempts=1, quarantine_dir=tmp_path,
        )
        try:
            sup.submit("j1", config(seed=9))
            outcomes = wait_for(sup, 1, budget=30.0)
            assert len(outcomes) == 1
            result = outcomes[0].result
            assert result.error_type == ERROR_WORKER_DEATH
            assert "(attempt 1)" in result.error_message
            entry = load_entry(outcomes[0].quarantine)
            assert entry["failure"]["invariant"] == ERROR_WORKER_DEATH
            assert sup.stats.worker_deaths == 1
        finally:
            sup.shutdown()


def test_error_worker_death_constant_is_used_for_broken_pools():
    # Sanity: the constant exists and is distinct from the timeout type
    # (the service journal and docs taxonomy rely on both names).
    assert ERROR_WORKER_DEATH == "WorkerDeath"
    assert ERROR_TIMEOUT == "WorkerTimeout"
