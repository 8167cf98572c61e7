"""Sweep engine: replication, ordering, aggregation."""

from __future__ import annotations

import json
import math

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import (
    ScenarioConfig,
    random_waypoint_scenario,
    scale_scenario,
)
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.reports.summary import FailedRun, RunSummary


def tiny(**kw):
    cfg = scale_scenario(
        random_waypoint_scenario(policy="fifo"), node_factor=0.08,
        time_factor=0.04,
    )
    return cfg.replace(**kw) if kw else cfg


class TestReplicate:
    def test_seeds_differ_and_are_stable(self):
        reps1 = replicate(tiny(), 4)
        reps2 = replicate(tiny(), 4)
        seeds1 = [c.seed for c in reps1]
        assert len(set(seeds1)) == 4
        assert seeds1 == [c.seed for c in reps2]

    def test_other_fields_unchanged(self):
        for rep in replicate(tiny(), 3):
            assert rep.policy == "fifo"
            assert rep.n_nodes == tiny().n_nodes


class TestRunMany:
    def test_results_in_input_order(self):
        configs = [tiny(seed=s) for s in (5, 6, 7)]
        results = run_many(configs, workers=1)
        assert [r.seed for r in results] == [5, 6, 7]

    def test_serial_equals_itself(self):
        configs = replicate(tiny(), 2)
        a = run_many(configs, workers=1)
        b = run_many(configs, workers=1)
        assert [r.delivered for r in a] == [r.delivered for r in b]

    def test_empty_input(self):
        assert run_many([], workers=4) == []

    def test_single_config_runs_inline(self, monkeypatch):
        # One config to run starts no worker, however many are allowed.
        import repro.parallel.supervisor as supervisor_module

        def no_lanes(*args, **kwargs):
            raise AssertionError("a one-config sweep started a worker")

        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", no_lanes)
        [result] = run_many([tiny(seed=5)], workers=8)
        assert isinstance(result, RunSummary) and result.seed == 5

    def test_serial_sweep_honours_timeout(self):
        # Only killing its worker stops a hung run, so a timeout puts even
        # a serial sweep on a lane.  A million simulated seconds cannot
        # finish within 0.05 s of the lane being ready.
        [result] = run_many([tiny(seed=5, sim_time=1e6)], workers=1,
                            timeout=0.05)
        assert isinstance(result, FailedRun)
        assert result.error_type == "WorkerTimeout"

    def test_lane_start_up_is_not_charged_to_the_timeout(self):
        # Spawning a lane's worker and importing the runner takes most of a
        # second; the run itself, a few milliseconds.  The deadline starts
        # once the lane is ready, so the run completes.
        cfg = ScenarioConfig(name="cold-lane", n_nodes=6, sim_time=60.0,
                             policy="fifo", router="snw", seed=1)
        [result] = run_many([cfg], workers=1, timeout=0.5)
        assert isinstance(result, RunSummary)


class TestSummarize:
    def test_mean_over_metric(self):
        summaries = run_many(replicate(tiny(), 3), workers=1)
        mean = summarize_replicates(summaries, "delivery_ratio")
        expected = sum(s.delivery_ratio for s in summaries) / 3
        assert mean == expected

    def test_nan_values_skipped(self):
        # A run with zero deliveries has NaN overhead; it must not poison
        # the mean.
        s1 = run_scenario(tiny(seed=1))
        values = [s1, s1]
        got = summarize_replicates(values, "overhead_ratio")
        if math.isnan(s1.overhead_ratio):
            assert math.isnan(got)
        else:
            assert got == s1.overhead_ratio


class TestBackoff:
    def test_delays_are_deterministic_per_seed(self):
        from repro.experiments.sweep import backoff_delays

        assert backoff_delays(7, 5) == backoff_delays(7, 5)
        assert backoff_delays(7, 5) != backoff_delays(8, 5)

    def test_equal_jitter_windows_and_cap(self):
        from repro.experiments.sweep import (
            BACKOFF_BASE, BACKOFF_CAP, backoff_delays,
        )

        delays = backoff_delays(3, 10)
        for k, delay in enumerate(delays, start=1):
            window = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (k - 1))
            assert window / 2 <= delay <= window
        assert max(delays) <= BACKOFF_CAP

    def test_base_scales_the_schedule(self):
        from repro.experiments.sweep import backoff_delays

        halved = backoff_delays(3, 4, base=0.25)
        full = backoff_delays(3, 4, base=0.5)
        for a, b in zip(halved, full):
            assert a == b / 2  # same jitter draw, scaled window


class TestBackoffEdges:
    def test_zero_attempts_is_empty(self):
        from repro.experiments.sweep import backoff_delays

        assert backoff_delays(7, 0) == []

    def test_zero_base_yields_all_zero_delays(self):
        from repro.experiments.sweep import backoff_delays

        assert backoff_delays(7, 5, base=0.0) == [0.0] * 5

    def test_cap_below_base_caps_every_window(self):
        from repro.experiments.sweep import backoff_delays

        delays = backoff_delays(7, 6, base=10.0, cap=1.0)
        for delay in delays:
            assert 0.5 <= delay <= 1.0  # equal jitter inside [cap/2, cap]

    def test_jitter_is_the_seeded_stream_exactly(self):
        # The jitter draws come from RngFactory(seed).stream("sweep.backoff")
        # and nowhere else: reconstructing them reproduces the schedule to
        # the bit.
        from repro.experiments.sweep import backoff_delays
        from repro.rng import RngFactory

        stream = RngFactory(11).stream("sweep.backoff")
        expected = []
        for k in range(1, 5):
            window = min(30.0, 0.5 * 2.0 ** (k - 1))
            expected.append(window * (0.5 + 0.5 * float(stream.random())))
        assert backoff_delays(11, 4) == expected


class TestRetries:
    def test_a_resumed_run_is_the_declared_run(self, tmp_path, monkeypatch):
        # One config's first attempt fails.  Its retry reruns the same
        # config, so the summary returned, and stored under that config's
        # fingerprint, ran at the config's own seed; a second sweep over
        # the store then computes nothing and returns the same records.
        import repro.experiments.sweep as sweep_module
        from repro.experiments.checkpoint import RunStore, config_fingerprint

        ok, bad = tiny(seed=3), tiny(seed=4)
        calls = []

        def first_bad_attempt_dies(cfg):
            calls.append(cfg)
            if cfg == bad and calls.count(bad) == 1:
                return FailedRun(
                    scenario=cfg.name, policy=cfg.policy, seed=cfg.seed,
                    error_type="Boom", error_message="first attempt dies",
                )
            return run_scenario(cfg)

        monkeypatch.setattr(
            sweep_module, "run_scenario_safe", first_bad_attempt_dies
        )
        store = tmp_path / "store"
        results = run_many([ok, bad], workers=1, retries=1,
                           checkpoint=str(store))
        assert calls == [ok, bad, bad]
        assert isinstance(results[1], RunSummary)
        assert results[1].seed == bad.seed
        stored = RunStore(store).cache.get(config_fingerprint(bad))
        assert stored is not None and stored.seed == bad.seed

        calls.clear()
        again = run_many([ok, bad], workers=1, retries=1,
                         checkpoint=str(store))
        assert calls == []
        assert [json.dumps(r.record()) for r in again] == [
            json.dumps(r.record()) for r in results
        ]
