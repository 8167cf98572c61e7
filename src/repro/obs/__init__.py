"""Observability: time-series metrics, event tracing, profiling hooks.

Scrape-free observers: collectors on the simulator's listener registry
(:mod:`repro.engine.hooks`) and timing wrappers the scenario builder
installs from outside.  Everything in this package is strictly
*observation-only*: attaching any combination of collectors to a run must
not change a single simulation outcome (enforced by
``tests/obs/test_observation_only.py``).

* :class:`~repro.obs.timeseries.TimeSeriesCollector` — counters, gauges and
  histograms sampled on a fixed simulated-time cadence (delivery ratio so
  far, fleet/per-node buffer occupancy, live spray copies, drops by reason,
  transfer throughput, fault events), exportable as JSON or CSV.
* :class:`~repro.obs.trace.EventTrace` — a bounded ring buffer of structured
  engine events (``message.*``, ``transfer.*``, ``link.*``, ``fault.*``)
  with sim-time stamps, dumpable as JSONL and re-parseable with
  :func:`~repro.obs.trace.read_trace_jsonl`.
* :class:`~repro.obs.profiler.PhaseProfiler` — per-subsystem wall-time
  accounting (movement, contact detection, routing, policy decisions,
  transfers) through timing wrappers, surfaced in
  :class:`~repro.reports.summary.RunSummary`.

See ``docs/observability.md`` for schemas and overhead numbers.
"""
