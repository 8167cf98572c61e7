"""Benchmark-suite configuration.

Simulation benchmarks run exactly once (``rounds=1``) — a DTN run is
deterministic given its seed, and the interesting output is the *figure
data*, which each benchmark prints and also appends to
``benchmarks/results/bench_results.json`` so EXPERIMENTS.md can be refreshed
from a single bench run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_collected: dict[str, object] = {}


@pytest.fixture()
def record_figure():
    """Store one figure's series for the end-of-session JSON dump."""

    def _record(key: str, payload: object) -> None:
        _collected[key] = payload

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _collected:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "bench_results.json"
        merged: dict[str, object] = {}
        if out.exists():  # partial sessions accumulate into one record
            try:
                merged = json.loads(out.read_text())
            except ValueError:
                merged = {}
        merged.update(_collected)
        with out.open("w") as fh:
            json.dump(merged, fh, indent=2, default=str)


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of *repeats* calls (noise-robust point estimate
    for the speedup-ratio figures)."""
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
