"""Child process of the perf benchmark: build and run scenario instances.

``python3 benchmarks/perf/worker.py WORKLOAD MODE SEED FIRST BUDGET WARMUP``
builds and runs instances ``FIRST, FIRST + 1, ...`` of a run with seed
SEED, one after another, while the next one is expected to end within
BUDGET seconds of the first build (always at least one), and prints one
JSON line.  MODE is ``plain``, ``traced`` (outside-in tracer attached, see
tracer.py) or ``profiled`` (``ScenarioConfig.profile=True``).  With
WARMUP ``1`` the process first runs a quarter of its first instance
untimed, so the timed instances all run in a warm interpreter.  Running
several instances in one process pays the imports once; ``run.py`` starts
a few such processes per run, so set-up time and peak memory are still
measured several times.

Each instance runs in :data:`SLICES` slices of simulated time with the
fixed :func:`calibration_kernel` timed before the first slice and after
every slice.  The kernel's mean time over an instance says how fast the
machine was while the instance ran, so ``scaled_s`` (the instance's wall
time read at the kernel speed :data:`CALIBRATION_S`) stays put when the
machine's speed drifts.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy

from tracer import Tracer
from workloads import instance_seed, scenario

SRC = Path(__file__).resolve().parents[2] / "src"

MODES = ("plain", "traced", "profiled")
#: Slices of simulated time per instance, each followed by the kernel.
SLICES = 40
#: Time of one :func:`calibration_kernel` call on a quiet 2-core Xeon VM;
#: scaled times read as seconds on a machine that runs the kernel this fast.
CALIBRATION_S = 0.005
_POINTS = numpy.random.default_rng(7).random((64, 2))


class _Item:
    __slots__ = ("key", "index")

    def __init__(self, key: int, index: int) -> None:
        self.key = key
        self.index = index

    def rank(self) -> int:
        return self.key * 31 + self.index


def calibration_kernel() -> int:
    """Fixed work of the simulator's kinds (objects, a heap, a dict, small
    NumPy arrays) that no change to the simulator touches."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(x % 1000, i)
        heapq.heappush(heap, (item.rank(), i))
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    for _ in range(20):
        diff = _POINTS[:, None, :] - _POINTS[None, :, :]
        total += int(((diff * diff).sum(-1) < 0.01).sum())
    return total


def calibrate() -> float:
    """Seconds one kernel call takes now.  The collector is off during the
    call: a full collection over the simulation's objects would otherwise
    land in the kernel's time."""
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _plain(value: Any) -> Any:
    """JSON-comparable form: tuples become lists, NaN becomes None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def comparable_summary(summary: Any) -> dict[str, Any]:
    """Every ``RunSummary`` field except the wall-clock ones."""
    record = summary.record()
    del record["wall_seconds"], record["profile"]
    return _plain(record)


def run_instance(workload: str, seed: int, mode: str) -> dict[str, Any]:
    """Build and run one instance in this process.

    ``wall_s`` is the time of the simulation slices and ``scaled_s`` that
    time at the kernel speed :data:`CALIBRATION_S`.  ``ready_at`` is the
    ``time.monotonic()`` reading once the scenario is built; for the first
    instance of a process, the parent subtracts its own reading taken just
    before it started the process, which gives the set-up time.  ``main``
    adds ``reference_at`` the same way for the reference work.
    """
    from repro.experiments.runner import build_scenario, run_built

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    config = scenario(workload, seed)
    if mode == "profiled":
        config = config.replace(profile=True)
    tracer = Tracer() if mode == "traced" else None
    with tracer.class_hooks() if tracer is not None else nullcontext():
        built = build_scenario(config)
        if tracer is not None:
            tracer.attach(built)
        ready_at = time.monotonic()
        kernel_s = [calibrate()]
        wall_s = 0.0
        for k in range(1, SLICES + 1):
            start = time.perf_counter()
            built.sim.run(until=config.sim_time * k / SLICES if k < SLICES else None)
            wall_s += time.perf_counter() - start
            kernel_s.append(calibrate())
        summary = run_built(built)
    events = built.sim.events_processed
    kernel = statistics.fmean(kernel_s)
    result: dict[str, Any] = {
        "seed": seed,
        "summary": comparable_summary(summary),
        "wall_s": wall_s,
        "kernel_s": kernel,
        "scaled_s": wall_s * CALIBRATION_S / kernel,
        "ticks": config.sim_time / config.tick,
        "ready_at": ready_at,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s, events)
    return result


def warm_up(workload: str, seed: int) -> float:
    """Build instance *seed* and run a quarter of it, untimed and unchecked;
    the ``time.monotonic()`` reading once it is built."""
    from repro.experiments.runner import build_scenario

    config = scenario(workload, seed)
    built = build_scenario(config)
    ready_at = time.monotonic()
    built.sim.run(until=config.sim_time / 4)
    built.world.close()
    return ready_at


def main(argv: list[str]) -> None:
    # The reference work: interpreter start-up and the NumPy (imported
    # above) and SciPy imports, which no change to the simulator can speed
    # up or slow down.
    import scipy.spatial  # noqa: F401

    reference_at = time.monotonic()
    workload, mode, seed, first, budget, warmup = argv
    sys.path.insert(0, str(SRC))
    ready_at = None
    if warmup == "1":
        ready_at = warm_up(workload, instance_seed(int(seed), int(first)))
        for _ in range(3):
            calibrate()
    start = time.monotonic()
    instances = [run_instance(workload, instance_seed(int(seed), int(first)), mode)]
    if ready_at is None:
        ready_at = instances[0]["ready_at"]
    # Continue while one more instance of average length still fits.
    while (time.monotonic() - start) * (len(instances) + 1) / len(instances) <= float(budget):
        index = int(first) + len(instances)
        instances.append(run_instance(workload, instance_seed(int(seed), index), mode))
    print(json.dumps({
        "instances": instances,
        "ready_at": ready_at,
        "reference_at": reference_at,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
