#!/usr/bin/env python3
"""Perf benchmark of the SDSRP simulator: end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace {0,1}] [--out PATH] [--write-expected]

It is a closed loop with one client: this process starts one child
process (worker.py) at a time and waits for it, so at most two processes
are alive; a child runs scenario instances one after another.  Per
workload:

* ``--trace 0`` runs distinct instances untraced in two warmed-up
  children for about ``--seconds`` in all, then the first instance again
  in a third, fresh child, and reports the end-to-end metrics
  BENCHMARK.json names (medians over the instances or children, times
  scaled to a reference speed, see worker.py and :data:`REFERENCE_S`);
* ``--trace 1`` runs the first instance three times untraced, once under
  the outside-in tracer and once with the built-in profiler, and reports
  the per-layer metrics;
* no ``--trace`` does both.

Every run's summary is checked: invariants always, the committed summary
under ``expected/`` when one exists for that instance seed, and equality
with every other run of the same instance (so traced and profiled runs
must equal untraced ones).  A failed check or a crashed child counts as a
failed run and makes the exit code 1.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out`` also writes every sample and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

from workloads import SELFTEST, WORKLOADS, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_DIR = HERE / "expected"
#: A child running longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Children of an end-to-end run that each simulate distinct instances for
#: a third of ``--seconds``; one more then repeats the first instance.
BATCH_CHILDREN = 2
#: No child starts once a workload has used this much wall time, so a
#: one-workload invocation ends inside three minutes even on a slow machine.
WORKLOAD_DEADLINE_S = 100.0
#: Untraced runs of the traced instance; their median is the reference
#: for the tracing and profiling overheads.
TRACE_REFERENCE_RUNS = 3
#: Set-up times are scaled to a machine on which a child's reference work
#: (interpreter start-up plus the NumPy and SciPy imports) takes this long,
#: as it does on a quiet 2-core Xeon VM.  The speed of the shared VM the
#: benchmark was built on drifts by 20-30 % over minutes, at times by 2x;
#: the scaled times drift far less (README, "Noise and scaling").
REFERENCE_S = 0.35


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json: metric names, units, bounds and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- child processes -----------------------------------------------------------


def _child_result(command: list[str]) -> tuple[dict[str, Any] | None, str]:
    """Run *command*; its JSON result, or None and what went wrong."""
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exited {proc.returncode}: {last[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "child printed no JSON result"


def run_child(
    workload: str, mode: str, seed: int, first: int, budget: float,
    warmup: bool = False,
) -> dict[str, Any]:
    """Run instances from the *first*-th on in a fresh interpreter,
    after a warm-up if *warmup*.

    Returns the child's ``instances`` (one record each, see worker.py) and
    its ``setup_s``, ``reference_s`` and ``rss_mb``.  A child that
    crashes, times out or prints no result yields a single instance record
    with an ``error`` and no timings.
    """
    command = [
        sys.executable, str(HERE / "worker.py"), workload, mode, str(seed),
        str(first), str(budget), str(int(warmup)),
    ]
    spawned_at = time.monotonic()
    result, error = _child_result(command)
    if result is None:
        return {"mode": mode, "instances": [
            {"seed": instance_seed(seed, first), "mode": mode, "error": error}
        ]}
    for instance in result["instances"]:
        instance["mode"] = mode
        del instance["ready_at"]
    return {
        "mode": mode,
        "instances": result["instances"],
        "setup_s": result["ready_at"] - spawned_at,
        "reference_s": result["reference_at"] - spawned_at,
        "rss_mb": result["rss_mb"],
    }


# -- output checks -------------------------------------------------------------


def invariant_problems(summary: dict[str, Any]) -> list[str]:
    """Relations every run summary must satisfy, whatever the seed."""
    created, delivered = summary["created"], summary["delivered"]
    problems = []
    if created <= 0:
        problems.append("no message was created")
    elif summary["delivery_ratio"] != delivered / created:
        problems.append("delivery_ratio != delivered / created")
    if not 0 <= delivered <= created:
        problems.append(f"delivered={delivered} outside [0, created={created}]")
    if summary["relayed"] < delivered:
        problems.append("fewer relays than deliveries")
    if any(count < 0 for count in summary["drops"].values()):
        problems.append("negative drop count")
    if summary["contacts"] <= 0:
        problems.append("no contact happened")
    return problems


def check_runs(runs: list[dict[str, Any]], expected: dict[str, Any]) -> None:
    """Fill each run's ``problems`` list (empty = the run is correct)."""
    first: dict[int, dict[str, Any]] = {}
    for run in runs:
        problems = run["problems"] = []
        if "error" in run:
            problems.append(run["error"])
            continue
        summary = run["summary"]
        problems.extend(invariant_problems(summary))
        want = expected.get(str(run["seed"]))
        if want is not None and summary != want:
            problems.append("summary differs from the committed expected one")
        if summary != first.setdefault(run["seed"], summary):
            problems.append("summary differs from an earlier run of this instance")


def load_expected(directory: Path, workload: str) -> dict[str, Any]:
    """Committed summaries of *workload*, keyed by instance seed."""
    path = directory / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["summaries"]


def write_expected(directory: Path, workload: str, runs: list[dict[str, Any]]) -> None:
    """Merge the summaries of *runs* into the workload's expected file."""
    summaries = load_expected(directory, workload)
    for run in runs:
        if not run["problems"]:
            summaries[str(run["seed"])] = run["summary"]
    directory.mkdir(parents=True, exist_ok=True)
    ordered = dict(sorted(summaries.items(), key=lambda item: int(item[0])))
    (directory / f"{workload}.json").write_text(
        json.dumps({"workload": workload, "summaries": ordered}, indent=1) + "\n"
    )


# -- metrics -------------------------------------------------------------------


def describe(samples: list[float]) -> dict[str, Any]:
    """The reported value (the median), quartiles, range and the
    samples."""
    median = statistics.median(samples)
    q1, q3 = (
        statistics.quantiles(samples, n=4)[::2] if len(samples) > 1
        else (median, median)
    )
    return {
        "value": median, "median": median,
        "q1": q1, "q3": q3, "min": min(samples), "max": max(samples),
        "n": len(samples), "samples": samples,
    }


def instances_of(children: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Every instance run of *children*, in the order they ran."""
    return [run for child in children for run in child["instances"]]


def measure_end_to_end(
    workload: str, seed: int, seconds: float, expected: dict[str, Any],
    deadline: float,
) -> tuple[list[dict[str, Any]], dict[str, dict[str, Any]], dict[str, dict[str, Any]]]:
    """Untraced batch: per-instance wall time and throughput, per-child
    set-up time and peak memory.  Returns the children, the metrics and the
    unscaled times.

    ``wall_s`` is the median over the warm instances of each one's wall
    time scaled by the calibration kernel timed alongside it (worker.py).
    ``setup_s`` pairs each child's set-up with the reference work it
    contains, scaled to :data:`REFERENCE_S`, and is the median over the
    children."""
    children: list[dict[str, Any]] = []
    for _ in range(BATCH_CHILDREN):
        if time.monotonic() > deadline:
            break
        first = len(instances_of(children))
        children.append(run_child(
            workload, "plain", seed, first, seconds / (BATCH_CHILDREN + 1),
            warmup=True,
        ))
    # A fresh process repeats the first instance: determinism on any seed.
    if time.monotonic() <= deadline:
        children.append(run_child(workload, "plain", seed, 0, 0.0))
    runs = instances_of(children)
    check_runs(runs, expected)
    first_runs: dict[int, dict[str, Any]] = {}
    for run in runs:
        if not run["problems"]:
            first_runs.setdefault(run["seed"], run)
    distinct = list(first_runs.values())
    timed = [child for child in children if "setup_s" in child]
    if not distinct or not timed:
        return children, {}, {}
    unscaled = {
        "wall_s": [run["wall_s"] for run in distinct],
        "kernel_s": [run["kernel_s"] for run in distinct],
        "setup_s": [child["setup_s"] for child in timed],
        "reference_s": [child["reference_s"] for child in timed],
    }
    walls = [run["scaled_s"] for run in distinct]
    ticks = [run["ticks"] / run["scaled_s"] for run in distinct]
    setups = [REFERENCE_S * c["setup_s"] / c["reference_s"] for c in timed]
    # Memory of one run: children that ran a single instance (the repeat
    # at least), as later runs in a process reuse a grown heap.
    rss = [c["rss_mb"] for c in timed if len(c["instances"]) == 1]
    stats = {
        "wall_s": describe(walls),
        "ticks_per_s": describe(ticks),
        "setup_s": describe(setups),
    }
    if rss:
        stats["peak_rss_mb"] = describe(rss)
    return (
        children,
        stats,
        {name: describe(values) for name, values in unscaled.items()},
    )


def measure_layers(
    workload: str, seed: int, expected: dict[str, Any], deadline: float,
) -> tuple[list[dict[str, Any]], dict[str, float]]:
    """First instance untraced (reference), traced and profiled, one
    process each."""
    children = []
    for mode in ["plain"] * TRACE_REFERENCE_RUNS + ["traced", "profiled"]:
        if time.monotonic() > deadline:
            break
        children.append(run_child(workload, mode, seed, 0, 0.0))
    runs = instances_of(children)
    check_runs(runs, expected)
    ok = {mode: [r for r in runs if r["mode"] == mode and not r["problems"]]
          for mode in ("plain", "traced", "profiled")}
    if not all(ok.values()):
        return children, {}
    reference = statistics.median(run["scaled_s"] for run in ok["plain"])
    traced, profiled = ok["traced"][0], ok["profiled"][0]
    layers = dict(traced["layers"])
    layers["bench.trace_overhead"] = traced["scaled_s"] / reference - 1.0
    layers["obs.profiler_overhead"] = profiled["scaled_s"] / reference - 1.0
    return children, layers


# -- provenance ----------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def provenance(seed: int, seconds: float) -> dict[str, Any]:
    """What produced a result file: code, libraries, machine, settings."""
    in_git = _git("rev-parse", "--show-toplevel") == str(ROOT)
    src_status = _git("status", "--porcelain", "--", "src") if in_git else None
    return {
        "git_sha": (_git("rev-parse", "HEAD") if in_git else None) or "unknown",
        # Uncommitted changes under src/, i.e. to the program measured.
        "git_dirty": "unknown" if src_status is None else bool(src_status),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
    }


# -- command line --------------------------------------------------------------


def report(name: str, result: dict[str, Any]) -> None:
    """Human-readable lines for one workload (problems go to stderr)."""
    for metric, entry in result.get("end_to_end", {}).items():
        print(f"{name:<19} {metric:<32} {entry['value']:>13.6g} {entry['unit']:<6}"
              f" n={entry['n']}, median {entry['median']:.6g}, "
              f"range {entry['min']:.6g}..{entry['max']:.6g}")
    if "unscaled" in result:
        print(f"{name:<19} unscaled medians: " + ", ".join(
            f"{key} {entry['value']:.6g} s" for key, entry in result["unscaled"].items()
        ))
    for metric, entry in result.get("per_layer", {}).items():
        print(f"{name:<19} {metric:<32} {entry['value']:>13.6g} {entry['unit']}")
    print(f"{name:<19} runs: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for run in result["runs"]:
        for problem in run["problems"]:
            print(f"{name}: seed {run['seed']} ({run['mode']}): {problem}",
                  file=sys.stderr)
    if result["missing"]:
        print(f"{name}: no value for {', '.join(result['missing'])}", file=sys.stderr)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the perf benchmark (see benchmarks/perf/README.md)."
    )
    parser.add_argument(
        "--workload", nargs="+", choices=[*WORKLOADS, SELFTEST],
        help="workloads to run (default: all four; selftest-12 is the "
             "harness self-test's tiny scenario)",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the instances are derived from (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of an end-to-end run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--out", type=Path, help="write a result file here")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the runs' summaries as the expected "
                             "outputs instead of checking against them")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None, expected_dir: Path = EXPECTED_DIR) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    kinds = [kind for kind, trace in (("end_to_end", 0), ("per_layer", 1))
             if args.trace in (None, trace)]
    results: dict[str, Any] = {}
    for name in args.workload or list(WORKLOADS):
        expected = {} if args.write_expected else load_expected(expected_dir, name)
        deadline = time.monotonic() + WORKLOAD_DEADLINE_S
        children: list[dict[str, Any]] = []
        values: dict[str, dict[str, Any]] = {}
        unscaled: dict[str, Any] = {}
        if "end_to_end" in kinds:
            e2e_children, stats, unscaled = measure_end_to_end(
                name, args.seed, seconds, expected, deadline
            )
            children += e2e_children
            values["end_to_end"] = stats
            if args.write_expected:
                write_expected(expected_dir, name, instances_of(e2e_children))
        if "per_layer" in kinds:
            layer_children, layers = measure_layers(
                name, args.seed, expected, deadline
            )
            children += layer_children
            values["per_layer"] = {k: {"value": v} for k, v in layers.items()}
        runs = instances_of(children)
        result: dict[str, Any] = {
            kind: {
                m["name"]: {**values[kind][m["name"]], "unit": m["unit"]}
                for m in spec[kind] if m["name"] in values[kind]
            }
            for kind in kinds
        }
        if unscaled:
            result["unscaled"] = unscaled
        if "per_layer" in kinds:
            result["trace_table"] = layers
        result["missing"] = [
            m["name"] for kind in kinds for m in spec[kind]
            if m["name"] not in result[kind]
        ]
        result["attempted"] = len(runs)
        result["failed"] = sum(1 for run in runs if run["problems"])
        result["runs"] = [
            {k: v for k, v in run.items() if k not in ("summary", "layers")}
            for run in runs
        ]
        result["children"] = [
            {k: v for k, v in child.items() if k != "instances"}
            | {"instances": [run["seed"] for run in child["instances"]]}
            for child in children
        ]
        results[name] = result
        report(name, result)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["missing"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        for kind in kinds:
            for metric, entry in result[kind].items():
                label = metric if len(results) == 1 else f"{name}/{metric}"
                metrics[label] = {"value": entry["value"], "unit": entry["unit"]}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"provenance": provenance(args.seed, seconds), "workloads": results},
            indent=1,
        ) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
