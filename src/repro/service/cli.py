"""Command-line interface: ``repro-service`` / ``python -m repro.service``.

Three subcommands:

* ``make-batch`` — generate a JSON batch of reduced scenario submissions
  (optionally with duplicate fingerprints — the cache-hit smoke workload);
* ``serve`` — submit a batch against a service root and drain it to
  completion.  Killing this process at any instant is safe: re-running the
  same command against the same ``--root`` resumes from the journal,
  completes the interrupted jobs, and serves already-computed fingerprints
  from the cache;
* ``report`` — print the durable state of a service root (no pool is
  started), as the smoke/CI harness consumes it.

Batch file format: a JSON list; each element is either an encoded
``ScenarioConfig`` dict (``repro.snapshot.capture.encode_config``) or
``{"config": {...}, "priority": N}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.experiments.checkpoint import RunStore
from repro.experiments.scenario import random_waypoint_scenario, scale_scenario
from repro.service.api import ScenarioService
from repro.service.store import JobStore
from repro.snapshot.capture import encode_config
from repro.snapshot.restore import decode_config

__all__ = ["build_parser", "main", "make_batch"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description=(
            "Supervised, crash-tolerant scenario-execution service with a "
            "fingerprint-keyed result cache (see docs/service.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="submit a batch and drain it to completion"
    )
    serve.add_argument("--root", required=True, metavar="DIR",
                       help="service state directory (journal, cache, "
                            "quarantine); reused across restarts")
    serve.add_argument("--batch", required=True, metavar="FILE",
                       help="JSON batch of scenario submissions")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes (0 = run inline, serial)")
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job heartbeat deadline in seconds")
    serve.add_argument("--max-attempts", type=int, default=2)
    serve.add_argument("--seed", type=int, default=0,
                       help="service seed (retry backoff schedules)")
    serve.add_argument("--backoff-base", type=float, default=0.05)
    serve.add_argument("--poll-interval", type=float, default=0.02)
    serve.add_argument("--max-wall", type=float, default=None,
                       help="stop draining after this many wall seconds "
                            "(state stays durable)")

    report = sub.add_parser(
        "report", help="print a service root's durable state as JSON"
    )
    report.add_argument("--root", required=True, metavar="DIR")

    batch = sub.add_parser(
        "make-batch", help="write a reduced-scenario batch file"
    )
    batch.add_argument("--out", required=True, metavar="FILE")
    batch.add_argument("--jobs", type=int, default=4,
                       help="distinct scenario configs (fresh fingerprints)")
    batch.add_argument("--duplicates", type=int, default=2,
                       help="extra submissions duplicating the first "
                            "configs' fingerprints (cache-hit workload)")
    batch.add_argument("--seed", type=int, default=1)
    batch.add_argument("--sim-time", type=float, default=60.0)
    batch.add_argument("--nodes", type=int, default=6)
    return parser


def make_batch(
    jobs: int,
    duplicates: int,
    *,
    seed: int = 1,
    sim_time: float = 60.0,
    nodes: int = 6,
) -> list[dict[str, Any]]:
    """A mixed batch: *jobs* fresh fingerprints + *duplicates* repeats."""
    base = scale_scenario(
        random_waypoint_scenario(policy="fifo", router="snw"),
        node_factor=nodes / 100.0,
        time_factor=sim_time / 18000.0,
    )
    configs = [base.replace(seed=seed + i) for i in range(max(1, jobs))]
    entries: list[dict[str, Any]] = [
        {"config": encode_config(c), "priority": 0} for c in configs
    ]
    for i in range(max(0, duplicates)):
        entries.append(
            {"config": encode_config(configs[i % len(configs)]), "priority": 0}
        )
    return entries


def _load_batch(path: str) -> list[tuple[Any, int]]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ReproError(f"batch file {path} must be a JSON list")
    out = []
    for item in raw:
        if isinstance(item, dict) and "config" in item:
            out.append(
                (decode_config(item["config"]), int(item.get("priority", 0)))
            )
        elif isinstance(item, dict):
            out.append((decode_config(item), 0))
        else:
            raise ReproError(f"unrecognized batch entry: {item!r}")
    return out


def _cmd_serve(args: argparse.Namespace) -> int:
    submissions = _load_batch(args.batch)
    with ScenarioService(
        args.root,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        seed=args.seed,
        backoff_base=args.backoff_base,
    ) as service:
        for config, priority in submissions:
            ticket = service.submit(config, priority=priority)
            print(
                f"submit {ticket.fingerprint[:12]} -> {ticket.status}"
                + (f" job={ticket.job_id}" if ticket.job_id else "")
                + (
                    f" retry_after={ticket.retry_after:.2f}s"
                    if ticket.retry_after is not None
                    else ""
                ),
                flush=True,
            )
        drained = service.drain(
            poll_interval=args.poll_interval, max_wall=args.max_wall
        )
        service.write_report()
        counts = service.store.counts()
        print(
            "drained" if drained else "wall budget exhausted",
            json.dumps(counts, sort_keys=True),
            flush=True,
        )
        return 0 if drained and not service.open_jobs() else 1


def _cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.root)
    store = JobStore(root / "journal.jsonl")
    cache = RunStore(root).cache
    payload = {
        "root": str(root),
        "counts": store.counts(),
        "jobs": [
            {
                "job_id": j.job_id,
                "state": j.state,
                "fingerprint": j.fingerprint,
                "attempts": j.attempts,
                "cache_hit": j.cache_hit,
                "shed_reason": j.shed_reason,
                "error_type": j.error_type,
            }
            for j in store.jobs()
        ],
        "cache_entries": [
            cache.path_for(fp).name for fp in cache.fingerprints()
        ],
        "skipped_journal_lines": store.skipped_lines,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_make_batch(args: argparse.Namespace) -> int:
    entries = make_batch(
        args.jobs,
        args.duplicates,
        seed=args.seed,
        sim_time=args.sim_time,
        nodes=args.nodes,
    )
    Path(args.out).write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(entries)} submissions to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "make-batch":
            return _cmd_make_batch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
