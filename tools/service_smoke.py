"""CI gate: the service kill-recovery proof (docs/service.md).

Generates a small mixed batch (fresh + duplicate fingerprints), serves it
through the real ``repro-service`` CLI in a subprocess, SIGKILLs that
process mid-batch (after at least one result is cached, while another job
is journaled as running), then re-runs the identical command against the
same root and asserts:

* every child of the killed process (its spawn worker and resource
  tracker, read from ``/proc``) exits within 5 s of the kill;
* the re-serve exits 0 with every accepted job in a terminal state;
* no fingerprint was computed twice — duplicates (including the whole
  resubmitted batch) were served from the fingerprint cache;
* the journal replay is clean (no skipped lines beyond the torn tail the
  kill itself may have left).

On failure the service root (journal, cache, report) is left in
``--artifact-dir`` for CI to upload.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--artifact-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path


def cli(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", *argv],
        env=dict(os.environ), capture_output=True, text=True, timeout=600,
    )
    if check and proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"repro-service {argv[0]} exited {proc.returncode}"
        )
    return proc


def wait_for_mid_batch(journal: Path, budget: float = 120.0) -> bool:
    """True once one job is done and another is journaled running."""
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        events: list[str] = []
        if journal.exists():
            for line in journal.read_text(encoding="utf-8").splitlines():
                try:
                    events.append(json.loads(line).get("event"))
                except ValueError:
                    continue
        if "done" in events and events[-1] == "running":
            return True
        time.sleep(0.05)
    return False


def proc_stat(pid: int) -> tuple[str, int] | None:
    """(state, ppid) of *pid* from /proc, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*: serve's spawn workers and resource tracker."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        info = proc_stat(int(stat.parent.name))
        if info is not None and info[1] == pid:
            children.append(int(stat.parent.name))
    return children


def still_alive(pids: list[int], budget: float = 5.0) -> list[int]:
    """The *pids* still running (neither gone nor zombies) after *budget* s."""
    deadline = time.perf_counter() + budget
    while True:
        alive = [
            p for p in pids
            if (info := proc_stat(p)) is not None and info[0] != "Z"
        ]
        if not alive or time.perf_counter() > deadline:
            return alive
        time.sleep(0.05)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact-dir", type=str, default="service-smoke",
                        metavar="DIR",
                        help="working/artifact directory (default "
                             "service-smoke; kept on failure)")
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--duplicates", type=int, default=2)
    parser.add_argument("--sim-time", type=float, default=60.0)
    args = parser.parse_args(argv)

    workdir = Path(args.artifact_dir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    batch = workdir / "batch.json"
    root = workdir / "root"

    cli(
        "make-batch", "--out", str(batch), "--jobs", str(args.jobs),
        "--duplicates", str(args.duplicates),
        "--sim-time", str(args.sim_time), "--nodes", "5",
    )
    serve = (
        "serve", "--root", str(root), "--batch", str(batch),
        "--workers", "1", "--max-attempts", "2", "--backoff-base", "0.0",
    )

    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.service", *serve],
        env=dict(os.environ),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        if not wait_for_mid_batch(root / "journal.jsonl"):
            raise SystemExit("batch never reached the mid-run kill window")
        children = child_pids(victim.pid)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
    print(f"killed serve pid {victim.pid} mid-batch (SIGKILL)")
    failures: list[str] = []
    if not children:
        failures.append("serve had no worker process to check")
    orphans = still_alive(children)
    if orphans:
        failures.append(f"serve's children {orphans} outlived it by 5 s")

    revived = cli(*serve)
    print(revived.stdout.strip().splitlines()[-1])

    report = json.loads(cli("report", "--root", str(root)).stdout)
    counts = report["counts"]
    if counts["queued"] or counts["running"]:
        failures.append(f"non-terminal jobs remain: {counts}")
    if counts["failed"]:
        failures.append(f"{counts['failed']} job(s) failed: {counts}")
    computed = [
        j["fingerprint"] for j in report["jobs"]
        if j["state"] == "done" and not j["cache_hit"]
    ]
    if len(computed) != len(set(computed)):
        failures.append("a fingerprint was computed more than once")
    if len(set(computed)) > args.jobs:
        failures.append(
            f"{len(set(computed))} fingerprints computed; batch only has "
            f"{args.jobs} distinct configs"
        )
    if not any(
        j["cache_hit"] for j in report["jobs"] if j["state"] == "done"
    ):
        failures.append("no duplicate was served from the cache")
    if report["skipped_journal_lines"] > 1:
        failures.append(
            f"{report['skipped_journal_lines']} skipped journal lines; "
            "only the kill's torn tail is expected"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"artifacts kept in {workdir}/", file=sys.stderr)
        return 1
    print(
        f"service smoke OK: done={counts['done']} "
        f"computed={len(set(computed))} cache_entries="
        f"{len(report['cache_entries'])}"
    )
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
