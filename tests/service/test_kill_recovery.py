"""The kill-recovery proof, end to end through the real CLI.

A serve process is SIGKILLed mid-batch; its worker and resource tracker
must exit with it, and re-running the same command against the same root
must finish every accepted job, serve duplicate fingerprints from the
cache, and exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_cli(*argv, **kw):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.service", *argv],
        env=env, capture_output=True, text=True, timeout=180, **kw,
    )


def spawn_cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_for_mid_batch(journal, budget=90.0):
    """True once >=1 job is done AND another is journaled as running —
    the kill then lands mid-computation with a cache entry already
    written, so the restart must both recover and serve hits."""
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        events = []
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


def proc_stat(pid):
    """(state, ppid) of *pid* from /proc, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def child_pids(pid):
    """Direct children of *pid*: serve's spawn workers and resource tracker."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        info = proc_stat(int(stat.parent.name))
        if info is not None and info[1] == pid:
            children.append(int(stat.parent.name))
    return children


def still_alive(pids, budget=5.0):
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


def test_sigkill_mid_batch_then_restart_completes_everything(tmp_path):
    batch = tmp_path / "batch.json"
    root = tmp_path / "root"
    made = run_cli(
        "make-batch", "--out", str(batch), "--jobs", "3",
        "--duplicates", "2", "--sim-time", "60", "--nodes", "5",
    )
    assert made.returncode == 0, made.stderr

    serve_args = (
        "serve", "--root", str(root), "--batch", str(batch),
        "--workers", "1", "--max-attempts", "2", "--backoff-base", "0.0",
    )
    victim = spawn_cli(*serve_args)
    try:
        assert wait_for_mid_batch(root / "journal.jsonl")
        children = child_pids(victim.pid)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
    assert victim.returncode == -signal.SIGKILL
    # The victim's children exit with it: nothing orphaned keeps running.
    assert children, "serve had no worker process to check"
    assert still_alive(children) == []

    # Same command, same root: recovery replays the journal and finishes.
    revived = run_cli(*serve_args)
    assert revived.returncode == 0, revived.stdout + revived.stderr

    report = run_cli("report", "--root", str(root))
    assert report.returncode == 0
    state = json.loads(report.stdout)
    # Every accepted job reached a terminal state; nothing stuck.
    assert state["counts"]["queued"] == 0
    assert state["counts"]["running"] == 0
    assert state["counts"]["failed"] == 0
    # 3 computed jobs, plus cache-hit jobs for the resubmissions of the
    # fingerprint that completed before the kill (same-run duplicates of
    # still-open fingerprints coalesce and create no job of their own).
    assert state["counts"]["done"] >= 4
    # Duplicate fingerprints never recompute: each fingerprint has at most
    # one non-cache-hit done job across BOTH service incarnations.
    computed = [
        j["fingerprint"] for j in state["jobs"]
        if j["state"] == "done" and not j["cache_hit"]
    ]
    assert len(computed) == len(set(computed))
    assert len(set(computed)) <= 3  # only 3 distinct configs exist
    assert any(j["cache_hit"] for j in state["jobs"] if j["state"] == "done")
    assert len(state["cache_entries"]) == 3
