"""The kill-recovery proof, end to end through the real CLI.

A serve process is SIGKILLed mid-batch; its worker and resource tracker
must exit with it, and re-running the same command against the same root
must finish every accepted job, serve duplicate fingerprints from the
cache, and exit 0.

The kill needs a moment when one job is done and the next is journaled
running, which lasts about one job's run time, so the batch's horizon is
sized from a measured job time by ``tools/service_smoke.py``'s
:func:`sized_sim_time`, the rule ``make service-smoke`` uses; its journal
poll and process helpers are the smoke's too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_PATH = Path(__file__).resolve().parents[2] / "tools" / "service_smoke.py"
_spec = importlib.util.spec_from_file_location("service_smoke", _PATH)
assert _spec is not None and _spec.loader is not None
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)


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


def test_sigkill_mid_batch_then_restart_completes_everything(tmp_path):
    batch = tmp_path / "batch.json"
    root = tmp_path / "root"
    sim_time = smoke.sized_sim_time(60.0, 5)
    made = run_cli(
        "make-batch", "--out", str(batch), "--jobs", "3",
        "--duplicates", "2", "--sim-time", str(sim_time), "--nodes", "5",
    )
    assert made.returncode == 0, made.stderr

    serve_args = (
        "serve", "--root", str(root), "--batch", str(batch),
        "--workers", "1", "--max-attempts", "2", "--backoff-base", "0.0",
    )
    victim = spawn_cli(*serve_args)
    try:
        assert smoke.wait_for_mid_batch(root / "journal.jsonl")
        children = smoke.child_pids(victim.pid)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
    assert victim.returncode == -signal.SIGKILL
    # The victim's children exit with it: nothing orphaned keeps running.
    assert children, "serve had no worker process to check"
    assert smoke.still_alive(children) == []

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
