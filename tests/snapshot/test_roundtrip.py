"""Snapshot round-trips: codec integrity, config fidelity, router state.

The contract under test (docs/checkpointing.md): ``save`` at time T followed
by ``restore`` + run-to-end is byte-identical to the uninterrupted run — for
every registered router — and re-capturing a freshly restored simulation
reproduces the exact snapshot payload (same canonical JSON, same checksum).
"""

from __future__ import annotations

import copy
import dataclasses
import gzip
import json
import math
from collections import Counter

import pytest

from repro.engine.events import PRIORITY_SNAPSHOT
from repro.errors import ConfigurationError, SnapshotError
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ROUTER_KINDS, ScenarioConfig
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.snapshot import (
    decode_config,
    encode_config,
    fork,
    read_snapshot,
    restore,
    save,
    write_snapshot,
)
from repro.snapshot.capture import _capture_router_state
from repro.snapshot.codec import SCHEMA_VERSION, canonical_json
from tests.obs.conftest import tiny_config


def observed(**overrides) -> ScenarioConfig:
    return tiny_config(obs_interval=30.0, trace_capacity=500_000, **overrides)


def outputs(built) -> tuple[str, str]:
    assert built.trace is not None and built.timeseries is not None
    return (
        built.trace.to_jsonl(),
        json.dumps(built.timeseries.as_dict(), sort_keys=True),
    )


def run_with_snapshot(config: ScenarioConfig):
    """Run *config* to completion, capturing a snapshot at mid-horizon.

    Returns ``(snapshot, built)`` — capture is observation-only, so *built*
    doubles as the uninterrupted baseline.
    """
    built = build_scenario(config)
    box: list = []
    built.sim.schedule_at(
        config.sim_time / 2.0,
        lambda: box.append(save(built)),
        priority=PRIORITY_SNAPSHOT,
    )
    run_built(built)
    assert box, "mid-horizon snapshot hook never fired"
    return box[0], built


# -- codec ------------------------------------------------------------------


class TestCodec:
    def snap(self):
        built = build_scenario(observed())
        return save(built)

    def test_file_roundtrip_is_exact(self, tmp_path):
        snap = self.snap()
        path = write_snapshot(snap, tmp_path / "s.snap.gz")
        loaded = read_snapshot(path)
        # JSON turns config tuples into lists, which is exactly what the
        # checksum hashes; decode_config restores the typed view.
        assert loaded.checksum == snap.checksum
        assert canonical_json(loaded.state) == canonical_json(snap.state)
        assert decode_config(loaded.config) == decode_config(snap.config)
        assert not list(tmp_path.glob("*.tmp")), "staging file left behind"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            read_snapshot(tmp_path / "nope.snap.gz")

    def test_non_snapshot_document_raises(self, tmp_path):
        path = tmp_path / "s.snap.gz"
        path.write_bytes(gzip.compress(b'{"magic": "something-else"}'))
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            read_snapshot(path)

    def test_truncated_file_raises(self, tmp_path):
        path = write_snapshot(self.snap(), tmp_path / "s.snap.gz")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(path)

    def _tamper(self, path, mutate):
        doc = json.loads(gzip.decompress(path.read_bytes()))
        mutate(doc)
        path.write_bytes(gzip.compress(json.dumps(doc).encode("utf-8")))

    def test_unsupported_schema_version_raises(self, tmp_path):
        path = write_snapshot(self.snap(), tmp_path / "s.snap.gz")
        self._tamper(path, lambda d: d.update(version=SCHEMA_VERSION + 1))
        with pytest.raises(SnapshotError, match="schema version"):
            read_snapshot(path)

    def test_corrupt_state_fails_the_checksum(self, tmp_path):
        path = write_snapshot(self.snap(), tmp_path / "s.snap.gz")
        self._tamper(path, lambda d: d["state"].update(t=d["state"]["t"] + 1))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            read_snapshot(path)


# -- config fidelity --------------------------------------------------------


class TestConfigRoundtrip:
    def test_decode_inverts_encode(self):
        config = observed(policy="mofo", router="prophet", seed=17)
        assert decode_config(encode_config(config)) == config

    def test_faulted_config_roundtrips(self):
        from repro.faults.plan import FaultPlan

        config = observed(faults=FaultPlan(
            churn_fraction=0.3, churn_off_time=200.0, churn_on_time=200.0
        ))
        assert decode_config(encode_config(config)) == config

    def test_unknown_field_raises(self):
        payload = encode_config(observed())
        payload["frobnicate"] = True
        with pytest.raises(SnapshotError, match="frobnicate"):
            decode_config(payload)


# -- per-router state -------------------------------------------------------


class TestRouterRoundtrip:
    @pytest.mark.parametrize("router", ROUTER_KINDS)
    def test_restored_run_is_byte_identical(self, router):
        snap, baseline = run_with_snapshot(observed(router=router))
        restored = restore(snap)
        # Re-capturing the freshly restored state reproduces the snapshot
        # payload exactly (canonical JSON, hence also the checksum).
        recaptured = save(restored)
        assert canonical_json(recaptured.state) == canonical_json(snap.state)
        assert recaptured.checksum == snap.checksum
        # ... and the continuation replays the identical bytes.
        run_built(restored)
        assert outputs(restored) == outputs(baseline)

    def test_prophet_predictability_tables_survive(self):
        snap, _ = run_with_snapshot(observed(router="prophet"))
        restored = restore(snap)
        captured = {n["id"]: n["router"] for n in snap.state["nodes"]}
        assert any(captured[n.id]["preds"] for n in restored.nodes), (
            "no node accumulated predictabilities; test is vacuous"
        )
        for node in restored.nodes:
            assert isinstance(node.router, ProphetRouter)
            assert canonical_json(_capture_router_state(node.router)) == (
                canonical_json(captured[node.id])
            )

    def test_spray_and_focus_utility_state_survives(self):
        snap, _ = run_with_snapshot(observed(router="snf"))
        restored = restore(snap)
        captured = {n["id"]: n["router"] for n in snap.state["nodes"]}
        assert any(captured[n.id]["last_seen"] for n in restored.nodes), (
            "no node recorded last-seen times; test is vacuous"
        )
        for node in restored.nodes:
            assert isinstance(node.router, SprayAndFocusRouter)
            assert canonical_json(_capture_router_state(node.router)) == (
                canonical_json(captured[node.id])
            )

    def test_restore_while_most_nodes_are_asleep_is_byte_identical(self):
        # A dense fleet: by mid-horizon most nodes have scanned their
        # neighbors, found nothing to send, and are skipped by the tick.
        # Restored nodes start awake and rescan; that must change nothing.
        config = observed(area=(300.0, 225.0), interval_range=(10.0, 15.0))
        baseline = build_scenario(config)
        box: list = []

        def capture() -> None:
            asleep = sum(node.asleep for node in baseline.nodes)
            box.append((save(baseline), asleep))

        baseline.sim.schedule_at(
            config.sim_time / 2.0, capture, priority=PRIORITY_SNAPSHOT
        )
        run_built(baseline)
        snap, asleep = box[0]
        assert asleep > len(baseline.nodes) / 2
        restored = restore(snap)
        assert not any(node.asleep for node in restored.nodes)
        assert canonical_json(save(restored).state) == canonical_json(snap.state)
        run_built(restored)
        assert outputs(restored) == outputs(baseline)


# -- SDSRP dropped-list stores -------------------------------------------------


def congested() -> ScenarioConfig:
    # Fast traffic: SDSRP nodes overflow, drop and gossip before mid-horizon.
    return observed(interval_range=(10.0, 15.0))


class TestDroppedListRoundtrip:
    def test_restored_counts_equal_a_recount(self):
        snap, baseline = run_with_snapshot(congested())
        restored = restore(snap)
        stores = [node.router.policy.dropped for node in restored.nodes]
        assert sum(len(store) for store in stores) > 0, (
            "no store holds a drop at mid-horizon; test is vacuous"
        )
        for store in stores:
            lists = [rec.dropped for rec in store.known_records().values()]
            recount = Counter(mid for dropped in lists for mid in dropped)
            assert len(store) == sum(recount.values())
            for msg_id, count in recount.items():
                assert store.count_drops(msg_id) == count
            expiries = [exp for dropped in lists for exp in dropped.values()]
            assert store.next_expiry <= min(expiries, default=math.inf)
        run_built(restored)
        assert outputs(restored) == outputs(baseline)

    def test_never_dropped_records_of_older_snapshots_are_inert(self):
        # Older snapshots list a record for every origin a store had heard
        # of, including those that never dropped (record time -inf).
        snap, baseline = run_with_snapshot(congested())
        state = copy.deepcopy(snap.state)
        ids = [node["id"] for node in state["nodes"]]
        for node in state["nodes"]:
            dropped = node["policy"]["dropped"]
            listed = {origin for origin, _, _ in dropped}
            dropped += [[o, float("-inf"), {}] for o in ids if o not in listed]
        restored = restore(dataclasses.replace(snap, state=state))
        assert canonical_json(save(restored).state) == canonical_json(snap.state)
        run_built(restored)
        assert outputs(restored) == outputs(baseline)


# -- fork -------------------------------------------------------------------


class TestFork:
    def test_default_fork_is_an_exact_continuation(self):
        snap, baseline = run_with_snapshot(observed())
        forked = fork(snap)
        run_built(forked)
        assert outputs(forked) == outputs(baseline)

    def test_reseeded_fork_diverges(self):
        snap, baseline = run_with_snapshot(observed())
        forked = fork(snap, seed=12345)
        run_built(forked)
        assert outputs(forked) != outputs(baseline)

    def test_horizon_extension_runs_past_the_original_end(self):
        snap, baseline = run_with_snapshot(observed())
        extended = float(baseline.config.sim_time) * 2.0
        forked = fork(snap, overrides={"sim_time": extended})
        run_built(forked)
        assert forked.config.sim_time == extended
        assert forked.sim.now > baseline.config.sim_time / 2.0

    def test_non_whitelisted_override_is_refused(self):
        snap, _ = run_with_snapshot(observed())
        with pytest.raises(ConfigurationError, match="n_nodes"):
            fork(snap, overrides={"n_nodes": 3})


# -- scripted faults --------------------------------------------------------


class TestScriptedFaultRoundtrip:
    """Scripted fault schedules must survive save/restore bit-exactly.

    The plan mixes events on both sides of the mid-horizon capture: restore
    must re-arm only the not-yet-fired node/flap events and keep the
    transfer-fault consumed cursor, or the continuation diverges.
    """

    def plan(self):
        from repro.faults.plan import FaultEvent, FaultPlan

        return FaultPlan(events=(
            FaultEvent(time=50.0, kind="transfer_fault"),
            FaultEvent(time=100.0, kind="node_down", node=2),
            FaultEvent(time=200.0, kind="node_up", node=2),
            FaultEvent(time=300.0, kind="link_flap", node=1),
            FaultEvent(time=500.0, kind="transfer_fault"),
            FaultEvent(time=600.0, kind="node_down", node=4),
            FaultEvent(time=700.0, kind="node_up", node=4),
            FaultEvent(time=800.0, kind="link_flap", node=0),
        ))

    def test_restored_run_is_byte_identical(self):
        snap, baseline = run_with_snapshot(observed(faults=self.plan()))
        restored = restore(snap)
        recaptured = save(restored)
        assert canonical_json(recaptured.state) == canonical_json(snap.state)
        run_built(restored)
        assert outputs(restored) == outputs(baseline)
        # The post-snapshot half of the schedule really fired.
        assert baseline.fault_injector is not None
        assert baseline.fault_injector.counts.get("node_down", 0) >= 2

    def test_consumed_transfer_cursor_is_restored(self):
        snap, baseline = run_with_snapshot(observed(faults=self.plan()))
        captured = snap.state["faults"]
        assert captured["scripted_transfer_consumed"] >= 1
        restored = restore(snap)
        assert restored.fault_injector is not None
        assert (
            restored.fault_injector._scripted_transfer_consumed
            == captured["scripted_transfer_consumed"]
        )

    def test_old_snapshot_without_cursor_still_restores(self):
        snap, _ = run_with_snapshot(observed(faults=self.plan()))
        # Simulate a snapshot written before the cursor field existed.
        del snap.state["faults"]["scripted_transfer_consumed"]
        restored = restore(snap)
        assert restored.fault_injector._scripted_transfer_consumed == 0
