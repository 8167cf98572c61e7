"""Capture a built simulation's full state as a JSON-safe payload.

:func:`save` walks every stateful component of a
:class:`~repro.experiments.runner.BuiltSimulation` — clock, RNG streams,
mobility arrays, link topology, buffers, routing state, policy state,
collectors, fault-plan cursors and in-flight transfers — and returns a
:class:`~repro.snapshot.codec.Snapshot` that
:func:`repro.snapshot.restore.restore` can turn back into a byte-identical
continuation of the run.

Ordering rules (the part that makes restores *deterministic*, not merely
plausible):

* Dicts whose iteration order can influence behaviour (buffers, PRoPHET
  predictability tables, per-node neighbor maps, gossip stores, …) are
  captured as **insertion-ordered pair lists**, never sorted, so the
  restored dict iterates exactly like the original.
* Sets are captured sorted — only membership matters for them; every
  behaviour-relevant iteration over a set in the simulator is sorted at the
  use site.
* No live references leak into the payload: arrays are copied into base64
  blobs, records are copied dict-by-dict, and callbacks/closures are never
  serialized (they are re-created by ``build_scenario`` on restore).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.dropped_list import DroppedListStore
from repro.core.intermeeting import MinIntermeetingEstimator
from repro.core.oracle import GlobalInfectionOracle
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.errors import SnapshotError
from repro.mobility.base import MobilityModel, WaypointEngine
from repro.mobility.random_direction import RandomDirection
from repro.mobility.random_walk import RandomWalk
from repro.mobility.stationary import Stationary
from repro.mobility.taxi import TaxiFleet
from repro.mobility.trace import TraceMobility
from repro.net.message import Message
from repro.policies.fifo import FifoPolicy
from repro.policies.mofo import MofoPolicy
from repro.policies.random_drop import RandomPolicy
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.snapshot.codec import Snapshot, encode_array, make_snapshot
from repro.world.node import Node

__all__ = ["encode_config", "save"]


def encode_config(config: Any) -> dict[str, Any]:
    """``ScenarioConfig`` -> JSON-safe dict (tuples become lists on the
    wire; :func:`repro.snapshot.restore.decode_config` rebuilds them)."""
    return dataclasses.asdict(config)


def save(built: Any) -> Snapshot:
    """Capture *built* (a ``BuiltSimulation``) into a :class:`Snapshot`.

    Safe to call between events (e.g. from a
    :class:`~repro.snapshot.snapshotter.PeriodicSnapshotter` callback) or
    after ``sim.run(until=...)`` returned; every pending event is either a
    recurring chain, a generator/fault cursor or an in-flight transfer, and
    all of those re-arm from the captured state.
    """
    if built.rng is None:
        raise SnapshotError(
            "cannot snapshot a simulation built without an RngFactory "
            "(BuiltSimulation.rng is None)"
        )
    sim = built.sim
    state: dict[str, Any] = {
        "t": sim.now,
        "events_processed": sim.events_processed,
        "rng": built.rng.state_dict(),
        "recurring": {
            name: rec.next_time for name, rec in sim._recurring.items()
        },
        "mobility": _capture_mobility(built.world.mobility),
        "world": _capture_world(built.world),
        "generator": {
            "created": built.generator.created,
            "next_at": built.generator._next_at,
        },
        "nodes": [_capture_node(node) for node in built.nodes],
        "shared": _capture_shared(built.shared),
        "metrics": _capture_metrics(built.metrics),
        "contacts": _capture_contacts(built.contacts),
        "sanitizer": _capture_sanitizer(built.sanitizer),
        "timeseries": _capture_timeseries(built.timeseries),
        "trace": _capture_trace(built.trace),
        "profiler": _capture_profiler(built.profiler),
        "faults": _capture_faults(built.fault_injector),
        "transfers": _capture_transfers(built),
        "snapshotter": (
            None
            if getattr(built, "snapshotter", None) is None
            else {"next_at": built.snapshotter._next_at}
        ),
    }
    return make_snapshot(encode_config(built.config), state)


# -- world ----------------------------------------------------------------


def _capture_mobility(mob: MobilityModel) -> dict[str, Any]:
    data: dict[str, Any] = {"kind": type(mob).__name__, "time": mob._time}
    if isinstance(mob, TraceMobility):
        # The trace samples themselves are immutable inputs; only the
        # interpolation cursor is state.
        data["pos"] = encode_array(mob._pos)
        return data
    if isinstance(mob, WaypointEngine):  # RandomWaypoint and TaxiFleet
        data["pos"] = encode_array(mob._pos)
        data["target"] = encode_array(mob._target)
        data["speed"] = encode_array(mob._speed)
        data["pause_left"] = encode_array(mob._pause_left)
        if isinstance(mob, TaxiFleet):
            # Hotspots/weights are drawn from the mobility stream during
            # _setup; the restored stream is past that draw, so they must
            # be carried explicitly.
            data["hotspots"] = encode_array(mob._hotspots)
            data["weights"] = encode_array(mob._weights)
        return data
    if isinstance(mob, RandomWalk):
        data["pos"] = encode_array(mob._pos)
        data["heading"] = encode_array(mob._heading)
        data["speed"] = encode_array(mob._speed)
        data["leg_left"] = encode_array(mob._leg_left)
        return data
    if isinstance(mob, RandomDirection):
        data["pos"] = encode_array(mob._pos)
        data["heading"] = encode_array(mob._heading)
        data["speed"] = encode_array(mob._speed)
        data["pause_left"] = encode_array(mob._pause_left)
        return data
    if isinstance(mob, Stationary):
        # Positions may have been drawn from the mobility stream at _setup;
        # the restored stream is past that draw, so carry them explicitly.
        data["pos"] = encode_array(mob._pos)
        return data
    raise SnapshotError(
        f"mobility model {type(mob).__name__} is not snapshot-capable"
    )


def _capture_world(world: Any) -> dict[str, Any]:
    return {
        "links": [[i, j] for i, j in sorted(world.links)],
        "down_nodes": sorted(world.down_nodes),
    }


# -- per-node state --------------------------------------------------------


def _capture_message(m: Message) -> dict[str, Any]:
    return {
        "msg_id": m.msg_id,
        "source": m.source,
        "destination": m.destination,
        "size": m.size,
        "created_at": m.created_at,
        "ttl": m.ttl,
        "initial_copies": m.initial_copies,
        "copies": m.copies,
        "hop_count": m.hop_count,
        "spray_times": list(m.spray_times),
    }


def _capture_node(node: Node) -> dict[str, Any]:
    router = node.router
    return {
        "id": node.id,
        # Buffer contents in insertion order; pins are NOT captured — they
        # are re-established when in-flight transfers are re-armed.
        "buffer": [_capture_message(m) for m in node.buffer.messages()],
        # Neighbor-map *insertion order* breaks relay-selection ties, so it
        # is state, not a derived view of the link set.
        "neighbors": list(node.neighbors.keys()),
        "delivered_ids": sorted(router.delivered_ids),
        "router": _capture_router_state(router),
        "policy": _capture_policy_state(router.policy),
    }


def _capture_router_state(router: Any) -> dict[str, Any] | None:
    if isinstance(router, ProphetRouter):
        return {
            "kind": "prophet",
            "preds": [[dest, p] for dest, p in router._preds.items()],
            "last_aged": router._last_aged,
        }
    if isinstance(router, SprayAndFocusRouter):
        return {
            "kind": "snf",
            "last_seen": [[peer, t] for peer, t in router.last_seen.items()],
        }
    return None


def _capture_policy_state(policy: Any) -> dict[str, Any] | None:
    # SdsrpPolicy first: GbsdPolicy and KnapsackSdsrpPolicy subclass it and
    # add no mutable state of their own.
    if isinstance(policy, SdsrpPolicy):
        store = policy.dropped
        return {
            "kind": "sdsrp",
            "dropped": None if store is None else _capture_dropped(store),
        }
    if isinstance(policy, FifoPolicy):  # and its subclass LifoPolicy
        return {
            "kind": "arrival",
            "arrival": [[mid, n] for mid, n in policy._arrival.items()],
            "counter": policy._counter,
        }
    if isinstance(policy, MofoPolicy):
        return {
            "kind": "mofo",
            "forwards": [[mid, n] for mid, n in policy._forwards.items()],
        }
    if isinstance(policy, RandomPolicy):
        # The policy's generator is a named RngFactory stream; its state
        # travels with the factory.  Only the sticky scores are local.
        return {
            "kind": "random",
            "scores": [[mid, s] for mid, s in policy._scores.items()],
        }
    return None


def _capture_dropped(store: DroppedListStore) -> list[list[Any]]:
    return [
        [origin, rec.record_time, dict(rec.dropped)]
        for origin, rec in store._records.items()
    ]


# -- SDSRP shared state ----------------------------------------------------


def _capture_shared(shared: SdsrpShared | None) -> dict[str, Any] | None:
    if shared is None:
        return None
    return {
        "estimator": _capture_estimator(shared.estimator),
        "oracle": _capture_oracle(shared.oracle),
    }


def _capture_estimator(est: MinIntermeetingEstimator) -> dict[str, Any]:
    return {
        "kind": "min",
        "acc": {"total": est.gap_sum, "count": est.sample_count},
        "active": [[i, n] for i, n in est._active.items()],
        "last_idle": [[i, t] for i, t in est._last_idle.items()],
    }


def _capture_oracle(oracle: GlobalInfectionOracle | None) -> dict | None:
    if oracle is None:
        return None
    return {
        "state": [
            [mid, st.source, sorted(st.holders), sorted(st.seen), st.drops]
            for mid, st in oracle._state.items()
        ]
    }


# -- collectors ------------------------------------------------------------


def _capture_metrics(metrics: Any) -> dict[str, Any]:
    return {
        "created": metrics.created,
        "delivered": metrics.delivered,
        "relayed": metrics.relayed,
        "relayed_accepted": metrics.relayed_accepted,
        "aborted": metrics.aborted,
        "started": metrics.started,
        "drops_by_reason": dict(metrics.drops_by_reason),
        "faults_by_kind": dict(metrics.faults_by_kind),
        "hop_counts": list(metrics.hop_counts),
        "latencies": list(metrics.latencies),
    }


def _capture_contacts(contacts: Any) -> dict[str, Any]:
    return {
        "contact_count": contacts.contact_count,
        "durations": list(contacts._durations),
        "intermeetings": list(contacts._intermeetings),
        "up_since": [[a, b, t] for (a, b), t in contacts._up_since.items()],
        "last_down": [[a, b, t] for (a, b), t in contacts._last_down.items()],
    }


def _capture_sanitizer(sanitizer: Any) -> dict[str, Any] | None:
    if sanitizer is None:
        return None
    return {
        "ticks_checked": sanitizer.ticks_checked,
        "ttl_seen": [
            [node_id, mid, v]
            for (node_id, mid), v in sanitizer._ttl_seen.items()
        ],
        "copy_budget": [
            [mid, n] for mid, n in sanitizer._copy_budget.items()
        ],
        "committed_seqs": sorted(sanitizer._committed_seqs),
    }


def _capture_histogram(hist: Any) -> dict[str, Any]:
    return {"counts": list(hist.counts), "n": hist.n, "total": hist.total}


def _capture_timeseries(ts: Any) -> dict[str, Any] | None:
    if ts is None:
        return None
    # Counters and latencies are the metrics collector's, captured there.
    return {
        "bytes_relayed": ts.bytes_relayed,
        "duration_hist": _capture_histogram(ts.transfer_duration_hist),
        "columns": {c: list(v) for c, v in ts._columns.items()},
        "node_occupancy": [list(row) for row in ts._node_occupancy],
        "last_sample_time": ts._last_sample_time,
        "last_bytes": ts._last_bytes,
    }


def _capture_trace(trace: Any) -> dict[str, Any] | None:
    if trace is None:
        return None
    return {
        "records": [dict(r) for r in trace._records],
        "events_seen": trace.events_seen,
    }


def _capture_profiler(profiler: Any) -> dict[str, Any] | None:
    if profiler is None:
        return None
    # Wall-clock numbers; captured for continuity of reporting, excluded
    # from determinism comparisons (like RunSummary.wall_seconds).
    return {
        "self_seconds": dict(profiler.self_seconds),
        "calls": dict(profiler.calls),
    }


# -- faults / transfers ----------------------------------------------------


def _capture_faults(injector: Any) -> dict[str, Any] | None:
    if injector is None:
        return None
    return {
        "churned_nodes": list(injector.churned_nodes),
        "churn_phases": [
            [node_id, phase]
            for node_id, phase in injector.churn_phases.items()
        ],
        "next_flap_at": injector._next_flap_at,
        "scripted_transfer_consumed": injector._scripted_transfer_consumed,
    }


def _capture_transfers(built: Any) -> dict[str, Any]:
    manager = built.world.transfer_manager
    active = sorted(manager._active.values(), key=lambda tr: tr.seq)
    return {
        "seq": manager._seq,
        "active": [
            {
                "sender": tr.sender.id,
                "receiver": tr.receiver.id,
                "msg_id": tr.message.msg_id,
                "mode": tr.mode,
                "started_at": tr.started_at,
                "eta": tr.eta,
                "seq": tr.seq,
            }
            for tr in active
        ],
    }
