"""Time-series metrics: counters, gauges and histograms on a fixed cadence.

The paper's evaluation reasons about *trajectories* — how delivery ratio,
buffer occupancy and live copy counts evolve as the policies reshuffle
buffers — but :class:`~repro.reports.metrics.MetricsCollector` only reports
end-of-run aggregates.  :class:`TimeSeriesCollector` samples the fleet on a
configurable simulated-time interval and exports the series as JSON or CSV
(``repro-experiments run --obs-out metrics.json``).

The run's :class:`~repro.reports.metrics.MetricsCollector` is its one
counter set: each sample reads the message, transfer, drop and fault
counters from it, and the export bins its delivery latencies.  The
collector itself counts only what it alone exports: bytes relayed and
transfer durations.

Sampling rides the event queue at :data:`~repro.engine.events.PRIORITY_REPORT`
(after world/fault/normal events at the same instant), so a sample at time T
sees the state *after* everything that happened at T.  The collector is
observation-only: it mutates nothing and schedules only read-only callbacks,
so enabling it cannot change any simulation outcome (enforced by
``tests/obs/test_observation_only.py``).

Columns (one value per sample row; cumulative counters count from t=0):

=========================  ==================================================
``time``                   sample timestamp (sim seconds)
``created``                messages generated so far
``delivered``              unique messages delivered so far
``relayed``                completed transfers so far
``delivery_ratio``         delivered / created so far (0 before traffic)
``drop_<reason>``          drops so far, one column per ``DROP_REASONS``
``drops_total``            all drops so far
``buffer_used_bytes``      total bytes buffered fleet-wide (gauge)
``occupancy_mean``         mean per-node buffer occupancy in [0, 1] (gauge)
``occupancy_max``          max per-node buffer occupancy (gauge)
``live_messages``          distinct message ids buffered anywhere (gauge)
``live_copies``            sum of spray tokens over all buffered copies
``bytes_relayed``          payload bytes of completed transfers so far
``throughput_Bps``         bytes_relayed delta / interval since last sample
``transfers_started``      transfers started so far
``transfers_aborted``      transfers aborted so far
``faults_total``           injected faults so far
=========================  ==================================================
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.events import PRIORITY_REPORT
from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.errors import ConfigurationError, ObsFormatError
from repro.net.outcomes import DROP_REASONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.net.transfer import Transfer
    from repro.reports.metrics import MetricsCollector
    from repro.world.node import Node

__all__ = ["Histogram", "TimeSeriesCollector", "read_timeseries_json"]

#: Default latency histogram bin edges (seconds): sub-minute .. multi-hour.
LATENCY_EDGES = (60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0)
#: Default transfer-duration histogram bin edges (seconds).
DURATION_EDGES = (1.0, 5.0, 10.0, 20.0, 40.0, 80.0)


class Histogram:
    """A fixed-bin counting histogram (no per-sample storage).

    ``edges = (e0, .., ek)`` produce k+2 bins: ``(-inf, e0], (e0, e1], ..,
    (ek, inf)``.  Values accumulate into :attr:`counts`; the edges are part
    of the exported payload so a parsed export is self-describing.
    """

    def __init__(self, edges: tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ConfigurationError(
                f"histogram edges must be non-empty and ascending: {edges}"
            )
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        """Count *value* into its bin."""
        self.n += 1
        self.total += value
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of added values (0.0 when empty)."""
        return self.total / self.n if self.n else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "n": self.n,
            "mean": self.mean,
        }


class TimeSeriesCollector:
    """Samples fleet state and message counters on a fixed sim-time cadence.

    Parameters
    ----------
    nodes:
        The fleet to sample buffer state from; each sample also records
        every node's occupancy (JSON export only; the CSV keeps fleet
        aggregates so a 200-node run stays spreadsheet-sized).
    metrics:
        The run's counters, read at each sample.
    interval:
        Simulated seconds between samples (also the throughput window).
    """

    def __init__(
        self,
        nodes: list[Node],
        metrics: MetricsCollector,
        interval: float = 60.0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"sample interval must be positive, got {interval}"
            )
        self.nodes = nodes
        self.metrics = metrics
        self.interval = float(interval)
        #: Payload bytes of completed transfers so far.
        self.bytes_relayed = 0
        self.transfer_duration_hist = Histogram(DURATION_EDGES)
        # sample rows
        self._columns: dict[str, list[float]] = {
            c: [] for c in self.column_names()
        }
        self._node_occupancy: list[list[float]] = []
        self._last_sample_time: float | None = None
        self._last_bytes = 0
        #: The simulator :meth:`subscribe` binds; samples read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    @staticmethod
    def column_names() -> tuple[str, ...]:
        """CSV/JSON column order (drop reasons expand positionally)."""
        return (
            "time",
            "created",
            "delivered",
            "relayed",
            "delivery_ratio",
            *(f"drop_{reason}" for reason in DROP_REASONS),
            "drops_total",
            "buffer_used_bytes",
            "occupancy_mean",
            "occupancy_max",
            "live_messages",
            "live_copies",
            "bytes_relayed",
            "throughput_Bps",
            "transfers_started",
            "transfers_aborted",
            "faults_total",
        )

    # -- wiring ------------------------------------------------------------

    def subscribe(self, sim: Simulator) -> None:
        """Count relayed bytes and transfer durations on *sim* and arm the
        recurring sample event."""
        self._sim = sim
        sim.listeners.subscribe("message.relayed", self._on_relayed)
        sim.listeners.subscribe("transfer.started", self._on_transfer_started)
        sim.schedule_every(
            self.interval, self._sample, priority=PRIORITY_REPORT,
            name="obs.sample",
        )

    # -- event handlers ----------------------------------------------------

    def _on_relayed(
        self, message: Message, sender: Node, receiver: Node, outcome: object
    ) -> None:
        self.bytes_relayed += message.size

    def _on_transfer_started(self, transfer: Transfer) -> None:
        self.transfer_duration_hist.add(transfer.eta - transfer.started_at)

    # -- sampling ----------------------------------------------------------

    def _sample(self) -> None:
        now = self._sim.now
        occupancies = [node.buffer.occupancy() for node in self.nodes]
        used = 0
        live_ids: set[str] = set()
        live_copies = 0
        for node in self.nodes:
            buf = node.buffer
            used += buf.used
            for message in buf:
                live_ids.add(message.msg_id)
                live_copies += message.copies
        if self._last_sample_time is None:
            window = self.interval
            delta = self.bytes_relayed
        else:
            window = now - self._last_sample_time
            delta = self.bytes_relayed - self._last_bytes
        throughput = delta / window if window > 0 else 0.0
        metrics = self.metrics
        drops = metrics.drops_by_reason
        row = {
            "time": now,
            "created": metrics.created,
            "delivered": metrics.delivered,
            "relayed": metrics.relayed,
            "delivery_ratio": metrics.delivery_ratio,
            **{
                f"drop_{reason}": drops.get(reason, 0)
                for reason in DROP_REASONS
            },
            "drops_total": metrics.drops_total,
            "buffer_used_bytes": used,
            "occupancy_mean": (
                sum(occupancies) / len(occupancies) if occupancies else 0.0
            ),
            "occupancy_max": max(occupancies, default=0.0),
            "live_messages": len(live_ids),
            "live_copies": live_copies,
            "bytes_relayed": self.bytes_relayed,
            "throughput_Bps": throughput,
            "transfers_started": metrics.started,
            "transfers_aborted": metrics.aborted,
            "faults_total": metrics.faults_total,
        }
        for column, values in self._columns.items():
            values.append(row[column])
        self._node_occupancy.append(occupancies)
        self._last_sample_time = now
        self._last_bytes = self.bytes_relayed

    def finalize(self, now: float) -> None:
        """Take a closing sample at *now* unless one was just taken.

        Called by the runner after the horizon so the last row always
        reflects the complete run (the recurring event stops one interval
        short when the horizon is not a multiple of the cadence).
        """
        last = self._last_sample_time
        if last is None or now - last > 1e-9:
            self._sample()

    # -- access ------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return len(self._columns["time"])

    def series(self, column: str) -> list[float]:
        """One column's values, aligned with ``series("time")``."""
        if column not in self._columns:
            raise KeyError(
                f"unknown column {column!r}; see column_names()"
            )
        return list(self._columns[column])

    def as_dict(self) -> dict[str, Any]:
        """The full export payload (what :meth:`write_json` dumps)."""
        latency = Histogram(LATENCY_EDGES)
        for value in self.metrics.latencies:
            latency.add(value)
        return {
            "interval": self.interval,
            "columns": list(self.column_names()),
            "samples": {c: list(v) for c, v in self._columns.items()},
            "histograms": {
                "delivery_latency_s": latency.as_dict(),
                "transfer_duration_s": self.transfer_duration_hist.as_dict(),
            },
            "faults_by_kind": dict(self.metrics.faults_by_kind),
            "node_occupancy": [list(row) for row in self._node_occupancy],
        }

    # -- export ------------------------------------------------------------

    def write_json(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path: str | Path) -> None:
        """Fleet-aggregate columns only (per-node data lives in the JSON)."""
        columns = self.column_names()
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for i in range(self.n_samples):
                writer.writerow(self._columns[c][i] for c in columns)

    def write(self, path: str | Path) -> None:
        """Dispatch on suffix: ``.csv`` -> CSV, anything else -> JSON."""
        if str(path).lower().endswith(".csv"):
            self.write_csv(path)
        else:
            self.write_json(path)


def read_timeseries_json(path: str | Path) -> dict[str, Any]:
    """Parse a :meth:`TimeSeriesCollector.write_json` export.

    Validates the envelope (``columns``/``samples`` present, every column's
    series the same length) and raises
    :class:`~repro.errors.ObsFormatError` on malformed input.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ObsFormatError(f"{path}: malformed metrics JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ObsFormatError(f"{path}: metrics export is not a JSON object")
    if "columns" not in payload or "samples" not in payload:
        raise ObsFormatError(
            f"{path}: metrics export missing 'columns'/'samples'"
        )
    samples = payload["samples"]
    if not isinstance(samples, dict):
        raise ObsFormatError(f"{path}: 'samples' is not an object")
    lengths = {len(v) for v in samples.values() if isinstance(v, list)}
    if len(lengths) > 1 or len(samples) != len(payload["columns"]):
        raise ObsFormatError(f"{path}: ragged or incomplete sample columns")
    return payload
