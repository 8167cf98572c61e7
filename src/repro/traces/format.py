"""Movement-trace text format (ONE ``ExternalMovement`` style).

Line format::

    <time> <node_id> <x> <y>

with one header line ``minTime maxTime minX maxX minY maxY`` (ONE's
convention).  Times must come in non-decreasing order.  The reader returns a
:class:`repro.mobility.trace.TraceMobility`, so recorded or externally
produced movement drops straight into the simulator.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import TraceFormatError
from repro.mobility.trace import TraceMobility


def write_movement_trace(
    path: str | Path,
    times: np.ndarray,
    positions: np.ndarray,
) -> None:
    """Write a (T,) x (T, N, 2) sampled movement to *path*."""
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[0] != times.size:
        raise TraceFormatError(
            f"positions {positions.shape} inconsistent with times {times.shape}"
        )
    path = Path(path)
    with path.open("w") as fh:
        fh.write(
            f"{times[0]:.3f} {times[-1]:.3f} "
            f"{positions[..., 0].min():.3f} {positions[..., 0].max():.3f} "
            f"{positions[..., 1].min():.3f} {positions[..., 1].max():.3f}\n"
        )
        for t_idx, t in enumerate(times):
            for node in range(positions.shape[1]):
                x, y = positions[t_idx, node]
                fh.write(f"{t:.3f} {node} {x:.3f} {y:.3f}\n")


def _parse_lines(fh: TextIO, path: Path) -> tuple[np.ndarray, np.ndarray]:
    header = fh.readline().split()
    if len(header) != 6:
        raise TraceFormatError(f"{path}: expected 6-field header, got {header!r}")
    samples: dict[float, dict[int, tuple[float, float]]] = {}
    node_ids: set[int] = set()
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(f"{path}:{lineno}: expected 4 fields: {line!r}")
        try:
            t, node, x, y = float(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            raise TraceFormatError(f"{path}:{lineno}: non-finite value: {line!r}")
        samples.setdefault(t, {})[node] = (x, y)
        node_ids.add(node)
    if not samples:
        raise TraceFormatError(f"{path}: no samples")
    if sorted(node_ids) != list(range(len(node_ids))):
        raise TraceFormatError(f"{path}: node ids must be dense 0..N-1")
    times = np.array(sorted(samples), dtype=float)
    n = len(node_ids)
    positions = np.empty((times.size, n, 2))
    last_known: dict[int, tuple[float, float]] = {}
    for t_idx, t in enumerate(times):
        row = samples[t]
        for node in range(n):
            if node in row:
                last_known[node] = row[node]
            if node not in last_known:
                raise TraceFormatError(
                    f"{path}: node {node} has no sample at or before t={t}"
                )
            positions[t_idx, node] = last_known[node]
    return times, positions


def read_movement_trace(path: str | Path) -> TraceMobility:
    """Parse a movement trace file into a playback mobility model."""
    path = Path(path)
    with path.open() as fh:
        times, positions = _parse_lines(fh, path)
    if times.size < 2:
        raise TraceFormatError(f"{path}: need at least 2 time samples")
    return TraceMobility(times, positions)
