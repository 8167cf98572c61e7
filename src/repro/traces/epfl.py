"""EPFL/CRAWDAD ``cabspotting`` support.

The paper's real-world scenario replays GPS logs of San Francisco taxis
("epfl/mobility", 30 days; the paper uses the first 200 taxis over the
first 18000 s).  Two paths are provided:

* :func:`load_cabspotting_dir` — parse a locally available copy of the real
  dataset (one ``new_<cab>.txt`` file per taxi, lines
  ``<latitude> <longitude> <occupancy> <unix time>`` in *reverse*
  chronological order) into a playback mobility model.  The dataset itself
  is not redistributable, so it is not shipped here.
* :func:`synthetic_epfl` — the default offline substitute: a
  :class:`repro.mobility.taxi.TaxiFleet` with the statistical features the
  paper's reasoning relies on (see that module's docstring and DESIGN.md §1).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.errors import TraceFormatError
from repro.mobility.taxi import TaxiFleet
from repro.mobility.trace import TraceMobility

#: Mean Earth radius (meters) for the equirectangular projection.
_EARTH_RADIUS = 6_371_000.0


def parse_cabspotting_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one cab file into (times, (k, 2) lat/lon), oldest first."""
    path = Path(path)
    times: list[float] = []
    coords: list[tuple[float, float]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(f"{path}:{lineno}: expected 4 fields")
        try:
            lat, lon = float(parts[0]), float(parts[1])
            t = float(parts[3])
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(lat) and math.isfinite(lon) and math.isfinite(t)):
            raise TraceFormatError(f"{path}:{lineno}: non-finite value: {line!r}")
        times.append(t)
        coords.append((lat, lon))
    if not times:
        raise TraceFormatError(f"{path}: empty cab file")
    t_arr = np.asarray(times)
    c_arr = np.asarray(coords)
    order = np.argsort(t_arr, kind="stable")  # files are newest-first
    return t_arr[order], c_arr[order]


def _project(latlon: np.ndarray, lat0: float, lon0: float) -> np.ndarray:
    """Equirectangular lat/lon -> local meters around (lat0, lon0)."""
    lat = np.radians(latlon[:, 0])
    lon = np.radians(latlon[:, 1])
    x = (lon - math.radians(lon0)) * math.cos(math.radians(lat0)) * _EARTH_RADIUS
    y = (lat - math.radians(lat0)) * _EARTH_RADIUS
    return np.stack([x, y], axis=1)


def load_cabspotting_dir(
    directory: str | Path,
    n_taxis: int = 200,
    duration: float = 18000.0,
    grid_step: float = 30.0,
) -> TraceMobility:
    """Build playback mobility from a cabspotting dataset directory.

    Takes the first *n_taxis* cab files (sorted by name, matching the
    paper's "first 200 taxis"), clips to the first *duration* seconds after
    the earliest common timestamp, and projects GPS to local meters with the
    south-west corner at the origin.
    """
    directory = Path(directory)
    files = sorted(directory.glob("new_*.txt"))[:n_taxis]
    if not files:
        raise TraceFormatError(f"no cabspotting files (new_*.txt) in {directory}")
    raw = [parse_cabspotting_file(f) for f in files]
    t_start = min(float(t[0]) for t, _ in raw)
    all_coords = np.concatenate([c for _, c in raw])
    lat0 = float(all_coords[:, 0].mean())
    lon0 = float(all_coords[:, 1].mean())
    node_samples = []
    for t, c in raw:
        rel_t = t - t_start
        keep = rel_t <= duration
        if not keep.any():  # cab silent in the window: park it at first fix
            rel_t, c = rel_t[:1] * 0.0, c[:1]
        else:
            rel_t, c = rel_t[keep], c[keep]
        node_samples.append((rel_t, _project(c, lat0, lon0)))
    mobility = TraceMobility.from_node_samples(
        node_samples, grid_step=grid_step, duration=duration
    )
    # Shift coordinates to be non-negative (World/areas assume >= 0).
    offset = mobility._samples.reshape(-1, 2).min(axis=0)
    mobility._samples -= offset
    return mobility


def synthetic_epfl(n_taxis: int = 200, **kwargs: object) -> TaxiFleet:
    """The offline stand-in for the EPFL trace (see module docstring)."""
    return TaxiFleet(n_nodes=n_taxis, **kwargs)  # type: ignore[arg-type]
