"""Snapshot file format: versioned, checksummed, atomically written.

A snapshot is a gzip-compressed JSON document with four top-level keys:
``magic`` (format marker), ``version`` (:data:`SCHEMA_VERSION`), ``checksum``
(SHA-256 over the canonical JSON of config + state) and the ``config`` /
``state`` payloads produced by :mod:`repro.snapshot.capture`.

Design constraints:

* **No pickle.**  Simulator state is serialized to plain JSON-safe
  structures (reprolint REP008 bans ``pickle``/``marshal`` of simulator
  state everywhere else).  Floats round-trip exactly through Python's JSON
  encoder (shortest-repr), and non-finite values (``NaN`` for exhausted
  recurring chains, ``-Infinity`` for unset record times) use the JSON
  extension literals, which :func:`json.loads` accepts by default.
* **Atomic writes.**  Files are written to a temporary sibling and
  ``os.replace``-d into place, so a crash mid-write never leaves a torn
  snapshot where a resumable one used to be.
* **Integrity.**  :func:`read_snapshot` refuses unknown schema versions and
  payloads whose checksum does not match, raising
  :class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SnapshotError

__all__ = [
    "SCHEMA_VERSION",
    "Snapshot",
    "canonical_json",
    "decode_array",
    "encode_array",
    "make_snapshot",
    "read_snapshot",
    "state_checksum",
    "write_snapshot",
]

#: Bump on any incompatible change to the captured state layout or to the
#: encoded config's fields.  Readers support exactly one version: restoring
#: across schema versions is refused (see docs/checkpointing.md for the
#: compatibility policy).  Version 2 dropped the contact-kernel and
#: detector-choice config fields.
SCHEMA_VERSION = 2

_MAGIC = "repro.snapshot"


@dataclass(frozen=True)
class Snapshot:
    """One captured simulation state (see :func:`repro.snapshot.save`)."""

    version: int
    #: ``dataclasses.asdict`` of the scenario config the state belongs to.
    config: dict[str, Any]
    #: The full simulator state payload (JSON-safe, no live references).
    state: dict[str, Any]
    #: SHA-256 hex digest over the canonical JSON of ``config`` + ``state``.
    checksum: str


# -- numpy arrays ----------------------------------------------------------


def encode_array(arr: np.ndarray) -> dict[str, Any]:
    """Encode an ndarray as a JSON-safe dict (dtype + shape + base64 bytes).

    Byte-exact: the raw little-endian buffer is preserved, so positions and
    mobility state restore to the identical floats.
    """
    a = np.ascontiguousarray(arr)
    return {
        "__ndarray__": True,
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(obj: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; returns a fresh writable array."""
    try:
        raw = base64.b64decode(obj["data"])
        return (
            np.frombuffer(raw, dtype=obj["dtype"])
            .reshape(obj["shape"])
            .copy()
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed array payload: {exc}") from exc


# -- checksums -------------------------------------------------------------


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text (sorted keys, no whitespace) for hashing
    and byte-level payload comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def state_checksum(config: dict[str, Any], state: dict[str, Any]) -> str:
    """SHA-256 hex digest binding a state payload to its config."""
    blob = canonical_json({"config": config, "state": state})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_snapshot(config: dict[str, Any], state: dict[str, Any]) -> Snapshot:
    """Wrap a captured payload with the current version and its checksum."""
    return Snapshot(
        version=SCHEMA_VERSION,
        config=config,
        state=state,
        checksum=state_checksum(config, state),
    )


# -- file codec ------------------------------------------------------------


def write_snapshot(snapshot: Snapshot, path: str | Path) -> Path:
    """Write *snapshot* to *path* (gzip JSON), atomically.

    Parent directories are created as needed.  The document is staged in a
    temporary sibling file, fsync-ed, then renamed over the target, so
    readers only ever observe complete snapshots.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "magic": _MAGIC,
        "version": snapshot.version,
        "checksum": snapshot.checksum,
        "config": snapshot.config,
        "state": snapshot.state,
    }
    blob = gzip.compress(json.dumps(payload).encode("utf-8"))
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_snapshot(path: str | Path) -> Snapshot:
    """Read and validate a snapshot written by :func:`write_snapshot`.

    Raises :class:`~repro.errors.SnapshotError` on a missing/truncated
    file, a non-snapshot document, an unsupported schema version, or a
    checksum mismatch.
    """
    path = Path(path)
    try:
        payload = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    except FileNotFoundError:
        raise SnapshotError(f"snapshot file not found: {path}") from None
    except (OSError, EOFError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise SnapshotError(f"{path} is not a repro snapshot file")
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    config = payload.get("config")
    state = payload.get("state")
    checksum = payload.get("checksum")
    if not isinstance(config, dict) or not isinstance(state, dict):
        raise SnapshotError(f"{path}: snapshot missing config/state payloads")
    expected = state_checksum(config, state)
    if checksum != expected:
        raise SnapshotError(
            f"{path}: checksum mismatch (file {checksum!r}, payload "
            f"{expected!r}) — snapshot is corrupt"
        )
    return Snapshot(
        version=int(version), config=config, state=state, checksum=checksum
    )
