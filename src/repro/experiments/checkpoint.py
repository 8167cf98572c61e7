"""The run store: finished runs kept by config fingerprint, crash-safe.

Sweeps (``run_many(checkpoint=DIR)``, ``--resume DIR`` in the CLI) and the
scenario service (:class:`repro.service.api.ScenarioService`, under its
root) keep their runs in one layout, :class:`RunStore`, so a directory
filled by either serves the other:

* ``cache/<fingerprint>.json.gz`` — a :class:`ResultCache` entry per
  finished run, keyed by :func:`config_fingerprint` of the config that
  produced it;
* ``snap/<fingerprint>.snap.gz`` — the rolling in-run snapshot of a run
  still going, when its config snapshots but names no file of its own.

Soundness argument (docs/service.md): the key is a content hash of the
*entire* scenario config, seed included, and the simulator is
bit-reproducible given a config (the determinism suite's core guarantee).
Same fingerprint therefore implies same result bytes, so serving a hit is
indistinguishable from recomputing.  Every summary stored is computed from
the byte-exact config it is keyed by (retries rerun the same config; they
never mutate the seed), which is what keeps the implication true.

Entries are one gzip-JSON file per fingerprint, written atomically
(tmp + fsync + ``os.replace``, the snapshot-codec idiom) and carrying a
SHA-256 checksum over the canonical summary JSON.  A corrupt or truncated
entry — a crashed write the atomic rename should prevent, or a chaos
campaign flipping bytes — fails validation and is treated as a miss and
removed, never served.  Failed runs are never stored: rerunning a batch
retries them, because a failure may have been environmental (OOM, a killed
worker) rather than deterministic.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Any

from repro.experiments.scenario import ScenarioConfig
from repro.reports.summary import RunSummary
from repro.snapshot.codec import canonical_json

__all__ = ["CACHE_SCHEMA", "ResultCache", "RunStore", "config_fingerprint"]

_MAGIC = "repro.service.result"
#: Bump on incompatible layout changes; readers treat other versions as
#: misses (recompute is always sound, serving a misread entry never is).
CACHE_SCHEMA = 1


def config_fingerprint(config: ScenarioConfig) -> str:
    """Stable content hash of a scenario config (the run store's key)."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _summary_checksum(summary_record: dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(summary_record).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """Directory of ``<fingerprint>.json.gz`` result entries."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        #: Entries that failed validation and were dropped (chaos oracle:
        #: corruption is *detected*, never served).
        self.corrupt_dropped = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json.gz"

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def get(self, fingerprint: str) -> RunSummary | None:
        """The cached summary for *fingerprint*, or ``None`` on miss.

        Any validation failure — unreadable gzip, wrong magic/schema,
        checksum mismatch, a record the summary class refuses — drops the
        entry and reports a miss.
        """
        path = self.path_for(fingerprint)
        try:
            raw = gzip.decompress(path.read_bytes())
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload.get("magic") != _MAGIC:
                raise ValueError("not a service cache entry")
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"unknown schema {payload.get('schema')!r}")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("entry fingerprint does not match its key")
            record = payload["summary"]
            if payload.get("checksum") != _summary_checksum(record):
                raise ValueError("checksum mismatch")
            return RunSummary.from_record(record)
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError, KeyError, TypeError, zlib.error):
            self.corrupt_dropped += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                # Removal is best-effort hygiene; validation already
                # guarantees the entry can never be served.
                pass
            return None

    def put(self, fingerprint: str, summary: RunSummary) -> Path:
        """Atomically write *summary* under *fingerprint*.

        The payload is canonical JSON, so two writes of the same summary
        produce byte-identical files — the chaos campaign's byte-stability
        oracle compares exactly these bytes.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        record = summary.record()
        payload = {
            "magic": _MAGIC,
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "checksum": _summary_checksum(record),
            "summary": record,
        }
        blob = gzip.compress(
            canonical_json(payload).encode("utf-8"), mtime=0
        )
        path = self.path_for(fingerprint)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def get_bytes(self, fingerprint: str) -> bytes | None:
        """Raw entry bytes (byte-identity assertions in tests/oracles)."""
        try:
            return self.path_for(fingerprint).read_bytes()
        except OSError:
            return None

    def fingerprints(self) -> list[str]:
        """Fingerprints with an entry file present (unvalidated), sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name[: -len(".json.gz")]
            for p in self.root.glob("*.json.gz")
        )


class RunStore:
    """The run-store layout under one root directory (module docstring)."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.cache = ResultCache(self.root / "cache")

    def to_run(
        self, config: ScenarioConfig, fingerprint: str
    ) -> ScenarioConfig:
        """*config* as the store runs it, keyed by *fingerprint*.

        A config that snapshots (``snapshot_every > 0``) to no file of its
        own rolls its snapshot under ``snap/``;
        :func:`~repro.experiments.runner.run_scenario_safe` resumes a killed
        run from it and removes it once the run finishes.  ``snapshot_to``
        is execution plumbing: the key is the fingerprint of the config as
        submitted, taken before this.
        """
        if config.snapshot_every > 0 and config.snapshot_to is None:
            return config.replace(
                snapshot_to=str(self.root / "snap" / f"{fingerprint}.snap.gz")
            )
        return config
