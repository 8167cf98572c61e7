"""Reproducer corpus: self-contained failure records that replay forever.

Every failure the fuzzer confirms is serialized as one JSON file under the
corpus directory (``chaos/corpus/`` at the repo root by convention).  An
entry carries everything needed to re-run the case with zero context: the
full scenario config (via the snapshot codec's config encoding), the
oracle verdict, the shrunk size fingerprint, the trace tail at the point
of failure, and a ready-to-paste pytest snippet.  Committed entries are
replayed by ``tests/chaos/test_corpus_replay.py`` on every CI run, so a
fixed bug that regresses is caught by the exact schedule that found it.

File names are derived from the config fingerprint
(:func:`repro.experiments.checkpoint.config_fingerprint`), so re-finding
the same minimal case overwrites rather than duplicates.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.chaos.oracles import OracleFailure
from repro.chaos.runner import CaseResult, run_case
from repro.errors import ObsFormatError
from repro.experiments.checkpoint import config_fingerprint
from repro.experiments.scenario import ScenarioConfig
from repro.snapshot.capture import encode_config
from repro.snapshot.restore import decode_config

__all__ = [
    "entry_path",
    "load_corpus",
    "load_entry",
    "make_entry",
    "pytest_snippet",
    "replay_entry",
    "replay_reproduces",
    "write_entry",
]

#: Bump when the entry layout changes incompatibly; ``replay_entry``
#: rejects unknown versions instead of mis-reading them.
CORPUS_SCHEMA = 1


def make_entry(
    config: ScenarioConfig,
    failure: OracleFailure,
    *,
    base_seed: int | None = None,
    iteration: int | None = None,
    shrink_attempts: int = 0,
    original_config: ScenarioConfig | None = None,
) -> dict[str, Any]:
    """Build the JSON payload for one confirmed (ideally shrunk) failure."""
    entry: dict[str, Any] = {
        "schema": CORPUS_SCHEMA,
        "id": config_fingerprint(config),
        "base_seed": base_seed,
        "iteration": iteration,
        "failure": failure.as_dict(),
        "config": encode_config(config),
        "shrink_attempts": shrink_attempts,
    }
    if original_config is not None:
        entry["original_config"] = encode_config(original_config)
    entry["pytest"] = pytest_snippet(entry)
    return entry


def pytest_snippet(entry: dict[str, Any]) -> str:
    """A standalone test function reproducing this entry.

    The snippet inlines the config JSON, so it keeps working even if the
    corpus file moves; it asserts the same oracle/invariant fires.
    """
    config_json = json.dumps(entry["config"], indent=4, sort_keys=True)
    failure = entry["failure"]
    return (
        "from repro.chaos.oracles import OracleFailure\n"
        "from repro.chaos.runner import run_case\n"
        "from repro.snapshot.restore import decode_config\n"
        "\n"
        "\n"
        f"def test_chaos_reproducer_{entry['id'][:12]}():\n"
        f"    config = decode_config({config_json})\n"
        "    result = run_case(config)\n"
        "    expected = OracleFailure(\n"
        f"        oracle={failure['oracle']!r},\n"
        f"        detail='',\n"
        f"        invariant={failure['invariant']!r},\n"
        "    )\n"
        "    assert expected.matches(result.failure), (\n"
        "        f'expected {expected.oracle}/{expected.invariant}, '\n"
        "        f'got {result.failure}'\n"
        "    )\n"
    )


def entry_path(corpus_dir: str | os.PathLike[str], entry: dict[str, Any]) -> Path:
    oracle = str(entry["failure"]["oracle"]).replace("/", "-")
    return Path(corpus_dir) / f"{oracle}-{entry['id'][:16]}.json"


def write_entry(
    corpus_dir: str | os.PathLike[str], entry: dict[str, Any]
) -> Path:
    """Atomically write *entry* into *corpus_dir*; returns the file path."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = entry_path(directory, entry)
    payload = json.dumps(entry, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_entry(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and validate one corpus entry."""
    try:
        entry = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ObsFormatError(f"unreadable corpus entry {path}: {exc}") from exc
    if not isinstance(entry, dict):
        raise ObsFormatError(f"corpus entry {path} is not a JSON object")
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ObsFormatError(
            f"corpus entry {path} has schema {entry.get('schema')!r}; this "
            f"build reads schema {CORPUS_SCHEMA}"
        )
    for key in ("id", "failure", "config"):
        if key not in entry:
            raise ObsFormatError(f"corpus entry {path} is missing {key!r}")
    return entry


def load_corpus(
    corpus_dir: str | os.PathLike[str],
) -> list[tuple[Path, dict[str, Any]]]:
    """All entries of a corpus directory, sorted by file name."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    return [
        (path, load_entry(path))
        for path in sorted(directory.glob("*.json"))
    ]


def replay_entry(entry: dict[str, Any]) -> CaseResult:
    """Re-run an entry's config through the oracles."""
    config = decode_config(entry["config"])
    return run_case(config)


def replay_reproduces(entry: dict[str, Any]) -> bool:
    """Does the entry still fail the same way?  (The replay oracle for
    corpus entries; the corpus-replay test asserts this for every
    committed file.)"""
    expected = OracleFailure.from_dict(entry["failure"])
    return expected.matches(replay_entry(entry).failure)
