"""Result cache: byte-stable writes, corruption detection, soundness."""

from __future__ import annotations

import gzip
import json

from repro.experiments.checkpoint import CACHE_SCHEMA, ResultCache
from tests.service.test_supervisor import fake_summary


def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    summary = fake_summary(seed=3)
    cache.put("fp1", summary)
    got = cache.get("fp1")
    assert got is not None
    # json round-trip comparison: record() carries NaN fields (and
    # NaN != NaN would fail a plain dict equality).
    assert json.dumps(got.record()) == json.dumps(summary.record())
    assert "fp1" in cache
    assert cache.fingerprints() == ["fp1"]


def test_miss_on_absent_entry(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("nope") is None
    assert cache.corrupt_dropped == 0  # absence is not corruption


def test_rewrites_are_byte_identical(tmp_path):
    # Same summary written twice (or from two service incarnations) must
    # produce the same bytes: canonical JSON + gzip mtime=0.
    a, b = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    a.put("fp1", fake_summary(seed=3))
    b.put("fp1", fake_summary(seed=3))
    assert a.get_bytes("fp1") == b.get_bytes("fp1")


def test_corrupt_mid_stream_byte_is_dropped_not_served(tmp_path):
    # Regression: a flipped byte deep in the deflate stream raises
    # zlib.error (not an OSError subclass) — the first service chaos
    # campaign crashed on exactly this.
    cache = ResultCache(tmp_path)
    cache.put("fp1", fake_summary(seed=3))
    path = cache.path_for("fp1")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert cache.get("fp1") is None
    assert cache.corrupt_dropped == 1
    assert not path.exists()  # dropped, so the next put starts clean


def test_truncated_entry_is_dropped(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("fp1", fake_summary(seed=3))
    path = cache.path_for("fp1")
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get("fp1") is None
    assert cache.corrupt_dropped == 1


def test_fingerprint_mismatch_is_dropped(tmp_path):
    # An entry copied under the wrong key must never be served: the key
    # IS the soundness argument.
    cache = ResultCache(tmp_path)
    cache.put("fp1", fake_summary(seed=3))
    cache.path_for("fp2").write_bytes(cache.path_for("fp1").read_bytes())
    assert cache.get("fp2") is None
    assert cache.corrupt_dropped == 1


def test_unknown_schema_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("fp1", fake_summary(seed=3))
    payload = json.loads(gzip.decompress(cache.path_for("fp1").read_bytes()))
    assert payload["schema"] == CACHE_SCHEMA
    payload["schema"] = CACHE_SCHEMA + 1
    cache.path_for("fp1").write_bytes(
        gzip.compress(json.dumps(payload).encode("utf-8"), mtime=0)
    )
    assert cache.get("fp1") is None


def test_tampered_summary_fails_the_checksum(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("fp1", fake_summary(seed=3))
    payload = json.loads(gzip.decompress(cache.path_for("fp1").read_bytes()))
    payload["summary"]["delivered"] = 10**6
    cache.path_for("fp1").write_bytes(
        gzip.compress(json.dumps(payload).encode("utf-8"), mtime=0)
    )
    assert cache.get("fp1") is None
    assert cache.corrupt_dropped == 1
