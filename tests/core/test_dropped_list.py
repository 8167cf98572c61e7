"""Dropped-list gossip (Fig. 5): LWW merge semantics and properties."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dropped_list import DropRecord, DroppedListStore


def store_with_drops(node_id: int, drops: list[tuple[str, float]]) -> DroppedListStore:
    s = DroppedListStore(node_id)
    for msg_id, t in drops:
        s.record_drop(msg_id, now=t, expires_at=t + 1000.0)
    return s


class TestLocalRecord:
    def test_record_and_query(self):
        s = store_with_drops(0, [("M1", 5.0)])
        assert s.has_dropped("M1")
        assert not s.has_dropped("M2")
        assert s.count_drops("M1") == 1

    def test_record_time_tracks_latest_drop(self):
        s = DroppedListStore(0)
        s.record_drop("M1", now=5.0, expires_at=100.0)
        s.record_drop("M2", now=9.0, expires_at=100.0)
        assert s.known_records()[0].record_time == 9.0


class TestMerge:
    def test_merge_adopts_unknown_records(self):
        a = store_with_drops(0, [("M1", 5.0)])
        b = store_with_drops(1, [("M1", 3.0), ("M2", 4.0)])
        a.merge_from(b)
        assert a.count_drops("M1") == 2
        assert a.count_drops("M2") == 1
        assert a.seen_by_any("M2")
        assert not a.has_dropped("M2")  # own record untouched

    def test_merge_keeps_newer_record(self):
        a = DroppedListStore(0)
        b = store_with_drops(1, [("M1", 3.0)])
        a.merge_from(b)
        # b drops another message later; re-merge must refresh.
        b.record_drop("M2", now=10.0, expires_at=100.0)
        a.merge_from(b)
        assert a.count_drops("M2") == 1

    def test_merge_does_not_regress_to_older_record(self):
        a = DroppedListStore(0)
        b_new = store_with_drops(1, [("M1", 3.0), ("M2", 8.0)])
        b_old = store_with_drops(1, [("M1", 3.0)])
        a.merge_from(b_new)
        a.merge_from(b_old)  # stale copy of node 1's record
        assert a.count_drops("M2") == 1

    def test_own_record_is_authoritative(self):
        a = store_with_drops(0, [("M1", 5.0)])
        fake = DroppedListStore(1)
        forged = store_with_drops(0, [("BAD", 99.0)]).known_records()[0]
        fake.load([DropRecord(1), forged])
        a.merge_from(fake)
        assert not a.has_dropped("BAD")

    def test_transitive_propagation(self):
        a = store_with_drops(0, [("M1", 1.0)])
        b = DroppedListStore(1)
        c = DroppedListStore(2)
        b.merge_from(a)
        c.merge_from(b)  # c never met a
        assert c.count_drops("M1") == 1


class TestMergeProperties:
    drops = st.lists(
        st.tuples(st.sampled_from(["M1", "M2", "M3"]),
                  st.floats(min_value=0, max_value=100)),
        max_size=5,
    )

    @given(drops, drops)
    def test_merge_commutative(self, da, db):
        msg_ids = {"M1", "M2", "M3"}
        a1, b1 = store_with_drops(0, da), store_with_drops(1, db)
        a2, b2 = store_with_drops(0, da), store_with_drops(1, db)
        a1.merge_from(b1)
        b2.merge_from(a2)
        for mid in msg_ids:
            assert a1.count_drops(mid) == b2.count_drops(mid)

    @given(drops, drops)
    def test_merge_idempotent(self, da, db):
        a, b = store_with_drops(0, da), store_with_drops(1, db)
        a.merge_from(b)
        counts = {m: a.count_drops(m) for m in ("M1", "M2", "M3")}
        a.merge_from(b)
        assert counts == {m: a.count_drops(m) for m in ("M1", "M2", "M3")}

    @given(drops, drops, drops)
    def test_merge_associative_effect(self, da, db, dc):
        """(a<-b)<-c equals a<-(b<-c) in observable drop counts."""
        a1, b1, c1 = (store_with_drops(i, d) for i, d in enumerate((da, db, dc)))
        a1.merge_from(b1)
        a1.merge_from(c1)
        a2, b2, c2 = (store_with_drops(i, d) for i, d in enumerate((da, db, dc)))
        b2.merge_from(c2)
        a2.merge_from(b2)
        for mid in ("M1", "M2", "M3"):
            assert a1.count_drops(mid) == a2.count_drops(mid)


class TestPrune:
    def test_prune_removes_expired_entries(self):
        s = DroppedListStore(0)
        s.record_drop("old", now=0.0, expires_at=10.0)
        s.record_drop("new", now=0.0, expires_at=1000.0)
        assert s.prune(now=50.0) == 1
        assert not s.has_dropped("old")
        assert s.has_dropped("new")

    def test_prune_applies_to_merged_records(self):
        a = DroppedListStore(0)
        b = DroppedListStore(1)
        b.record_drop("old", now=0.0, expires_at=10.0)
        a.merge_from(b)
        assert a.count_drops("old") == 1
        a.prune(now=50.0)
        assert a.count_drops("old") == 0

    def test_len_counts_all_entries(self):
        a = store_with_drops(0, [("M1", 1.0), ("M2", 2.0)])
        b = store_with_drops(1, [("M1", 3.0)])
        a.merge_from(b)
        assert len(a) == 3


class TestNeverDroppedOrigins:
    def test_peers_that_never_dropped_are_not_gossiped(self):
        a, b, c = DroppedListStore(0), DroppedListStore(1), DroppedListStore(2)
        b.merge_from(c)
        a.merge_from(b)
        a.merge_from(c)
        assert list(a.known_records()) == [0]
        assert len(a) == 0

    def test_first_drop_reaches_a_store_that_merged_before(self):
        a, b = DroppedListStore(0), DroppedListStore(1)
        a.merge_from(b)  # b has nothing yet, so a adopts nothing
        b.record_drop("M1", now=3.0, expires_at=100.0)
        a.merge_from(b)
        assert a.count_drops("M1") == 1

    def test_relayed_record_reaches_a_store_that_merged_before(self):
        a, b, c = DroppedListStore(0), DroppedListStore(1), DroppedListStore(2)
        a.merge_from(b)
        c.record_drop("M1", now=3.0, expires_at=100.0)
        b.merge_from(c)  # b changes by adopting, not by dropping
        a.merge_from(b)
        assert a.count_drops("M1") == 1


class TestLoad:
    def test_load_rebuilds_counts_and_prune_bound(self):
        s = DroppedListStore(0)
        s.load([
            DropRecord(0, 4.0, {"M1": 50.0}),
            DropRecord(1, 2.0, {"M1": 60.0, "M2": 10.0}),
        ])
        assert list(s.known_records()) == [0, 1]
        assert s.count_drops("M1") == 2 and s.count_drops("M2") == 1
        assert s.has_dropped("M1") and not s.has_dropped("M2")
        assert s.prune(now=10.0) == 1
        assert not s.seen_by_any("M2")

    def test_load_in_place_forgets_what_was_merged(self):
        a, b = DroppedListStore(0), DroppedListStore(1)
        b.record_drop("M1", now=1.0, expires_at=100.0)
        a.merge_from(b)
        a.load([DropRecord(0)])  # back to knowing nothing
        a.merge_from(b)
        assert a.count_drops("M1") == 1


# -- model-based test against the full-scan store -------------------------------


class ReferenceStore:
    """The full-scan store that ``DroppedListStore`` replaced: every query
    and every prune walks every record, and every merge visits every
    record the peer knows, including those of origins that never dropped."""

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self._own = DropRecord(node_id)
        self._records: dict[int, DropRecord] = {node_id: self._own}

    def record_drop(self, msg_id: str, now: float, expires_at: float) -> None:
        self._own.dropped[msg_id] = float(expires_at)
        self._own.record_time = float(now)

    def has_dropped(self, msg_id: str) -> bool:
        return msg_id in self._own.dropped

    def merge_from(self, other: "ReferenceStore") -> None:
        for origin, theirs in other._records.items():
            if origin == self.node_id:
                continue
            mine = self._records.get(origin)
            if mine is None or theirs.record_time > mine.record_time:
                self._records[origin] = theirs.copy()

    def count_drops(self, msg_id: str) -> int:
        return sum(1 for rec in self._records.values() if msg_id in rec.dropped)

    def seen_by_any(self, msg_id: str) -> bool:
        return any(msg_id in rec.dropped for rec in self._records.values())

    def prune(self, now: float) -> int:
        removed = 0
        for rec in self._records.values():
            stale = [mid for mid, exp in rec.dropped.items() if exp <= now]
            for mid in stale:
                del rec.dropped[mid]
            removed += len(stale)
        return removed

    def __len__(self) -> int:
        return sum(len(rec.dropped) for rec in self._records.values())


MSG_IDS = [f"M{i}" for i in range(6)]
STORES = st.integers(min_value=0, max_value=4)
DROP = st.tuples(st.just("drop"), STORES, st.sampled_from(MSG_IDS),
                 st.integers(min_value=0, max_value=200))
MERGE = st.tuples(st.just("merge"), STORES, STORES)
PRUNE = st.tuples(st.just("prune"), STORES)
# Restore store i from a capture of itself, into a new store object or in
# place.
RESTORE = st.tuples(st.just("restore"), STORES, st.booleans())
# Gossip-heavy: records must live long enough to be relayed and replaced.
STEPS = st.one_of(DROP, DROP, MERGE, MERGE, MERGE, MERGE, PRUNE, RESTORE)


def _capture(store) -> list[DropRecord]:
    return [rec.copy() for rec in store._records.values()]


class TestAgainstFullScanModel:
    @settings(max_examples=200)
    @given(
        n_stores=st.integers(min_value=3, max_value=5),
        steps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), STEPS),
            min_size=10,
            max_size=80,
        ),
    )
    def test_every_query_matches_the_full_scan_store(self, n_stores, steps):
        stores = [DroppedListStore(i) for i in range(n_stores)]
        model = [ReferenceStore(i) for i in range(n_stores)]
        now = 0.0
        for advance, (op, i, *args) in steps:
            now += advance  # prunes and drops see non-decreasing times
            i %= n_stores
            if op == "drop":
                msg_id, ttl = args
                stores[i].record_drop(msg_id, now, now + ttl)
                model[i].record_drop(msg_id, now, now + ttl)
            elif op == "merge":
                j = args[0] % n_stores
                stores[i].merge_from(stores[j])
                model[i].merge_from(model[j])
            elif op == "prune":
                assert stores[i].prune(now) == model[i].prune(now)
            else:
                (in_place,) = args
                records = _capture(stores[i])
                target = stores[i] if in_place else DroppedListStore(i)
                target.load(records)
                stores[i] = target
            for store, ref in zip(stores, model):
                assert len(store) == len(ref)
                assert store.holds_drops == any(
                    rec.record_time > -math.inf for rec in ref._records.values()
                )
                for msg_id in MSG_IDS:
                    assert store.count_drops(msg_id) == ref.count_drops(msg_id)
                    assert store.seen_by_any(msg_id) == ref.seen_by_any(msg_id)
                    assert store.has_dropped(msg_id) == ref.has_dropped(msg_id)
                # Only the own record may be one of a never-dropped origin.
                for origin, rec in store.known_records().items():
                    assert origin == store.node_id or rec.record_time > -math.inf
