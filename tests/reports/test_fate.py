"""Per-message fate report."""

from __future__ import annotations

import csv

from repro.reports.fate import MessageFateReport
from tests.helpers import build_micro_world, make_message


def test_tracks_delivery_lifecycle():
    mw = build_micro_world(points=[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)])
    report = MessageFateReport()
    report.subscribe(mw.sim)
    mw.router(0).create_message(
        make_message(source=0, destination=2, copies=8, size=1000)
    )
    mw.sim.run(until=120.0)
    fate = report.fates["M1"]
    assert fate.delivered
    assert fate.delivery_hops == 2
    assert fate.relays >= 2
    assert fate.latency is not None and fate.latency > 0
    assert report.delivered_fates() == [fate]
    assert report.undelivered_fates() == []


def test_tracks_drops():
    mw = build_micro_world(points=[(0.0, 0.0), (900.0, 900.0)])
    report = MessageFateReport()
    report.subscribe(mw.sim)
    mw.router(0).create_message(make_message(source=0, destination=1, ttl=5.0))
    mw.sim.run(until=20.0)
    fate = report.fates["M1"]
    assert not fate.delivered
    assert fate.drops == {"ttl": 1}
    assert fate.latency is None


def test_csv_export(tmp_path):
    mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0)])
    report = MessageFateReport()
    report.subscribe(mw.sim)
    mw.router(0).create_message(make_message(source=0, destination=1))
    mw.sim.run()
    path = tmp_path / "fates.csv"
    report.write_csv(path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 1
    assert rows[0]["msg_id"] == "M1"
    assert rows[0]["delivered"] == "1"
    assert float(rows[0]["latency"]) > 0
