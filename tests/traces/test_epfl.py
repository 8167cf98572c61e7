"""EPFL cabspotting loader and the synthetic substitute."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.mobility.taxi import TaxiFleet
from repro.traces.epfl import (
    load_cabspotting_dir,
    parse_cabspotting_file,
    synthetic_epfl,
)


def write_cab(path, rows):
    path.write_text("\n".join(rows) + "\n")


class TestParse:
    def test_reverse_chronological_input_sorted(self, tmp_path):
        p = tmp_path / "new_abc.txt"
        write_cab(p, [
            "37.75200 -122.39400 0 1213084747",
            "37.75134 -122.39488 1 1213084687",
        ])
        times, coords = parse_cabspotting_file(p)
        assert times[0] < times[1]
        assert coords[0][0] == pytest.approx(37.75134)

    def test_rejects_bad_fields(self, tmp_path):
        p = tmp_path / "new_bad.txt"
        write_cab(p, ["37.75 -122.39 0"])
        with pytest.raises(TraceFormatError):
            parse_cabspotting_file(p)

    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "new_empty.txt"
        p.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            parse_cabspotting_file(p)

    def test_whitespace_only_counts_as_empty(self, tmp_path):
        p = tmp_path / "new_ws.txt"
        p.write_text("\n   \n\t\n")
        with pytest.raises(TraceFormatError, match="empty"):
            parse_cabspotting_file(p)

    def test_rejects_non_numeric_fields(self, tmp_path):
        p = tmp_path / "new_nan.txt"
        write_cab(p, ["north west 0 1213084747"])
        with pytest.raises(TraceFormatError, match=r"new_nan\.txt:1"):
            parse_cabspotting_file(p)

    @pytest.mark.parametrize("row", [
        "nan -122.39 0 1213084747",
        "37.75 inf 0 1213084747",
        "37.75 -122.39 0 -inf",
    ])
    def test_rejects_non_finite_fields(self, tmp_path, row):
        p = tmp_path / "new_inf.txt"
        write_cab(p, ["37.75 -122.39 0 1213084687", row])
        with pytest.raises(TraceFormatError, match=r"new_inf\.txt:2: non-finite"):
            parse_cabspotting_file(p)

    def test_rejects_non_utf8_bytes(self, tmp_path):
        """A corrupted download raises a trace error, not UnicodeDecodeError."""
        p = tmp_path / "new_bin.txt"
        p.write_bytes(b"37.75 -122.39 0 1213084747\n\xff\xfe\x80 junk\n")
        with pytest.raises(TraceFormatError, match="not UTF-8"):
            parse_cabspotting_file(p)

    def test_out_of_order_timestamps_are_sorted(self, tmp_path):
        """Shuffled (not just reversed) fixes still come out chronological."""
        p = tmp_path / "new_shuf.txt"
        write_cab(p, [
            "37.753 -122.393 0 1213084700",
            "37.751 -122.391 0 1213084500",
            "37.754 -122.394 0 1213084800",
            "37.752 -122.392 1 1213084600",
        ])
        times, coords = parse_cabspotting_file(p)
        assert list(times) == sorted(times)
        # Coordinates follow their timestamps through the sort.
        assert coords[0][0] == pytest.approx(37.751)
        assert coords[-1][0] == pytest.approx(37.754)


class TestLoadDir:
    def test_builds_playback_mobility(self, tmp_path):
        base = 1213084000
        for cab in ("aa", "bb", "cc"):
            rows = [
                f"37.7{i} -122.4{i} 0 {base + 600 * (5 - i)}" for i in range(5)
            ]
            write_cab(tmp_path / f"new_{cab}.txt", rows)
        mobility = load_cabspotting_dir(tmp_path, n_taxis=2, duration=3000.0,
                                        grid_step=60.0)
        assert mobility.n_nodes == 2
        mobility.initialize(np.random.default_rng(0))
        pos = mobility.advance(100.0)
        assert pos.shape == (2, 2)
        assert np.all(pos >= 0.0)  # shifted to non-negative coordinates

    def test_missing_dir_content(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_cabspotting_dir(tmp_path)

    def test_single_cab_trace(self, tmp_path):
        """One cab file is a degenerate but valid fleet."""
        base = 1213084000
        rows = [f"37.7{i} -122.4{i} 0 {base + 600 * i}" for i in range(4)]
        write_cab(tmp_path / "new_solo.txt", rows)
        mobility = load_cabspotting_dir(tmp_path, n_taxis=5, duration=1800.0,
                                        grid_step=60.0)
        assert mobility.n_nodes == 1
        mobility.initialize(np.random.default_rng(0))
        pos = mobility.advance(0.0)
        assert pos.shape == (1, 2)
        assert np.all(np.isfinite(pos))

    def test_cab_silent_in_window_is_parked(self, tmp_path):
        """A cab with no fixes inside the clip window stays at its first fix."""
        base = 1213084000
        write_cab(tmp_path / "new_aa.txt", [
            f"37.70 -122.40 0 {base}",
            f"37.71 -122.41 0 {base + 300}",
        ])
        # Second cab only reports long after the 600 s window.
        write_cab(tmp_path / "new_bb.txt", [
            f"37.80 -122.50 0 {base + 5000}",
            f"37.81 -122.51 0 {base + 6000}",
        ])
        mobility = load_cabspotting_dir(tmp_path, duration=600.0,
                                        grid_step=60.0)
        assert mobility.n_nodes == 2
        mobility.initialize(np.random.default_rng(0))
        early = mobility.advance(0.0).copy()
        late = mobility.advance(600.0)
        assert np.allclose(early[1], late[1])  # parked cab never moves


class TestSynthetic:
    def test_returns_taxi_fleet_with_paper_default_size(self):
        fleet = synthetic_epfl()
        assert isinstance(fleet, TaxiFleet)
        assert fleet.n_nodes == 200

    def test_kwargs_forwarded(self):
        fleet = synthetic_epfl(n_taxis=30, n_hotspots=3)
        assert fleet.n_nodes == 30
        assert fleet.n_hotspots == 3
