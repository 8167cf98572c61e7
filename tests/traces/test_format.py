"""Movement trace round-trip and error handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.format import read_movement_trace, write_movement_trace


def test_round_trip(tmp_path):
    times = np.array([0.0, 10.0, 20.0])
    positions = np.array(
        [
            [[0.0, 0.0], [5.0, 5.0]],
            [[1.0, 0.0], [5.0, 6.0]],
            [[2.0, 0.0], [5.0, 7.0]],
        ]
    )
    path = tmp_path / "trace.txt"
    write_movement_trace(path, times, positions)
    mobility = read_movement_trace(path)
    mobility.initialize(np.random.default_rng(0))
    assert mobility.n_nodes == 2
    assert np.allclose(mobility.advance(10.0), positions[1])
    assert np.allclose(mobility.advance(15.0), (positions[1] + positions[2]) / 2)


def test_write_shape_mismatch(tmp_path):
    with pytest.raises(TraceFormatError):
        write_movement_trace(tmp_path / "x.txt", np.array([0.0, 1.0]),
                             np.zeros((3, 2, 2)))


def test_read_missing_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a header\n")
    with pytest.raises(TraceFormatError):
        read_movement_trace(p)


def test_read_bad_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 10 0 10 0 10\n0.0 0 1.0\n")
    with pytest.raises(TraceFormatError):
        read_movement_trace(p)


def test_read_sparse_ids_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 10 0 10 0 10\n0.0 0 1.0 1.0\n0.0 5 2.0 2.0\n")
    with pytest.raises(TraceFormatError):
        read_movement_trace(p)


def test_read_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(
        "0 10 0 10 0 10\n"
        "# a comment\n"
        "\n"
        "0.0 0 1.0 1.0\n"
        "10.0 0 2.0 2.0\n"
    )
    mobility = read_movement_trace(p)
    assert mobility.n_nodes == 1


def test_node_missing_early_sample_rejected(tmp_path):
    p = tmp_path / "t.txt"
    # Node 1 first appears at t=10 with nothing at t=0.
    p.write_text(
        "0 10 0 10 0 10\n"
        "0.0 0 1.0 1.0\n"
        "10.0 0 2.0 2.0\n"
        "10.0 1 3.0 3.0\n"
    )
    with pytest.raises(TraceFormatError):
        read_movement_trace(p)


@pytest.mark.parametrize("line", [
    "nan 1 2.0 2.0", "10.0 1 inf 2.0", "10.0 1 2.0 -inf", "10.0 1 2.0 NaN",
])
def test_read_non_finite_value_rejected(tmp_path, line):
    # float() parses these; playback would carry them into contact detection.
    p = tmp_path / "t.txt"
    p.write_text("0 10 0 10 0 10\n0.0 0 1.0 1.0\n0.0 1 3.0 3.0\n" + line + "\n")
    with pytest.raises(TraceFormatError, match=r"t\.txt:4: non-finite"):
        read_movement_trace(p)
