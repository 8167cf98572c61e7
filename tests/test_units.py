"""Unit conversion helpers."""

import pytest

from repro import units


def test_time():
    assert units.minutes(300) == 18000.0


def test_sizes():
    assert units.megabytes(1) == 1024 * 1024
    assert units.megabytes(2.5) == int(2.5 * 1024 * 1024)


def test_bandwidth():
    assert units.kbps(250) == pytest.approx(31250.0)
