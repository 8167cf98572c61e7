"""Unit helpers.

The simulator works internally in SI base units:

* time: **seconds** (float)
* distance: **meters** (float)
* data size: **bytes** (int)
* bandwidth: **bytes per second** (float)

The paper specifies parameters in mixed units (minutes, MB, kbps); these
helpers make scenario definitions read like Table II / Table III of the paper.
The ONE simulator treats "250 Kbps" transmit speed as 250 *kilobytes* per
second in its default settings idiom, but the paper means kilobits, which
is what :func:`kbps` converts.
"""

from __future__ import annotations

#: Bytes in a mebibyte (buffer and message sizes use MB = 2**20 following
#: ONE's convention of byte-exact buffer accounting).
MIB = 1024 * 1024


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return float(value) * 60.0


def megabytes(value: float) -> int:
    """Convert mebibytes to bytes (rounded to the nearest byte)."""
    return int(round(float(value) * MIB))


def kbps(value: float) -> float:
    """Convert kilobits per second to bytes per second."""
    return float(value) * 1000.0 / 8.0


#: Default tolerance for sim-time comparisons: far below any simulated
#: interval (ticks are O(1 s), transfer times O(10 s)) yet far above the
#: accumulated rounding error of summing horizon-scale float intervals.
TIME_EPS = 1e-6


def time_eq(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """True when two simulation timestamps are equal within *eps* seconds.

    Simulation times are sums of float intervals, so two logically
    simultaneous timestamps can differ in the last bits once they went
    through different arithmetic.  Exact ``==``/``!=`` on sim-time floats is
    banned in library code (reprolint REP003); use this helper or an
    ordering comparison instead.
    """
    return abs(a - b) <= eps
