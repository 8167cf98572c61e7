"""Shape comparison utilities — the reproduction contract, as code.

The reproduction checks *orderings and trends*, not absolute numbers (the
substrate is a reimplementation).  These helpers turn a
:class:`~repro.experiments.figures.FigureData` into the facts the paper's
prose asserts: who wins a metric on average, and who wins it at every
point.  The figure benchmarks build their assertions on them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import ConfigurationError


def policy_ranking(
    series: dict[str, Sequence[float]], prefer: str = "max"
) -> list[str]:
    """Policies ordered best-first by their mean over the sweep.

    NaN points are ignored; a policy with no finite points ranks last.
    """
    if prefer not in ("max", "min"):
        raise ConfigurationError(f"prefer must be max|min: {prefer!r}")

    def key(policy: str) -> float:
        values = [v for v in series[policy] if not math.isnan(v)]
        if not values:
            return -math.inf
        mean = sum(values) / len(values)
        return mean if prefer == "max" else -mean

    return sorted(series, key=key, reverse=True)


def dominates(
    series_a: Sequence[float],
    series_b: Sequence[float],
    prefer: str = "max",
) -> bool:
    """True if a is at least as good as b at *every* sweep point.

    This is the strong version of "who wins": SDSRP's overhead claim holds
    in this sense; its delivery claim only holds on means (use
    :func:`policy_ranking` for that).
    """
    if prefer not in ("max", "min"):
        raise ConfigurationError(f"prefer must be max|min: {prefer!r}")
    for va, vb in zip(series_a, series_b, strict=True):
        if math.isnan(va) or math.isnan(vb):
            continue
        if prefer == "max" and va < vb:
            return False
        if prefer == "min" and va > vb:
            return False
    return True
