"""Stripe partitioning of the map and ownership of contact pairs.

The shard engine decomposes the *contact plane* spatially: the map's x-axis
is cut into ``shard_count`` contiguous stripes (:func:`stripe_spans`), and
every candidate pair is **owned** by exactly one stripe — the one whose
half-open span contains the pair's midpoint x-coordinate (positions outside
the map clamp to the first/last stripe).  Ownership is a pure function of
the two endpoint coordinates and the stripe edges, so *any* computer of a
pair — a worker owning that stripe, a survivor that inherited it after a
fold, or the coordinator running the stripe inline — reaches the identical
verdict, and the union of owned pairs over all stripes equals the full
detector output for every ``shard_count``.  That identity is what makes
shard results byte-identical to the single-process run and degradation
(reassigning stripes) free of determinism hazards.

A worker never needs the whole fleet to answer for its stripes: a pair
whose midpoint lies in ``[lo, hi)`` has both endpoints within ``radius`` of
the span (the midpoint is within ``radius/2`` of each endpoint, and a
detected pair's endpoints are within ``radius`` of each other), so the
candidate set is the x-window ``[lo - radius, hi + radius]``.  Detection on
that subset uses the same per-pair float arithmetic as detection on the
full array (the KD-tree decides each pair from its two coordinate
rows alone), so subset detection is exactly the restriction of full
detection — including radius-boundary ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel.partition import stripe_spans
from repro.world.contacts import ContactDetector

__all__ = ["StripePlan"]


@dataclass(frozen=True)
class StripePlan:
    """Fixed stripe geometry for one run (width and count never change;
    only the stripe -> worker *assignment* moves during degradation)."""

    width: float
    count: int
    spans: tuple[tuple[float, float], ...]

    @classmethod
    def for_area(cls, area: tuple[float, float], count: int) -> "StripePlan":
        width = float(area[0])
        return cls(
            width=width,
            count=count,
            spans=tuple(stripe_spans(width, count)),
        )

    def _inner_edges(self) -> np.ndarray:
        """The count-1 internal cut points (span lower bounds except 0)."""
        return np.asarray([lo for lo, _ in self.spans[1:]], dtype=np.float64)

    def owners(self, mid_x: np.ndarray) -> np.ndarray:
        """Owning stripe index for each midpoint x (clamped at the ends).

        ``searchsorted(edges, mid, side="right")`` counts internal edges
        <= mid, which is exactly the span index; midpoints left of the map
        get stripe 0 and midpoints at/after the last edge get the final
        stripe, so every float owns exactly one stripe.
        """
        return np.searchsorted(self._inner_edges(), mid_x, side="right")

    def candidate_indices(
        self, positions: np.ndarray, stripes: tuple[int, ...], radius: float
    ) -> np.ndarray:
        """Global node indices (ascending) that can appear in a pair owned
        by any stripe in *stripes* — the stripe windows padded by *radius*."""
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive: {radius}")
        x = positions[:, 0]
        mask = np.zeros(len(x), dtype=bool)
        for s in stripes:
            if not 0 <= s < self.count:
                raise ConfigurationError(
                    f"stripe {s} out of range for {self.count} stripes"
                )
            lo, hi = self.spans[s]
            mask |= (x >= lo - radius) & (x <= hi + radius)
        return np.nonzero(mask)[0]

    def owned_pairs(
        self,
        positions: np.ndarray,
        radius: float,
        detector: ContactDetector,
        stripes: tuple[int, ...],
    ) -> list[tuple[int, int]]:
        """All detector pairs owned by *stripes*, as sorted global pairs.

        Runs *detector* on the candidate subset only, maps local indices
        back to global ids (the candidate index array is ascending, so
        local ``a < b`` implies global ``i < j``), then keeps the pairs
        whose midpoint ownership lands in *stripes*.
        """
        if not stripes:
            return []
        idx = self.candidate_indices(positions, stripes, radius)
        if idx.size < 2:
            return []
        local = detector.pairs(positions[idx], radius)
        if not local:
            return []
        arr = np.asarray(sorted(local), dtype=np.int64)
        gi = idx[arr[:, 0]]
        gj = idx[arr[:, 1]]
        mid = 0.5 * (positions[gi, 0] + positions[gj, 0])
        keep = np.isin(self.owners(mid), np.asarray(stripes, dtype=np.int64))
        return [(int(a), int(b)) for a, b in zip(gi[keep], gj[keep])]
