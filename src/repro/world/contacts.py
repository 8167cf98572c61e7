"""Contact (link) detection and the link-key arrays the world diffs.

Given an ``(N, 2)`` position array and a detection radius, the detector
returns every node pair ``(i, j), i < j`` within the radius as one sorted
int64 array of *link keys* ``i * N + j``.  A key sorts exactly like its
pair, so key order is ``sorted(pairs)`` order, and keys stay below
``N * N``, far inside int64 for any fleet this simulator runs.

A pair is a contact iff ``dx*dx + dy*dy <= r*r`` with ``dx = x_i - x_j``
and ``dy = y_i - y_j``, so exact radius ties are contacts;
``tests/world/test_contacts.py`` pins this against an O(N^2) reference.

One implementation serves every fleet size: a Verlet neighbour list
(Verlet, Phys. Rev. 159, 98, 1967) over scipy's ``cKDTree``.  In one 1 s
tick a node moves a few metres (up to 14 m for the fastest taxis) against
a 100 m radio range, so a fresh KD-tree query per tick would find almost
the same pairs every time.  The detector instead *rebuilds* rarely: one
``cKDTree`` range query at the radius plus a skin keeps every pair within
it as a candidate, with a copy of the positions it saw (the anchor).
Each later call only tests the candidates, until some node has moved
half a skin from its anchor; until then no pair outside the candidates
can be in range.  The cache changes the cost, never the result.

Whether a node can have moved that far is known without a look at the
positions when the mobility model moves its nodes along straight legs at
speeds from a bounded range and says so
(:attr:`~repro.mobility.base.MobilityModel.max_speed`).  The world then
hands each call a *drift*, that bound times the time since its last
call, and the detector sums the drifts since its last rebuild: while the
sum stays within half a skin, no node can be farther than that from its
anchor, and the displacement test is skipped.  A model that can jump
(trace playback) or has not been shown not to declares no bound, and
every call tests the positions.

The drift also sizes the skin (:func:`skin_for`): a rebuild makes half
the skin cover :data:`SKIN_CALLS` calls at the drift it was handed, but
never thinner than :data:`SKIN_RATIO` radii (the floor) nor thicker than
:data:`MAX_SKIN_RATIO`.  The paper's 2 m/s walkers and the 10k-node
fleet's 3 m/s ones keep the floor, which their sum passes after 25 and
17 calls.  The 14 m/s taxis' would pass after 3 calls; their skin grows
to 224 m at a 100 m radius, and lasts 8.  Replaying the perf benchmark's
workloads (first instance), the detector rebuilds on 121 of 3,001 calls
for 100 RWP nodes, 3 of 41 for 10k nodes (both as with the floor alone)
and 57 of 501 for 200 taxis (126 with the floor alone), and tests
positions on 120, 2 and 111 calls.  Of the taxis' 111 tests, 55 keep the
candidates, each finding the farthest taxi at 97.6-99.9 % of the
half-skin, so a sum reset to that displacement would pass the limit
again on the next call; the RWP fleet's tests never keep them.  On a 2-core
x86-64 VM (Python 3.11, NumPy 2.4, SciPy 1.17), a call took 13-19 µs
for 100 RWP nodes, against 52-69 µs for a fresh ``cKDTree`` query at the
radius each tick, and 1.0-1.3 ms for 10k nodes, against 5.9-7.9 ms
(best of 5 replays in each of 3 sessions, which spread that much);
:data:`SKIN_CALLS` gives the taxis' replayed cost at each skin.

The world keeps its link set as such an array, and the detector keeps
which of its candidates were in range at its last call, with the keys of
those: its result, replaced, never edited in place.  A call that keeps
its candidates compares the new in-range mask with the old one.  If no
candidate changed sides, it returns its previous result itself (1,834 of
3,001 calls for the 100 RWP nodes), and the world, holding that same
array, has nothing to diff.  Otherwise :meth:`KDTreeDetector.changes`
names the keys that left and joined, read off the flipped candidates,
which sort by key: no search.  After a rebuild, or when the world's link
set is not the detector's last result, :func:`diff_keys` finds the
changes with sorted-array searches.  On the replays the tick's link step
went from 3.4 to 0.4 µs for 100 RWP nodes and from 373 to 23 µs for 10k
nodes, where ~280 of ~10.9k links change per tick.  :func:`split_keys`
turns the changed keys alone into two lists of Python-int ends with one
array division, which the tick walks in step.  :func:`decode` builds
``(i, j)`` tuples for callers that want pairs (snapshots JSON-encode
links; NumPy integers do not encode).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import ConfigurationError

#: The skin at its thinnest, as a multiple of the radius: a rebuild gathers
#: the pairs within ``radius + skin``.  A thinner skin tests fewer
#: candidates per call but rebuilds more often.  For the 2-3 m/s fleets
#: this floor is the skin (:data:`SKIN_CALLS` calls of their drift is well
#: under it); replaying their positions, a call cost the same at every
#: skin from 0.5 to 1.0 radius.
SKIN_RATIO = 1.0

#: How many calls at a rebuild's drift half the skin covers: the skin is
#: ``2 * SKIN_CALLS`` drifts thick, if that is more than the floor.  A
#: fleet then tests positions only every ``SKIN_CALLS`` calls, and
#: rebuilds only if some node has gone far from its anchor by then.
#: Replaying taxi-200's 200 taxis (14 m/s, 100 m radius, 501 calls) on a
#: 2-core x86-64 VM, the detector took 46.5 / 31.0 / 26.9 / 24.3 / 24.2 /
#: 23.9 ms per instance at skins of 0.5 / 1 / 1.5 / 2 / 3 / 4 radii: the
#: cost flattens from 2 radii up, and 8 calls of 14 m make 2.24 radii.
SKIN_CALLS = 8

#: The skin at its thickest, as a multiple of the radius: the candidates
#: grow with the square of ``radius + skin``, and past 2 radii a thicker
#: skin saves the taxis nothing (see :data:`SKIN_CALLS`).  So a coarse
#: world tick (``ScenarioConfig.tick``) or a fast ``speed_range`` cannot
#: make the candidates approach all ``N * (N - 1) / 2`` pairs.
MAX_SKIN_RATIO = 4.0

#: Half the skin, less a margin, as a multiple of the skin: the largest
#: displacement from the anchor that keeps the candidates.  A pair left out
#: by a rebuild was more than ``R = r + s`` apart; if neither end has since
#: moved more than ``s/2 * (1 - 1e-9)``, the triangle inequality keeps it
#: more than ``r + 1e-9 * s`` apart.  Each rounding on the way (cKDTree's
#: test at R, the displacement, the filter's ``dx*dx + dy*dy``) errs by a
#: few ulp, ~1e-15 of the distance it measures (~r to ~R for any pair near
#: the boundary; R is at most ``(1 + MAX_SKIN_RATIO) * r``), far inside
#: that gap: a left-out pair cannot pass the filter.
_HALF_SKIN = 0.5 * (1 - 1e-9)


def skin_for(radius: float, drift: float) -> float:
    """The skin a rebuild at *radius* gathers with, given the *drift* the
    call was handed: ``2 * SKIN_CALLS`` drifts, but no thinner than
    ``SKIN_RATIO`` radii and no thicker than ``MAX_SKIN_RATIO``.  An
    infinite or NaN drift claims nothing and gets the floor."""
    skin = radius * SKIN_RATIO
    grown = 2 * SKIN_CALLS * drift
    if skin < grown < math.inf:
        skin = min(grown, radius * MAX_SKIN_RATIO)
    return skin


class KDTreeDetector:
    """A ``cKDTree`` candidate list, rebuilt once a node has moved half a
    skin, that reports which candidates flipped (see the module
    docstring); the detector for every fleet size."""

    def __init__(self) -> None:
        #: Positions at the last rebuild: a copy, since the mobility model
        #: moves its live array in place.  ``None`` until the first call.
        self._anchor: np.ndarray | None = None
        #: The radius and the skin of the last rebuild.
        self._radius = 0.0
        self._skin = 0.0
        #: The candidates: sorted keys and the two ends of each.
        empty = np.empty(0, dtype=np.int64)
        self._keys = empty
        self._ends = (empty, empty)
        #: The drift bounds handed in since the last rebuild, summed: no
        #: node can be farther than this from its anchor.
        self._drift = 0.0
        #: Which candidates the last call found in range, and their keys
        #: (the last result, replaced, never edited in place).
        self._inside = np.empty(0, dtype=bool)
        self._found = empty
        #: ``(before, gone, came)`` after a call that kept its candidates
        #: and saw some flip: the result of the call before it, and the
        #: keys that left and joined.  ``None`` otherwise.
        self._flips: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def pairs(
        self, positions: np.ndarray, radius: float, drift: float = math.inf
    ) -> np.ndarray:
        """Sorted int64 keys ``i * N + j`` of all pairs ``(i, j), i < j``
        with distance <= *radius*.

        *drift* bounds how far any node has moved since the previous call
        (``max_speed * dt`` for a mobility model that declares a speed
        bound); the default, infinity, claims nothing.  While the drifts
        since the last rebuild sum to at most half a skin, no node can
        have left its half-skin, and the positions are not tested.  A call
        without a rebuild returns the previous result itself when no
        candidate changed sides.
        """
        self._check(positions, radius)
        self._flips = None
        if positions.shape[0] < 2:
            return np.empty(0, dtype=np.int64)
        anchor = self._anchor
        if (
            anchor is None
            or anchor.shape != positions.shape
            or radius != self._radius
        ):
            return self._rebuild(positions, radius, drift)
        self._drift += drift
        limit = self._skin * _HALF_SKIN
        # ``not <=``: a NaN drift tests the positions, a NaN displacement
        # rebuilds, and cKDTree rejects it.
        if not self._drift <= limit:
            moved = positions - anchor
            moved *= moved
            if not ((moved[:, 0] + moved[:, 1]).max() <= limit * limit):
                return self._rebuild(positions, radius, drift)
        inside = self._in_range(positions, radius)
        flipped = inside != self._inside
        before = self._found
        if not flipped.any():
            return before
        # Candidates sort by key, so both lists come out in key order.
        changed = self._keys[flipped]
        joined = inside[flipped]
        self._flips = (before, changed[~joined], changed[joined])
        self._inside = inside
        self._found = found = self._keys.compress(inside)
        return found

    def changes(self, old: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """``(gone, came)``: the keys of *old* missing from the last result,
        and those of the last result missing from *old*, read off the
        candidates that flipped; ``None`` unless the last call kept its
        candidates, some flipped, and *old* is the result of the call
        before it."""
        flips = self._flips
        if flips is None or flips[0] is not old:
            return None
        return flips[1], flips[2]

    def _in_range(self, positions: np.ndarray, radius: float) -> np.ndarray:
        """Which candidates are within *radius* at *positions*."""
        i, j = self._ends
        diff = positions.take(i, axis=0)
        diff -= positions.take(j, axis=0)
        diff *= diff
        return diff[:, 0] + diff[:, 1] <= radius * radius

    def _rebuild(
        self, positions: np.ndarray, radius: float, drift: float
    ) -> np.ndarray:
        """Gather the candidates within the radius plus a skin sized from
        *drift* (:func:`skin_for`); the keys of those within the radius."""
        n = positions.shape[0]
        self._skin = skin = skin_for(radius, drift)
        ends = cKDTree(positions).query_pairs(
            radius + skin, output_type="ndarray"
        )
        keys = ends[:, 0].astype(np.int64) * n + ends[:, 1]
        # Freed before the in-range test below: 16 bytes a candidate.
        del ends
        keys.sort()
        self._keys = keys
        self._ends = np.divmod(keys, n)
        self._anchor = positions.copy()
        self._radius = radius
        self._drift = 0.0
        self._inside = inside = self._in_range(positions, radius)
        # ``compress``, not ``keys[inside]``: the same keys, and at 10k
        # nodes (43k candidates, a quarter in range) 5x faster.
        self._found = found = keys.compress(inside)
        return found

    @staticmethod
    def _check(positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive: {radius}")
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must have shape (N, 2), got {positions.shape}"
            )


def decode(keys: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The pairs ``(i, j)`` of *keys* over *n* nodes, as Python ints, in
    key order."""
    i, j = split_keys(keys, n)
    return list(zip(i, j))


def split_keys(keys: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """The ends ``(i, j)`` of *keys* over *n* nodes as two lists of Python
    ints, in key order: one array division instead of a tuple per pair."""
    i, j = np.divmod(keys, n)
    return i.tolist(), j.tolist()


def diff_keys(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(gone, came)``: the keys of *old* missing from *new*, and those of
    *new* missing from *old*.  Inputs and outputs are sorted and unique."""
    if old.size == 0 or new.size == 0:
        return old, new
    # Each key's insertion point in the other array holds an equal key iff
    # the key is there; "clip" maps past-the-end points onto the last key.
    gone = old[new.take(np.searchsorted(new, old), mode="clip") != old]
    came = new[old.take(np.searchsorted(old, new), mode="clip") != new]
    return gone, came
