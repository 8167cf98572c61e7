"""The vector engine backend's world: array-native link bookkeeping.

:class:`VectorWorld` replaces the scalar tick's set-of-tuples link pipeline
(detector set -> heterogeneous filter -> down filter -> two set differences
-> sorted iteration) with sorted int64 key arrays end to end.  Only the
per-tick *delta* — links that actually went up or down — ever touches
Python objects, so the cost per tick is O(pairs-in-range) NumPy work plus
O(changed links) event dispatch, instead of O(pairs-in-range) tuple/set
churn.

Determinism contract (pinned by ``tests/vector/test_equivalence.py``):

* the same pairs are detected (bit-identical distance math, see
  :mod:`repro.vector.kernels`);
* ``link.down`` then ``link.up`` events fire in ascending ``(i, j)`` order,
  exactly like the scalar world's ``sorted()`` iterations;
* ``self.links`` holds the *pre-tick* set while link handlers run and the
  post-tick set afterwards, matching the scalar world's assign-after-fire;
* faults (:meth:`set_node_down`, :meth:`force_link_down`) and snapshot
  restore mutate ``links`` through the scalar entry points; the key mirror
  re-syncs lazily on the next tick.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.net.transfer import TransferManager
from repro.obs.profiler import timed
from repro.vector.kernels import (
    contact_keys_grid,
    contact_keys_matrix,
    filter_heterogeneous_keys,
    key_delta,
    mask_down_keys,
    pairs_to_keys,
)
from repro.world.contacts import ContactDetector
from repro.world.node import Node
from repro.world.world import World, routing_phase

__all__ = ["VectorWorld", "make_contact_kernel"]

#: Fleet size above which the auto contact backend switches from the dense
#: upper-triangle broadcast to uniform-grid binning (mirrors
#: ``make_detector``'s size-based default).
GRID_THRESHOLD = 512


def make_contact_kernel(n_nodes: int, kind: str | None = None):
    """Pick the contact kernel: explicit *kind* or a size-based default."""
    if kind is None:
        kind = "matrix" if n_nodes <= GRID_THRESHOLD else "grid"
    if kind == "matrix":
        return contact_keys_matrix
    if kind == "grid":
        return contact_keys_grid
    raise ConfigurationError(
        f"unknown contact backend {kind!r}; expected 'matrix' or 'grid'"
    )


class VectorWorld(World):
    """Struct-of-arrays world tick (see module docstring)."""

    def __init__(
        self,
        sim,
        mobility: MobilityModel,
        nodes: list[Node],
        transfer_manager: TransferManager,
        detector: ContactDetector | None = None,
        tick: float = 1.0,
        contact_backend: str | None = None,
    ) -> None:
        # The links property setter runs during super().__init__; seed its
        # backing fields first.
        self._links_set: set[tuple[int, int]] = set()
        self._link_keys = np.empty(0, dtype=np.int64)
        self._keys_dirty = True
        super().__init__(sim, mobility, nodes, transfer_manager, detector, tick)
        self._n = len(self.nodes)
        self._contact_kernel = make_contact_kernel(self._n, contact_backend)

    # -- links mirror ------------------------------------------------------

    # ``links`` stays the public, scalar-compatible view (faults, sanitizer,
    # snapshot capture and restore all read or rebind it); the sorted key
    # array is a cache that re-syncs lazily after out-of-band mutations.
    @property
    def links(self) -> set[tuple[int, int]]:
        return self._links_set

    @links.setter
    def links(self, value: set[tuple[int, int]]) -> None:
        self._links_set = value
        self._keys_dirty = True

    def _sync_keys(self) -> None:
        """Rebuild the key mirror from ``links`` (restore / fault paths)."""
        if self._links_set:
            pairs = np.array(sorted(self._links_set), dtype=np.int64)
            self._link_keys = pairs_to_keys(pairs[:, 0], pairs[:, 1], self._n)
        else:
            self._link_keys = np.empty(0, dtype=np.int64)
        self._keys_dirty = False

    # -- fault hooks (mutate links out of band; invalidate the mirror) -----

    def set_node_down(self, node_id: int) -> None:
        super().set_node_down(node_id)
        self._keys_dirty = True

    def force_link_down(self, i: int, j: int) -> bool:
        changed = super().force_link_down(i, j)
        if changed:
            self._keys_dirty = True
        return changed

    # -- the tick ----------------------------------------------------------

    def update(self) -> None:
        """One world step, array-native (same events as ``World.update``)."""
        now = self.sim.now
        profiler = self.sim.profiler
        with timed(profiler, "movement"):
            self.positions = self.mobility.advance(now)
        with timed(profiler, "contacts"):
            new_keys = self._contact_kernel(self.positions, self._max_range)
            if not self._uniform_range:
                new_keys = filter_heterogeneous_keys(
                    new_keys, self._n, self.positions, self._ranges
                )
            if self.down_nodes:
                new_keys = mask_down_keys(new_keys, self._n, self.down_nodes)

        with timed(profiler, "links"):
            if self._keys_dirty:
                self._sync_keys()
            downs, ups = key_delta(self._link_keys, new_keys)
            n = self._n
            nodes = self.nodes
            down_pairs = [(key // n, key % n) for key in downs.tolist()]
            up_pairs = [(key // n, key % n) for key in ups.tolist()]
            # Ascending key order == the scalar world's sorted (i, j) tuple
            # order; ``links`` still exposes the pre-tick set while the
            # handlers run, exactly like the scalar assign-after-fire.
            for i, j in down_pairs:
                self._link_down(nodes[i], nodes[j])
            for i, j in up_pairs:
                self._link_up(nodes[i], nodes[j])
            if down_pairs or up_pairs:
                links = self._links_set
                links.difference_update(down_pairs)
                links.update(up_pairs)
            self._link_keys = new_keys
            self._keys_dirty = False

        routing_phase(self.sim, self.nodes, now)
