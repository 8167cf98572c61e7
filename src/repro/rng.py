"""Deterministic random-number management.

Every stochastic component (mobility models, message generator, tie-breaking
in policies) draws from its own :class:`numpy.random.Generator`, spawned from
a single scenario seed via :func:`numpy.random.SeedSequence.spawn`.  This
gives two properties the experiment harness relies on:

* **Reproducibility** — the same scenario seed yields bit-identical runs.
* **Parallel safety** — sweep workers each receive independent, collision-free
  streams, so a parallel sweep produces exactly the same numbers as a serial
  one (tested in ``tests/parallel/test_pool.py``).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np


class RngFactory:
    """Spawns named, independent random generators from one root seed.

    Streams are keyed by name; asking for the same name twice returns
    generators with identical state sequences only if created in the same
    order, so components should each request exactly one stream at set-up.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(int(seed))
        self._spawned: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically.

        The stream for a given (root seed, name) pair is always the same,
        independent of creation order, because the child seed is derived by
        hashing the *full* name into the spawn key.  (An earlier version
        keyed on the first 8 bytes only, which made ``"policy.random.1"``
        and ``"policy.random.2"`` collide into identical streams; node-
        scoped stream names rely on the full-name hash.)
        """
        if name not in self._spawned:
            # Derive a stable 64-bit key from the name so stream identity
            # does not depend on request order.  The root's own spawn_key is
            # preserved so children of spawn() stay mutually independent.
            key = _fnv1a(name.encode("utf-8"))
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(*self._root.spawn_key, key),
            )
            self._spawned[name] = np.random.default_rng(child)
        return self._spawned[name]

    def spawn(self, n: int) -> Iterator["RngFactory"]:
        """Spawn *n* independent child factories (for sweep workers)."""
        for seq in self._root.spawn(n):
            yield RngFactory(seq)

    # -- snapshot support --------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Capture every spawned stream's bit-generator state.

        The returned structure is JSON-serializable (PCG64 exposes its state
        as a nested dict of ints/strings) and is consumed by
        :meth:`restore_state` and :mod:`repro.snapshot`.
        """
        return {
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._spawned.items()
            }
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore stream states captured by :meth:`state_dict`.

        Streams are (re)created by name — :meth:`stream` derives them purely
        from (root seed, name) — then their bit-generator state is overwritten
        so subsequent draws continue exactly where the capture left off.
        Spawned streams not present in *state* are left untouched.
        """
        for name, bg_state in state["streams"].items():
            self.stream(name).bit_generator.state = bg_state


def _fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash (stable across platforms and Python versions)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


def derive_seed(base_seed: int, *components: int | str) -> int:
    """Derive a deterministic 63-bit seed from a base seed and labels.

    Used by the sweep engine so that (scenario, parameter point, replicate)
    always maps to the same seed regardless of execution order or worker
    placement.
    """
    acc = np.uint64(base_seed) ^ np.uint64(0x9E3779B97F4A7C15)
    for comp in components:
        if isinstance(comp, str):
            value = np.uint64(_fnv1a(comp.encode("utf-8")))
        else:
            value = np.uint64(int(comp) & 0xFFFFFFFFFFFFFFFF)
        acc = np.uint64(
            (int(acc) ^ int(value)) * 0x9E3779B97F4A7C15 % (1 << 64)
        )
        acc = np.uint64((int(acc) >> 29 ^ int(acc)) * 0xBF58476D1CE4E5B9 % (1 << 64))
    return int(acc) & 0x7FFFFFFFFFFFFFFF
