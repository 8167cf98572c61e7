"""Provenance cycles: methods whose ``self`` reads lead back to themselves.

Each class once sent ``RngEnv`` into unbounded recursion; every draw here
traces to a named stream or a parameter, so no finding is expected.
"""

import numpy as np

from repro.rng import RngFactory


class Rekeyed:
    """A method that reads the attribute it rebinds."""

    def __init__(self, factory: RngFactory) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self._rng = factory.stream("world.links")

    def update(self, new) -> None:
        old = self.keys
        self.keys = new
        del old

    def redraw(self, factory: RngFactory) -> float:
        rng = self._rng
        self._rng = factory.stream("world.links.next")
        return rng.random()


class PingPong:
    """Two methods that read each other's attributes."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.left_rng = rng
        self.right_rng = rng

    def left(self) -> float:
        gen = self.right_rng
        self.left_rng = gen
        return gen.random()

    def right(self) -> float:
        gen = self.left_rng
        self.right_rng = gen
        return gen.random()
