"""Stub of the real ``repro.rng`` so fixture imports resolve.

REP101 skips this module by name — the factory's own internals may
construct generators however they like.
"""


class RngFactory:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def stream(self, name: str) -> "RngFactory":
        return self


def derive_seed(base: int, *components: object) -> int:
    return base
