"""Policy registry: build buffer policies by name.

The experiment harness refers to policies by their paper labels
(``fifo``/``snw-o``/``snw-c``/``sdsrp``); downstream users can register
custom policies with :func:`register_policy` and sweep them with the same
harness.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.policies.base import BufferPolicy

_REGISTRY: dict[str, Callable[..., BufferPolicy]] = {}
_builtins_loaded = False


def register_policy(name: str, factory: Callable[..., BufferPolicy]) -> None:
    """Register *factory* under *name* (overwrites are an error)."""
    _ensure_builtins()
    if name in _REGISTRY:
        raise ConfigurationError(f"policy {name!r} already registered")
    _REGISTRY[name] = factory


def available_policies() -> list[str]:
    """Sorted registered policy names."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def policy_factory(name: str) -> Callable[..., BufferPolicy] | None:
    """The factory registered under *name*, or None."""
    _ensure_builtins()
    return _REGISTRY.get(name)


def make_policy(name: str, **kwargs: object) -> BufferPolicy:
    """Instantiate the policy registered under *name*.

    Keyword arguments are forwarded to the factory (e.g. the fleet's
    ``shared`` state for the SDSRP family).
    """
    factory = policy_factory(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown policy {name!r}; available: {available_policies()}"
        )
    return factory(**kwargs)


def _ensure_builtins() -> None:
    """Populate the registry lazily (avoids import cycles with repro.core)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.core.knapsack import KnapsackSdsrpPolicy
    from repro.core.sdsrp import SdsrpPolicy
    from repro.policies.copies_based import CopiesRatioPolicy
    from repro.policies.fifo import FifoPolicy
    from repro.policies.gbsd import GbsdPolicy
    from repro.policies.lifo import LifoPolicy
    from repro.policies.mofo import MofoPolicy
    from repro.policies.random_drop import RandomPolicy
    from repro.policies.shli import ShliPolicy
    from repro.policies.ttl_based import TtlRatioPolicy

    _REGISTRY.update(
        {
            "fifo": FifoPolicy,
            "lifo": LifoPolicy,
            "random": RandomPolicy,
            "snw-o": TtlRatioPolicy,
            "snw-c": CopiesRatioPolicy,
            "mofo": MofoPolicy,
            "shli": ShliPolicy,
            "sdsrp": SdsrpPolicy,
            "sdsrp-knapsack": KnapsackSdsrpPolicy,
            "gbsd": GbsdPolicy,
        }
    )
