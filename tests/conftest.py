"""Shared pytest configuration."""

from __future__ import annotations

try:
    from hypothesis import HealthCheck, settings
except ModuleNotFoundError:
    # The CI smoke jobs install pytest but not hypothesis, and run only
    # suites without property tests.
    pass
else:
    # Property tests exercise simulation code whose first call may be slow
    # (numpy warm-up); relax the per-example deadline accordingly.
    settings.register_profile(
        "repro",
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repro")
