"""Resilient scenario-execution service (docs/service.md).

A supervised, crash-tolerant job service over the existing scenario
machinery: an append-only job journal that replays on restart, a worker
supervisor (:mod:`repro.parallel.supervisor`) with heartbeat/timeout
detection and seeded retry backoff, bounded admission with explicit
backpressure and load shedding, and a result cache keyed by the
deterministic config fingerprint (same fingerprint → same bytes, so
serving a hit is indistinguishable from recomputing).
"""

from repro.service.api import ScenarioService, ServiceStats, Ticket
from repro.service.cache import ResultCache
from repro.service.queue import AdmissionQueue
from repro.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
)

__all__ = [
    "AdmissionQueue",
    "CANCELLED",
    "DONE",
    "FAILED",
    "JobRecord",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "ResultCache",
    "SHED",
    "ScenarioService",
    "ServiceStats",
    "TERMINAL_STATES",
    "Ticket",
]
