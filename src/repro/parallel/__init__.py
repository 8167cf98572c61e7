"""Worker processes: the crash-safe supervisor and its lanes."""

from repro.parallel.supervisor import (
    JobOutcome,
    WorkerSupervisor,
    backoff_delays,
)

__all__ = ["JobOutcome", "WorkerSupervisor", "backoff_delays"]
