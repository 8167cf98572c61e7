"""Worker processes: a plain ordered map and the crash-safe supervisor."""

from repro.parallel.pool import parallel_map
from repro.parallel.supervisor import (
    JobOutcome,
    WorkerSupervisor,
    backoff_delays,
)

__all__ = ["JobOutcome", "WorkerSupervisor", "backoff_delays", "parallel_map"]
