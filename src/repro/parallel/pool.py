"""Deterministic ordered process-pool map.

Results come back in input order regardless of completion order, and every
work item carries its own seed (see :func:`repro.rng.derive_seed`), so a
parallel sweep is bit-identical to a serial one — verified in
``tests/parallel/test_pool.py``.

The pool always uses the ``spawn`` start method so sweeps behave identically
across Linux (fork default) and macOS/Windows (spawn default): workers never
inherit lazily-initialized parent state, and fork-unsafe extensions cannot
corrupt a sweep.

:func:`parallel_map` is a plain map: the first exception propagates, and a
hung or dying worker stalls or breaks it.  Work that must survive those runs
on :class:`repro.parallel.supervisor.WorkerSupervisor` instead.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """A sensible worker count: physical parallelism minus one, min 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _pool_context() -> multiprocessing.context.BaseContext:
    """The explicit start method used for every worker pool."""
    return multiprocessing.get_context("spawn")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Apply *fn* to *items*, optionally across processes.

    ``workers=None`` picks :func:`default_workers`; ``workers <= 1`` runs
    serially in-process (no pool overhead, easier debugging, identical
    results).  *fn* and the items must be picklable for the parallel path
    (the pool uses the ``spawn`` start method on every platform).
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Chunked pool.map amortizes IPC for many small items.
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), mp_context=_pool_context()
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
