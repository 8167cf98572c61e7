"""REP101 fixture: functions that make runs, called from ``repro.parallel.lane``."""

from repro.rng import RngFactory, derive_seed


def build_run(task):
    """TP x1: a locally computed seed, on a worker path only through
    ``run_local``'s function-local import."""
    seed = task.seed * 2
    return RngFactory(seed)


def build_checked(task):
    """TN: derives its seed."""
    return RngFactory(derive_seed(task.seed, "run"))
