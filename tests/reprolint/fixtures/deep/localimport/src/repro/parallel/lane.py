"""REP101 fixture: worker entry points that import what they call inside
their own bodies."""

from repro.build import build_checked as build_run


def run_local(task):
    """Reaches ``build_run`` only through its function-local import."""
    from repro.build import build_run

    return build_run(task)


def run_module_level(task):
    """TN: the module-level alias names the compliant function."""
    return build_run(task)
