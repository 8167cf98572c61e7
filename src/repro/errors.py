"""Exception hierarchy for the :mod:`repro` DTN simulator.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch simulator failures without masking programming errors (``TypeError``
etc. are deliberately *not* wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario / component was configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class ReproBufferError(ReproError):
    """Buffer accounting violation (offered message cannot fit at all, etc.)."""


class MessageNotFoundError(ReproBufferError, KeyError):
    """Lookup of a message id in a buffer failed."""


class DuplicateMessageError(ReproBufferError):
    """A message id was inserted twice into the same buffer."""


class TransferError(ReproError):
    """Transfer manager misuse (e.g. starting a transfer on a dead link)."""


class TraceFormatError(ReproError, ValueError):
    """An external movement/contact trace file could not be parsed."""


class SchedulingError(ReproError):
    """Event queue misuse (e.g. scheduling into the past)."""


class ObsFormatError(ReproError, ValueError):
    """An observability artifact (event trace / metrics export) could not be
    parsed — malformed JSONL, truncated records, missing required keys."""


class FaultInjectionError(ReproError):
    """Fault injector misuse (double start, unsupported world, etc.)."""


class SnapshotError(ReproError):
    """A simulation snapshot could not be written, read, or restored —
    unknown schema version, checksum mismatch, truncated file, or state
    that does not match the scenario it claims to continue."""


class InvariantViolation(SimulationError):
    """The runtime sanitizer caught a broken simulation invariant.

    Raised by :class:`repro.analysis.sanitizer.Sanitizer` with enough
    structure to locate the bug: which invariant, on which node, for which
    message, at what simulation time.  When the failing run carried an
    event trace, the runner attaches the last trace records as
    :attr:`trace_tail` before the exception propagates (see
    docs/observability.md).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        node_id: int | None = None,
        msg_id: str | None = None,
        time: float | None = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.node_id = node_id
        self.msg_id = msg_id
        self.time = time
        #: Last-N event-trace records leading up to the violation, filled in
        #: by :func:`repro.experiments.runner.run_built` when tracing is on.
        self.trace_tail: list[dict] | None = None
        where = []
        if node_id is not None:
            where.append(f"node={node_id}")
        if msg_id is not None:
            where.append(f"msg={msg_id}")
        if time is not None:
            where.append(f"t={time:.3f}")
        suffix = f" [{' '.join(where)}]" if where else ""
        super().__init__(f"{invariant}: {detail}{suffix}")


def __getattr__(name: str) -> type[ReproError]:
    """Deprecated aliases kept importable for external users.

    ``BufferError_`` (the old trailing-underscore name that shadowed the
    :class:`BufferError` builtin) emits :class:`DeprecationWarning` on
    access; first-party code must use :class:`ReproBufferError` directly
    (enforced by reprolint REP007).
    """
    if name == "BufferError_":
        import warnings

        warnings.warn(
            "repro.errors.BufferError_ is deprecated; use "
            "repro.errors.ReproBufferError",
            DeprecationWarning,
            stacklevel=2,
        )
        return ReproBufferError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
