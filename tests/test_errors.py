"""Exception hierarchy contracts."""

import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for name in ("ConfigurationError", "SimulationError", "ReproBufferError",
                 "MessageNotFoundError", "DuplicateMessageError",
                 "TransferError", "TraceFormatError", "SchedulingError",
                 "FaultInjectionError", "InvariantViolation"):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError), name


def test_deprecated_buffer_error_alias_warns():
    # The old trailing-underscore name remains reachable but warns.  Accessed
    # via getattr-with-a-string: reprolint REP007 bans direct references.
    with pytest.warns(DeprecationWarning, match="ReproBufferError"):
        alias = getattr(errors, "BufferError_")
    assert alias is errors.ReproBufferError


def test_deprecated_alias_forwarded_from_package():
    import repro

    with pytest.warns(DeprecationWarning):
        alias = getattr(repro, "BufferError_")
    assert alias is errors.ReproBufferError


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        errors.NoSuchName  # noqa: B018


def test_invariant_violation_structure():
    exc = errors.InvariantViolation(
        "buffer-accounting", "used=12 expected=10",
        node_id=3, msg_id="M7", time=42.0,
    )
    assert exc.invariant == "buffer-accounting"
    assert exc.node_id == 3 and exc.msg_id == "M7" and exc.time == 42.0
    assert "node=3" in str(exc) and "msg=M7" in str(exc)


def test_message_not_found_is_key_error():
    # Callers using dict-style access patterns can catch KeyError.
    assert issubclass(errors.MessageNotFoundError, KeyError)


def test_trace_format_is_value_error():
    assert issubclass(errors.TraceFormatError, ValueError)


def test_catch_all():
    with pytest.raises(errors.ReproError):
        raise errors.TransferError("x")
