"""Listener registry semantics."""

import pytest

from repro.engine.hooks import ListenerRegistry


def test_emit_calls_listeners_in_order():
    reg = ListenerRegistry()
    calls = []
    reg.subscribe("topic", lambda: calls.append("a"))
    reg.subscribe("topic", lambda: calls.append("b"))
    reg.emit("topic")
    assert calls == ["a", "b"]


def test_emit_passes_args():
    reg = ListenerRegistry()
    got = []
    reg.subscribe("t", lambda *a: got.append(a))
    reg.emit("t", 1, "x")
    assert got == [(1, "x")]


def test_emit_unknown_topic_is_noop():
    ListenerRegistry().emit("nothing", 1, 2)


def test_unsubscribe_removes_listener():
    reg = ListenerRegistry()
    calls = []
    listener = lambda: calls.append(1)  # noqa: E731
    reg.subscribe("t", listener)
    reg.unsubscribe("t", listener)
    reg.emit("t")
    assert calls == []


def test_unsubscribe_unknown_listener_raises():
    reg = ListenerRegistry()
    with pytest.raises(ValueError):
        reg.unsubscribe("t", lambda: None)


def test_duplicate_subscription_fires_twice():
    reg = ListenerRegistry()
    calls = []
    listener = lambda: calls.append(1)  # noqa: E731
    reg.subscribe("t", listener)
    reg.subscribe("t", listener)
    reg.emit("t")
    assert calls == [1, 1]


def test_listener_exception_propagates():
    reg = ListenerRegistry()

    def boom():
        raise RuntimeError("broken listener")

    reg.subscribe("t", boom)
    with pytest.raises(RuntimeError, match="broken listener"):
        reg.emit("t")
