"""Node wiring."""

from tests.helpers import build_micro_world


def test_neighbor_tracking():
    mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0), (900.0, 900.0)])
    mw.sim.run(until=1.0)
    a, b, c = mw.nodes
    assert a.is_connected_to(b) and b.is_connected_to(a)
    assert not a.is_connected_to(c)
    assert set(a.neighbors) == {1}
