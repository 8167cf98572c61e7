"""Mobility substrate.

All models are **fleet-level**: one model instance owns the positions of all
N nodes and advances them vectorized with NumPy (per the hpc guides, the
movement inner loop is the hot path together with contact detection).

Models:

* :class:`repro.mobility.random_waypoint.RandomWaypoint` — the paper's
  synthetic scenario (Table II).
* :class:`repro.mobility.random_walk.RandomWalk` and
  :class:`repro.mobility.random_direction.RandomDirection` — the other two
  mobility classes for which [22] proves exponential intermeeting tails.
* :class:`repro.mobility.stationary.Stationary` — fixed topologies (tests).
* :class:`repro.mobility.trace.TraceMobility` — playback of recorded
  movement (regular time grid, vectorized interpolation).
* :class:`repro.mobility.taxi.TaxiFleet` — synthetic San-Francisco-taxi-like
  mobility standing in for the EPFL/CRAWDAD trace (see DESIGN.md §1).
"""
