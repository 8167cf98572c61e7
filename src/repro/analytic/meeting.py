"""Pairwise intermeeting-rate estimation for the analytic backend.

Every mean-field model in this package is parameterized by one number: the
rate λ at which a given node *pair* comes into radio contact.  Two
estimators provide it (``docs/analytic.md`` derives both):

* **Derived** — Groenevelt's mean-field result for waypoint mobilities in
  a rectangle of area A: ``λ = 2 · w · r · E[v*] / A`` with transmission
  range r, average relative speed ``E[v*]`` and the waypoint constant w
  (≈1.3683 for random waypoint, 1.0 for isotropic direction models).
  Pause time scales the relative speed by the fraction of time a node
  spends moving.  Pure arithmetic on the config — valid at any fleet size,
  which is what lets a million-node query run without any simulation.
* **Calibrated** — the empirical fallback for mobilities whose spatial
  structure defeats the uniform-density assumption (the taxi fleet's
  hotspot clustering roughly doubles contact rates): run a short,
  traffic-free, capped-fleet scalar simulation at matched node density and
  read λ off the observed contact count.  Seeded from the scenario seed,
  so the estimate — and everything derived from it — is deterministic.

:func:`meeting_rate` picks per mobility kind (``METHOD_AUTO``); tests and
the docs can force either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.rng import derive_seed

__all__ = [
    "METHOD_AUTO",
    "METHOD_CALIBRATED",
    "METHOD_DERIVED",
    "MeetingRate",
    "meeting_rate",
]

METHOD_AUTO = "auto"
METHOD_DERIVED = "derived"
METHOD_CALIBRATED = "calibrated"

#: Groenevelt's waypoint constant: the spatial node distribution of random
#: waypoint concentrates mass in the middle of the area, raising the
#: meeting rate over a uniform layout by this factor.
RWP_CONSTANT = 1.3683
#: Isotropic models (random direction / random walk) keep a uniform
#: stationary distribution, so the constant is 1.
ISOTROPIC_CONSTANT = 1.0

#: Mobility kinds with a derived closed form.  The taxi fleet is excluded:
#: its hotspot attraction concentrates the fleet far beyond what any
#: uniform-density constant captures, so it always calibrates.
DERIVED_MOBILITIES = ("rwp", "random-walk", "random-direction")

#: Calibration run shape: fleets are capped (density preserved by shrinking
#: the area) and the horizon bounded so the fallback stays interactive.
CALIBRATION_MAX_NODES = 40
CALIBRATION_HORIZON = 3000.0

#: Mean waypoint-leg length in a unit square (standard RWP constant); legs
#: in an a×b rectangle scale with sqrt(a·b).
_UNIT_SQUARE_LEG = 0.5214

#: TaxiFleet defaults (repro.mobility.taxi) — the calibration *scenario*
#: uses the real model; these only seed the derived cross-check in tests.
_TAXI_SPEED = (4.0, 14.0)
_TAXI_PAUSE = (10.0, 120.0)


@dataclass(frozen=True)
class MeetingRate:
    """One pairwise meeting-rate estimate and its provenance."""

    #: λ — contacts per second for a given node pair.
    rate: float
    #: ``METHOD_DERIVED`` or ``METHOD_CALIBRATED``.
    method: str
    #: Human-readable note on how the number was obtained.
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.rate > 0.0 or not math.isfinite(self.rate):
            raise ConfigurationError(
                f"meeting rate must be positive and finite: {self.rate}"
            )

    @property
    def mean_intermeeting(self) -> float:
        """E[I] = 1/λ — mean pairwise intermeeting time in seconds."""
        return 1.0 / self.rate


def _mean(pair: tuple[float, float]) -> float:
    return 0.5 * (pair[0] + pair[1])


def _moving_fraction(
    speed_range: tuple[float, float],
    pause_range: tuple[float, float],
    area: tuple[float, float],
) -> float:
    """Fraction of time a waypoint node spends moving (vs paused)."""
    speed = _mean(speed_range)
    if speed <= 0:
        return 0.0
    leg = _UNIT_SQUARE_LEG * math.sqrt(area[0] * area[1])
    move_time = leg / speed
    pause_time = _mean(pause_range)
    return move_time / (move_time + pause_time)


def _relative_speed(speed: float, moving: float) -> float:
    """E[v*] — mean relative speed between two nodes.

    Both moving with isotropic headings: ``(4/π)·v``.  Exactly one moving:
    the mover's own speed.  Both paused contributes zero.
    """
    both = moving * moving
    one = 2.0 * moving * (1.0 - moving)
    return both * (4.0 / math.pi) * speed + one * speed


def derived_rate(config: ScenarioConfig) -> MeetingRate:
    """Groenevelt's formula evaluated on the scenario's mobility fields."""
    if config.mobility not in DERIVED_MOBILITIES:
        raise ConfigurationError(
            f"no derived meeting-rate formula for mobility "
            f"{config.mobility!r}; expected one of {DERIVED_MOBILITIES} "
            "(taxi/trace scenarios calibrate from a short run instead)"
        )
    w = RWP_CONSTANT if config.mobility == "rwp" else ISOTROPIC_CONSTANT
    area = config.area[0] * config.area[1]
    if area <= 0:
        raise ConfigurationError(f"degenerate area {config.area}")
    moving = _moving_fraction(config.speed_range, config.pause_range, config.area)
    v_rel = _relative_speed(_mean(config.speed_range), moving)
    if v_rel <= 0:
        raise ConfigurationError(
            "derived meeting rate needs a positive mean speed; "
            f"got speed_range={config.speed_range}"
        )
    rate = 2.0 * w * config.radio_range * v_rel / area
    return MeetingRate(
        rate=rate,
        method=METHOD_DERIVED,
        detail=(
            f"2·{w:.4f}·r({config.radio_range:.0f} m)"
            f"·E[v*]({v_rel:.2f} m/s)/A({area:.0f} m²)"
        ),
    )


def _calibration_config(config: ScenarioConfig) -> ScenarioConfig:
    """The short, traffic-free scenario the calibration run executes.

    The fleet is capped at :data:`CALIBRATION_MAX_NODES` with the area
    shrunk to preserve node density (the meeting rate of a *pair* is
    density-free only in the uniform case; clustered mobilities keep their
    per-pair statistics when density is held).  Traffic is pushed past the
    horizon — contacts are a pure mobility property (the fig3 idiom).
    """
    n_nodes = min(config.n_nodes, CALIBRATION_MAX_NODES)
    scale = n_nodes / config.n_nodes
    w, h = config.area
    side = math.sqrt(scale)
    horizon = min(config.sim_time, CALIBRATION_HORIZON)
    return config.replace(
        name=f"{config.name}-calibration",
        engine_backend="scalar",
        n_nodes=n_nodes,
        area=(w * side, h * side),
        sim_time=horizon,
        interval_range=(horizon * 10.0, horizon * 10.0 + 1.0),
        policy="fifo",
        router="direct",
        seed=derive_seed(config.seed, "analytic.calibration"),
        faults=None,
        sanitize=False,
        obs_interval=0.0,
        trace_capacity=0,
        profile=False,
        snapshot_every=0.0,
        snapshot_to=None,
    )


def calibrated_rate(config: ScenarioConfig) -> MeetingRate:
    """λ from a short seeded simulator run (see module docstring).

    The estimator is the observed contact count over the pair-time product:
    ``λ ≈ contacts / (T · N(N−1)/2)``.  Counting *contacts* rather than
    intermeeting gaps sidesteps the censoring bias of short runs (a pair
    must meet twice to yield one gap, but every meeting counts here).
    """
    # Imported lazily: repro.experiments.runner dispatches analytic configs
    # into this package, so a module-level import would be a cycle.
    from repro.experiments.runner import build_scenario

    calib = _calibration_config(config)
    built = build_scenario(calib)
    built.sim.run()
    contacts = built.contacts.contact_count
    pairs = calib.n_nodes * (calib.n_nodes - 1) / 2.0
    if contacts <= 0:
        raise ConfigurationError(
            f"calibration run for {config.name!r} observed no contacts in "
            f"{calib.sim_time:.0f} s with {calib.n_nodes} nodes; the "
            "scenario is too sparse for the analytic backend"
        )
    rate = contacts / (calib.sim_time * pairs)
    return MeetingRate(
        rate=rate,
        method=METHOD_CALIBRATED,
        detail=(
            f"{contacts} contacts / ({calib.sim_time:.0f} s × "
            f"{pairs:.0f} pairs), {calib.n_nodes}-node seeded run"
        ),
    )


def meeting_rate(config: ScenarioConfig, method: str = METHOD_AUTO) -> MeetingRate:
    """The scenario's pairwise meeting rate λ.

    ``METHOD_AUTO`` uses the derived formula for uniform waypoint
    mobilities and calibration for everything else (taxi).
    """
    if method == METHOD_DERIVED:
        return derived_rate(config)
    if method == METHOD_CALIBRATED:
        return calibrated_rate(config)
    if method != METHOD_AUTO:
        raise ConfigurationError(
            f"unknown meeting-rate method {method!r}; expected "
            f"{(METHOD_AUTO, METHOD_DERIVED, METHOD_CALIBRATED)}"
        )
    if config.mobility in DERIVED_MOBILITIES:
        return derived_rate(config)
    return calibrated_rate(config)
