"""Build and run one scenario.

:func:`build_scenario` assembles the full simulator stack from a
:class:`~repro.experiments.scenario.ScenarioConfig`; :func:`run_scenario`
runs it to the horizon and returns a
:class:`~repro.reports.summary.RunSummary`.  Both are importable by worker
processes (no closures), so sweeps parallelize cleanly.

A run imports only the parts its config asks for, each where it is built:
the mobility model and the router the config names (a trace-driven fleet
also imports the movement-trace reader), and the sanitizer, fault
injector, time series, event trace, profiler and snapshotter only when
the config turns them on.  Importing this module loads none of them.

The builder is also the one place that attaches the profiler: when a
config asks for a profile, :func:`_install_profiler` wraps the calls each
phase covers, so no simulator module knows that phases exist.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import SdsrpParams
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, InvariantViolation, SnapshotError
from repro.net.generator import MessageGenerator, TrafficSpec
from repro.net.transfer import TransferManager
from repro.policies.registry import make_policy, policy_factory
from repro.reports.contact_report import ContactReport
from repro.reports.metrics import MetricsCollector
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import RngFactory
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.world import World
from repro.experiments.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector
    from repro.mobility.base import MobilityModel
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.obs.trace import EventTrace
    from repro.policies.base import BufferPolicy
    from repro.routing.base import Router
    from repro.snapshot.snapshotter import PeriodicSnapshotter


@dataclass
class BuiltSimulation:
    """The assembled stack for one run (exposed for tests and examples)."""

    config: ScenarioConfig
    sim: Simulator
    world: World
    nodes: list[Node]
    metrics: MetricsCollector
    contacts: ContactReport
    generator: MessageGenerator
    shared: SdsrpShared | None
    fault_injector: FaultInjector | None = None
    sanitizer: Sanitizer | None = None
    #: Observability collectors (None unless enabled on the config; see
    #: docs/observability.md).  All three are strictly observation-only.
    timeseries: TimeSeriesCollector | None = None
    trace: EventTrace | None = None
    profiler: PhaseProfiler | None = None
    #: The seeded stream factory the stack was built with; required by
    #: :func:`repro.snapshot.save` to capture RNG stream states.
    rng: RngFactory | None = None
    #: Periodic checkpointer (None unless ``config.snapshot_every > 0``).
    snapshotter: "PeriodicSnapshotter | None" = None


def _make_mobility(config: ScenarioConfig) -> MobilityModel:
    if config.mobility == "rwp":
        from repro.mobility.random_waypoint import RandomWaypoint

        return RandomWaypoint(
            config.n_nodes, config.area, config.speed_range, config.pause_range
        )
    if config.mobility == "taxi":
        from repro.mobility.taxi import TaxiFleet

        return TaxiFleet(config.n_nodes, area=config.area)
    if config.mobility == "random-walk":
        from repro.mobility.random_walk import RandomWalk

        return RandomWalk(config.n_nodes, config.area, config.speed_range)
    if config.mobility == "random-direction":
        from repro.mobility.random_direction import RandomDirection

        return RandomDirection(
            config.n_nodes, config.area, config.speed_range, config.pause_range
        )
    if config.mobility == "stationary":
        from repro.mobility.stationary import Stationary

        return Stationary(config.n_nodes, config.area)
    if config.mobility == "trace":
        from repro.traces.format import read_movement_trace

        assert config.trace_path is not None
        mobility = read_movement_trace(config.trace_path)
        if mobility.n_nodes != config.n_nodes:
            raise ConfigurationError(
                f"trace drives {mobility.n_nodes} nodes, scenario wants "
                f"{config.n_nodes}"
            )
        return mobility
    raise ConfigurationError(f"unknown mobility {config.mobility!r}")


#: The name suffix that runs an SDSRP-family policy with exact global
#: knowledge of m and n (``sdsrp-oracle``, ``gbsd-oracle``, ...).
ORACLE_SUFFIX = "-oracle"


def _make_policies(
    config: ScenarioConfig, sim: Simulator
) -> tuple[list[BufferPolicy], SdsrpShared | None]:
    """One policy instance per node, plus the SDSRP shared state if any.

    A registered :class:`SdsrpPolicy` subclass gets one fleet-shared state
    built from ``policy_kwargs``; :data:`ORACLE_SUFFIX` on its name adds a
    :class:`GlobalInfectionOracle` to it.
    """
    name = config.policy.removesuffix(ORACLE_SUFFIX)
    factory = policy_factory(name)
    if not (isinstance(factory, type) and issubclass(factory, SdsrpPolicy)):
        policies = [
            make_policy(config.policy, **config.policy_kwargs)
            for _ in range(config.n_nodes)
        ]
        return policies, None
    params = SdsrpParams(**config.policy_kwargs)
    oracle = None
    if name != config.policy:
        oracle = GlobalInfectionOracle()
        oracle.subscribe(sim)
    shared = SdsrpShared.for_fleet(config.n_nodes, params=params, oracle=oracle)
    policies = [make_policy(name, shared=shared) for _ in range(config.n_nodes)]
    return policies, shared


def _make_routers(
    router: str, nodes: list[Node], policies: list[BufferPolicy]
) -> list[Router]:
    """One *router* per node, around that node's buffer policy.

    The router's module is imported once per build, and each branch calls
    its class by name, so the call graph reaches every constructor.
    """
    pairs = zip(nodes, policies)
    if router in ("snw", "snw-source"):
        from repro.routing.spray_and_wait import SprayAndWaitRouter

        source_spray = router == "snw-source"
        return [
            SprayAndWaitRouter(node, policy, source_spray=source_spray)
            for node, policy in pairs
        ]
    if router == "epidemic":
        from repro.routing.epidemic import EpidemicRouter

        return [EpidemicRouter(node, policy) for node, policy in pairs]
    if router == "direct":
        from repro.routing.direct import DirectDeliveryRouter

        return [DirectDeliveryRouter(node, policy) for node, policy in pairs]
    if router == "first-contact":
        from repro.routing.first_contact import FirstContactRouter

        return [FirstContactRouter(node, policy) for node, policy in pairs]
    if router == "snf":
        from repro.routing.spray_and_focus import SprayAndFocusRouter

        return [SprayAndFocusRouter(node, policy) for node, policy in pairs]
    if router == "prophet":
        from repro.routing.prophet import ProphetRouter

        return [ProphetRouter(node, policy) for node, policy in pairs]
    raise ConfigurationError(f"unknown router {router!r}")


#: Routers whose forwarding conserves spray tokens, enabling the sanitizer's
#: copy-conservation invariant.  Source spray ("snw-source") and
#: clone-everything routers (epidemic, prophet, …) inflate token sums by
#: design, so only the check's cheaper invariants apply to them.
_TOKEN_CONSERVING_ROUTERS = ("snw", "snf")


def _install_profiler(
    profiler: PhaseProfiler,
    world: World,
    routers: list[Router],
    generator: MessageGenerator,
) -> None:
    """Time each phase by wrapping the calls it covers, as attributes of
    the instances that make them: the one map from phases to code
    (``docs/observability.md`` tabulates it).  Every call site looks its
    callee up on the instance, so the wrappers see every call."""
    wrap = profiler.wrap
    mobility = world.mobility
    mobility.advance = wrap("movement", mobility.advance)
    world.detect_links = wrap("contacts", world.detect_links)
    world.relink = wrap("links", world.relink)
    due = world.due
    due.purge = wrap("routing", due.purge)
    due.retry = wrap("routing", due.retry)
    world.announce = wrap("observers", world.announce)
    for router in routers:
        router.select_next = wrap("routing", router.select_next)
        router._make_room = wrap("policy", router._make_room)
    manager = world.transfer_manager
    manager._complete = wrap("transfer", manager._complete)
    generator._generate = wrap("traffic", generator._generate)


def build_scenario(config: ScenarioConfig) -> BuiltSimulation:
    """Assemble the simulator stack without running it."""
    if config.engine_backend == "analytic":
        raise ConfigurationError(
            f"engine_backend {config.engine_backend!r} runs no simulator; "
            "use run_scenario() (which dispatches to repro.analytic) "
            "instead of build_scenario()"
        )
    sim = Simulator(end_time=config.sim_time)
    rng = RngFactory(config.seed)

    mobility = _make_mobility(config)
    radio = Radio(range_m=config.radio_range, bandwidth_Bps=config.bandwidth)
    nodes = [
        Node(i, radio, buffer_capacity=config.buffer_bytes)
        for i in range(config.n_nodes)
    ]
    transfer_manager = TransferManager(sim)
    world = World(sim, mobility, nodes, transfer_manager, tick=config.tick)

    policies, shared = _make_policies(config, sim)
    routers = _make_routers(config.router, nodes, policies)
    for router in routers:
        router.deliverable_first = config.deliverable_first
        router.bind(sim, transfer_manager, config.n_nodes, rng=rng)

    metrics = MetricsCollector()
    metrics.subscribe(sim)
    contacts = ContactReport()
    contacts.subscribe(sim)

    generator = MessageGenerator(
        sim,
        nodes,
        TrafficSpec(
            interval_range=config.interval_range,
            message_size=config.message_size,
            ttl=config.ttl,
            initial_copies=config.initial_copies,
            size_range=config.message_size_range,
        ),
        rng.stream("traffic"),
    )

    profiler = None
    if config.profile:
        from repro.obs.profiler import PhaseProfiler

        profiler = PhaseProfiler()
        # Before the starts, which arm the first tick and message events.
        _install_profiler(profiler, world, routers, generator)

    world.start(rng.stream("mobility"))
    generator.start()

    fault_injector = None
    if config.faults is not None and config.faults.enabled:
        from repro.faults.injector import FaultInjector

        fault_injector = FaultInjector(world, config.faults, rng.stream("faults"))
        fault_injector.start()

    sanitizer = None
    # The config asks for the sanitizer, or REPRO_SANITIZE turns it on for
    # every run of a process (make sanitize-smoke, CI).
    env = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if config.sanitize or env in ("1", "true", "yes"):
        from repro.analysis.sanitizer import Sanitizer

        sanitizer = Sanitizer(
            world, check_copies=config.router in _TOKEN_CONSERVING_ROUTERS
        )
        sanitizer.subscribe(sim)

    timeseries = None
    if config.obs_interval > 0:
        from repro.obs.timeseries import TimeSeriesCollector

        timeseries = TimeSeriesCollector(
            nodes, metrics, interval=config.obs_interval
        )
        timeseries.subscribe(sim)
    trace = None
    if config.trace_capacity > 0:
        from repro.obs.trace import EventTrace

        trace = EventTrace(capacity=config.trace_capacity)
        trace.subscribe(sim)
    built = BuiltSimulation(
        config=config,
        sim=sim,
        world=world,
        nodes=nodes,
        metrics=metrics,
        contacts=contacts,
        generator=generator,
        shared=shared,
        fault_injector=fault_injector,
        sanitizer=sanitizer,
        timeseries=timeseries,
        trace=trace,
        profiler=profiler,
        rng=rng,
    )
    if config.snapshot_every > 0:
        # Imported here: repro.snapshot.restore imports this module back.
        from repro.snapshot.snapshotter import PeriodicSnapshotter

        built.snapshotter = PeriodicSnapshotter(
            built, every=config.snapshot_every, path=config.snapshot_to
        )
        built.snapshotter.start()
    return built


def run_built(built: BuiltSimulation, wall_start: float | None = None) -> RunSummary:
    """Run an assembled stack to the horizon and summarize it.

    When an :class:`~repro.errors.InvariantViolation` escapes the sanitizer
    and the run carried an event trace, the last
    :data:`~repro.obs.trace.DEFAULT_CONTEXT_EVENTS` trace records are
    attached to the exception as ``trace_tail`` before it propagates — the
    CLI and test harnesses dump them as debugging context.
    """
    if wall_start is None:
        wall_start = time.perf_counter()
    config = built.config
    try:
        built.sim.run()
    except InvariantViolation as exc:
        if built.trace is not None:
            from repro.obs.trace import DEFAULT_CONTEXT_EVENTS

            exc.trace_tail = built.trace.tail(DEFAULT_CONTEXT_EVENTS)
        raise
    if built.timeseries is not None:
        built.timeseries.finalize(built.sim.now)
    metrics = built.metrics
    return RunSummary(
        scenario=config.name,
        policy=config.policy,
        seed=config.seed,
        sim_time=config.sim_time,
        initial_copies=config.initial_copies,
        buffer_bytes=config.buffer_bytes,
        interval_range=config.interval_range,
        created=metrics.created,
        delivered=metrics.delivered,
        relayed=metrics.relayed,
        delivery_ratio=metrics.delivery_ratio,
        average_hopcount=metrics.average_hopcount,
        overhead_ratio=metrics.overhead_ratio,
        average_latency=metrics.average_latency,
        drops=dict(metrics.drops_by_reason),
        faults=dict(metrics.faults_by_kind),
        contacts=built.contacts.contact_count,
        mean_intermeeting=built.contacts.mean_intermeeting(),
        wall_seconds=time.perf_counter() - wall_start,
        profile=built.profiler.as_dict() if built.profiler is not None else {},
    )


def run_scenario(config: ScenarioConfig) -> RunSummary:
    """Build, run to the horizon, and summarize one scenario.

    ``engine_backend="analytic"`` configs never build a simulator: they
    dispatch to the mean-field surrogate
    (:func:`repro.analytic.runner.run_analytic`), whose result renders the
    same :class:`RunSummary` shape — sweeps, figures, the service cache and
    the CLI are backend-agnostic.
    """
    if config.engine_backend == "analytic":
        # Imported lazily: repro.analytic's calibration fallback runs short
        # simulations through build_scenario, so the import must not cycle.
        from repro.analytic.runner import run_analytic

        return run_analytic(config).summary()
    wall_start = time.perf_counter()
    return run_built(build_scenario(config), wall_start=wall_start)


def _try_resume(config: ScenarioConfig) -> BuiltSimulation | None:
    """Restore from the scenario's rolling snapshot file, if one is valid.

    Returns ``None`` (caller builds from scratch) when snapshotting is off,
    no file exists, the file is unreadable/corrupt, or it was written for a
    different configuration.
    """
    if config.snapshot_every <= 0 or not config.snapshot_to:
        return None
    path = Path(config.snapshot_to)
    if not path.exists():
        return None
    from repro.snapshot import read_snapshot, restore
    from repro.snapshot.capture import encode_config
    from repro.snapshot.codec import canonical_json

    try:
        snap = read_snapshot(path)
        if canonical_json(snap.config) != canonical_json(encode_config(config)):
            return None
        return restore(snap)
    except SnapshotError:
        return None


def run_scenario_safe(config: ScenarioConfig) -> RunSummary | FailedRun:
    """:func:`run_scenario`, but failures become :class:`FailedRun` records.

    Any :class:`Exception` (including every :class:`~repro.errors.ReproError`)
    is captured with its traceback instead of propagating, so one bad
    configuration or simulator bug cannot poison a whole sweep.
    ``KeyboardInterrupt``/``SystemExit`` still propagate.

    When the config carries a snapshot file (``snapshot_every`` > 0 and
    ``snapshot_to`` set), a valid snapshot left by a previous attempt is
    resumed from instead of restarting at t=0, and the file is removed once
    the run completes.
    """
    try:
        if config.engine_backend == "analytic":
            return run_scenario(config)
        wall_start = time.perf_counter()
        built = _try_resume(config)
        if built is None:
            built = build_scenario(config)
        summary = run_built(built, wall_start=wall_start)
        if config.snapshot_every > 0 and config.snapshot_to:
            Path(config.snapshot_to).unlink(missing_ok=True)
        return summary
    except Exception as exc:
        return FailedRun(
            scenario=config.name,
            policy=config.policy,
            seed=config.seed,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=traceback.format_exc(),
        )
