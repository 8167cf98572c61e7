"""repro — a reproduction of Wang et al., "A Buffer Management Strategy on
Spray and Wait Routing Protocol in DTNs" (ICPP 2015).

The package is both a general DTN simulator (an ONE-style substrate built
from scratch: engine, mobility, radio/contacts, buffers, transfers, routing)
and the paper's contribution, the SDSRP buffer-management policy, plus the
harness that regenerates every figure of the paper's evaluation.

Quick start::

    from repro.experiments import random_waypoint_scenario, run_scenario

    summary = run_scenario(random_waypoint_scenario(policy="sdsrp", seed=7))
    print(summary.delivery_ratio, summary.overhead_ratio)

Subpackages
-----------

========================  ====================================================
:mod:`repro.engine`       discrete-event core (clock, events, simulator)
:mod:`repro.world`        nodes, radios, contact detection, the world loop
:mod:`repro.mobility`     RWP / walk / direction / trace / taxi mobility
:mod:`repro.net`          messages, buffers, transfers, traffic generation
:mod:`repro.routing`      Spray-and-Wait and baseline routers
:mod:`repro.policies`     buffer policies (FIFO, SnW-O, SnW-C, extras)
:mod:`repro.core`         **SDSRP** — the paper's contribution
:mod:`repro.traces`       movement trace I/O, EPFL loader
:mod:`repro.reports`      metrics (delivery/hops/overhead), contact stats
:mod:`repro.analysis`     exponential fits (Fig. 3), priority curves (Fig. 4)
:mod:`repro.experiments`  scenario presets, sweeps, figure generators, CLI
:mod:`repro.parallel`     worker processes: crash-safe supervised lanes
========================  ====================================================
"""

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    InvariantViolation,
    ReproBufferError,
    ReproError,
    SimulationError,
    TraceFormatError,
    TransferError,
)

__version__ = "1.2.0"

__all__ = [
    "ConfigurationError",
    "FaultInjectionError",
    "InvariantViolation",
    "ReproBufferError",
    "ReproError",
    "SimulationError",
    "TraceFormatError",
    "TransferError",
    "__version__",
]
