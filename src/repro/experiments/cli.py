"""Command-line interface: ``python -m repro.experiments`` / ``repro-experiments``.

Subcommands regenerate the paper's artifacts::

    repro-experiments run  --scenario rwp --policy sdsrp          # one run
    repro-experiments fig3 --scenario epfl                        # distribution fit
    repro-experiments fig4                                        # priority curves
    repro-experiments fig8 --axis copies --workers 8              # reduced scale
    repro-experiments fig8 --axis copies --full --workers 16      # paper scale
    repro-experiments fig9 --axis buffer --replicates 3
    repro-experiments fig-validate --axis copies                  # analytic overlay

``--json FILE`` additionally dumps the raw series for plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.analysis.taylor import priority_curve
from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments import figures as F
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, format_record
from repro.reports.summary import RunSummary


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=str, default=None, metavar="FILE",
                        help="also dump results as JSON")


def _add_sweep_args(parser: argparse.ArgumentParser,
                    axes: tuple[str, ...]) -> None:
    _add_common(parser)
    parser.add_argument("--axis", choices=axes, default="copies")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale grids (slow)")
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--policies", nargs="+", default=list(F.PAPER_POLICIES))
    parser.add_argument("--resume", type=str, default=None, metavar="PATH",
                        help="JSONL checkpoint file; completed runs are "
                             "reused when re-running after an interruption")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-run failed grid points up to N extra times "
                             "(fresh derived seed per attempt)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-run wall-clock limit; a hung run becomes a "
                             "recorded failure instead of stalling the sweep")


def _dump_json(path: str, payload: Any) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    print(f"wrote {path}")


def _run_analytic(config: ScenarioConfig, args: argparse.Namespace) -> int:
    """The ``run --engine analytic`` path: no simulator is built."""
    from repro.analytic.runner import run_analytic

    if args.from_snapshot:
        raise ConfigurationError(
            "the 'analytic' backend has no simulator state; "
            "--from-snapshot needs the scalar engine"
        )
    result = run_analytic(config)
    summary = result.summary()
    print(f"meeting rate: λ = {result.meeting.rate:.3e} /s "
          f"({result.meeting.method}: {result.meeting.detail})")
    if result.blocking > 0:
        print(f"buffer blocking: ρ = {result.blocking:.3f}")
    print(RunSummary.table_header())
    print(summary.table_row())
    if args.obs_out:
        result.write_timeseries(args.obs_out)
        print(f"wrote {args.obs_out}")
    if args.json:
        _dump_json(args.json, summary.as_dict())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = F.preset(args.scenario).replace(
        policy=args.policy, seed=args.seed, initial_copies=args.copies,
        engine_backend=args.engine,
    )
    if args.reduced:
        config = F.reduced(config)
    # Every simulator-path flag goes into the config, so an analytic run
    # rejects out-of-envelope requests (--churn, --trace, --sanitize,
    # --profile, --snapshot-every) in _validate_analytic instead of
    # silently ignoring them.
    if args.churn:
        duty = config.sim_time / 5.0
        config = config.replace(faults=FaultPlan(
            churn_fraction=args.churn, churn_off_time=duty, churn_on_time=duty
        ))
    config = config.replace(
        sanitize=args.sanitize,
        obs_interval=args.obs_interval if args.obs_out else 0.0,
        trace_capacity=args.trace_capacity if args.trace else 0,
        profile=args.profile,
        snapshot_every=args.snapshot_every,
        snapshot_to=args.snapshot_to,
    )
    if config.engine_backend == "analytic":
        return _run_analytic(config, args)
    if args.from_snapshot:
        from repro.snapshot import read_snapshot, restore

        built = restore(read_snapshot(args.from_snapshot))
        print(f"resumed {built.config.name!r} from {args.from_snapshot} "
              f"at t={built.sim.now:.0f}")
    else:
        built = build_scenario(config)
    try:
        summary = run_built(built)
    except InvariantViolation as exc:
        if exc.trace_tail:
            print(f"invariant violation; last {len(exc.trace_tail)} events:",
                  file=sys.stderr)
            for record in exc.trace_tail:
                sys.stderr.write(format_record(record))
        if args.trace and built.trace is not None:
            built.trace.dump_jsonl(args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
        raise
    print(RunSummary.table_header())
    print(summary.table_row())
    if args.obs_out and built.timeseries is not None:
        built.timeseries.write(args.obs_out)
        print(f"wrote {args.obs_out}")
    if args.trace and built.trace is not None:
        built.trace.dump_jsonl(args.trace)
        print(f"wrote {args.trace}")
    if args.profile and built.profiler is not None:
        print()
        print(built.profiler.table())
    if args.json:
        _dump_json(args.json, summary.as_dict())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """fig8, fig9 and fig-validate: run the sweep, print one table per
    metric and any failed runs, and optionally dump the figure JSON."""
    sweep = F.fig_validate if args.command == "fig-validate" else F.metric_sweep
    data = sweep(
        args.scenario,
        args.axis,
        full=args.full,
        policies=tuple(args.policies),
        replicates=args.replicates,
        workers=args.workers,
        seed=args.seed,
        retries=args.retries,
        timeout=args.timeout,
        resume=args.resume,
    )
    for metric in F.PAPER_METRICS:
        print(data.metric_table(metric))
        print()
    if data.failures:
        print(f"{len(data.failures)} run(s) failed:")
        for failure in data.failures:
            print(f"  {failure.table_row()}")
    if args.json:
        _dump_json(args.json, data.payload())
    return 1 if data.failures else 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    fit, samples = F.fig3_intermeeting(
        scenario=args.scenario, full=args.full, seed=args.seed
    )
    print(f"fig3 ({args.scenario}): {fit.n_samples} intermeeting samples")
    print(f"  E(I) = {fit.mean:.1f} s   λ = {fit.rate:.3e} /s")
    print(f"  KS statistic = {fit.ks_statistic:.4f} (p = {fit.ks_pvalue:.3f})")
    if args.json:
        _dump_json(args.json, {
            "scenario": args.scenario,
            "mean": fit.mean,
            "rate": fit.rate,
            "n_samples": fit.n_samples,
            "ks_statistic": fit.ks_statistic,
            "ks_pvalue": fit.ks_pvalue,
            "samples": samples.tolist(),
        })
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    curves = priority_curve()
    p_r = curves["p_r"]
    ideal = curves["ideal"]
    peak = float(p_r[int(ideal.argmax())])
    print(f"fig4: idealized priority peaks at P(R) = {peak:.4f} "
          f"(theory: 1 - 1/e = {1 - 1 / 2.718281828:.4f})")
    for key in sorted(k for k in curves if k.startswith("taylor")):
        err = float(abs(curves[key] - ideal).max())
        print(f"  {key:<12} max |error| vs idealization = {err:.4f}")
    if args.json:
        _dump_json(args.json, {k: v.tolist() for k, v in curves.items()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the SDSRP paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_common(p_run)
    p_run.add_argument("--scenario", choices=tuple(F.SCENARIOS), default="rwp")
    p_run.add_argument("--policy", default="sdsrp")
    p_run.add_argument("--copies", type=int, default=32)
    p_run.add_argument("--engine", choices=("scalar", "analytic"),
                       default="scalar",
                       help="engine backend: the simulator or the mean-field "
                            "analytic surrogate (docs/analytic.md)")
    p_run.add_argument("--reduced", action="store_true",
                       help="run the reduced-scale variant")
    p_run.add_argument("--churn", type=float, default=0.0, metavar="FRACTION",
                       help="cycle this fraction of nodes off/on "
                            "(1/5-horizon duty cycle)")
    p_run.add_argument("--sanitize", action="store_true",
                       help="validate runtime invariants every tick "
                            "(see docs/static_analysis.md)")
    p_run.add_argument("--obs-out", type=str, default=None, metavar="FILE",
                       help="write the metrics time series (.json or .csv; "
                            "see docs/observability.md)")
    p_run.add_argument("--obs-interval", type=float, default=60.0,
                       metavar="SECONDS",
                       help="time-series sample interval (default 60)")
    p_run.add_argument("--trace", type=str, default=None, metavar="FILE",
                       help="write the structured event trace as JSONL "
                            "(also dumped on an invariant violation)")
    p_run.add_argument("--trace-capacity", type=int,
                       default=DEFAULT_TRACE_CAPACITY, metavar="N",
                       help="event-trace ring-buffer size "
                            f"(default {DEFAULT_TRACE_CAPACITY})")
    p_run.add_argument("--profile", action="store_true",
                       help="per-subsystem wall-time breakdown")
    p_run.add_argument("--snapshot-every", type=float, default=0.0,
                       metavar="SECONDS",
                       help="capture a full simulator snapshot every N sim "
                            "seconds (see docs/checkpointing.md)")
    p_run.add_argument("--snapshot-to", type=str, default=None, metavar="FILE",
                       help="rolling snapshot file (gzip JSON, written "
                            "atomically; requires --snapshot-every)")
    p_run.add_argument("--from-snapshot", type=str, default=None,
                       metavar="FILE",
                       help="resume from a snapshot file instead of building "
                            "the scenario from scratch (scenario flags are "
                            "taken from the snapshot)")

    p_fig3 = sub.add_parser("fig3", help="intermeeting distribution fit")
    _add_common(p_fig3)
    p_fig3.add_argument("--scenario", choices=tuple(F.SCENARIOS), default="rwp")
    p_fig3.add_argument("--full", action="store_true")

    p_fig4 = sub.add_parser("fig4", help="priority curves")
    _add_common(p_fig4)

    for scenario, (fig, _) in F.SCENARIOS.items():
        p = sub.add_parser(fig, help=f"{fig} metric sweeps")
        _add_sweep_args(p, tuple(F.AXES))
        p.set_defaults(scenario=scenario)

    p_val = sub.add_parser(
        "fig-validate",
        help="fig8/fig9 sweep with the analytic mean-field overlay "
             "(see docs/analytic.md)",
    )
    _add_sweep_args(p_val, F.VALIDATE_AXES)
    p_val.add_argument("--scenario", choices=tuple(F.SCENARIOS), default="rwp")

    sub.add_parser(
        "chaos",
        help="fuzz fault schedules against the correctness oracles "
             "(see docs/chaos.md; flags are repro-chaos's own)",
        add_help=False,
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        # The chaos harness owns its flag set; delegate wholesale so
        # `repro-experiments chaos --iterations 200` and `repro-chaos
        # --iterations 200` are the same command.
        from repro.chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fig3":
        return _cmd_fig3(args)
    if args.command == "fig4":
        return _cmd_fig4(args)
    if args.command in ("fig8", "fig9", "fig-validate"):
        return _cmd_sweep(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
