"""Command-line entry point: regenerate paper tables and figures.

Usage::

    repro-experiments                      # run everything
    repro-experiments table03 figure12     # run a subset
    repro-experiments --domains 5000 --seed 11 table09
    repro-experiments --out-dir runs/      # leave a run manifest

The ``repro`` console script is the same entry point plus the service
subcommands (``repro serve``, ``repro jobs …``, ``repro runs …``) —
those route into :mod:`repro.service.cli`; anything else runs the
experiments directly, exactly as ``repro-experiments`` always has.

Exit codes are part of the contract (and documented in ``--help``):
0 success, 2 usage error, ``EXIT_DIVERGENT`` (3) when
``--fidelity-gate`` trips, ``EXIT_SERVICE`` (4) for service-layer
failures.

With ``--out-dir`` the run writes a content-addressed run directory
(JSON manifest with per-experiment measured/paper/delta/verdict,
fidelity report in text and JSON, the rendered summaries, and the
§2.1 TSV release) — see :mod:`repro.experiments.manifest`.
``--fidelity-gate`` turns any ``divergent`` verdict into a non-zero
exit, the regression gate CI runs at seed scale.

``--epochs N`` switches to longitudinal mode (see :mod:`repro.epochs`):
the experiments re-run at N epochs of an evolving world timeline under
a named ``--epoch-plan``, writing one ``run-<hash>`` directory per
epoch plus a ``series-<hash>/series.json`` with cross-epoch trend
tables.  Epoch 0 is byte-identical to a single-shot run and is the
only epoch the fidelity gate judges.

Observability (see :mod:`repro.obs` and docs/OBSERVABILITY.md):
``--trace-out`` exports the span tree as Chrome ``trace_event`` JSON,
``--metrics-out`` the Prometheus text exposition, ``--events-out`` the
probe-level NDJSON event log; ``-v``/``-q`` steer the package logger.
None of them change a single output byte — instrumented runs produce
the same digests, manifests, and artifacts as bare ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.experiments.context import ExperimentContext
from repro.experiments.fidelity import FidelityReport
from repro.experiments.registry import (
    all_experiments,
    experiment_ids,
    get_experiment,
)
from repro.obs import Observability, configure_logging
from repro.service.cli import (
    EXIT_CODES_HELP,
    EXIT_SERVICE,
    SERVICE_COMMANDS,
)
from repro.world import WorldConfig

#: Exit status when ``--fidelity-gate`` trips (distinct from usage
#: errors, 2, and service-layer errors, :data:`EXIT_SERVICE` = 4).
EXIT_DIVERGENT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Next Stop, the "
            "Cloud' (IMC 2013) from the simulated measurement study. "
            "The 'repro' alias adds service subcommands: repro serve, "
            "repro jobs submit|list|show, repro runs "
            "list|show|compare|rebuild-index."
        ),
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all). Known: "
             f"{', '.join(experiment_ids())}",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--domains", type=int, default=6000,
        help="Alexa list size (the paper's 1M, scaled)",
    )
    parser.add_argument(
        "--wan-rounds", type=int, default=36,
        help="measurement rounds for the §5 campaign (paper: 288)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="forked workers for the parallel campaigns — both the "
             "§2.1 dataset shards and the §5 WAN rounds (0 = "
             "sequential; any value yields bit-identical results)",
    )
    parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="run every campaign under a named outage drill, e.g. "
             "ec2.us-east-1-outage, ec2.us-east-1#0-outage, elb-outage, "
             "isp-outage-7018, or compositions like "
             "ec2.us-east-1-outage+elb-outage (resolved from the "
             "repro.faults registry); drilled runs are exempt from "
             "paper comparison",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="longitudinal mode: run the experiments at N epochs of an "
             "evolving world timeline (epoch 0 is byte-identical to a "
             "single-shot run; later epochs reuse every cached "
             "artifact their evolution steps left untouched) and "
             "write a series.json with cross-epoch trend tables",
    )
    parser.add_argument(
        "--epoch-plan", metavar="NAME", default=None,
        help="named evolution recipe for --epochs (default: "
             "steady-growth; see repro.epochs.named_epoch_plans). "
             "Implies --epochs 3 when given alone",
    )
    parser.add_argument(
        "--artifact-dir", metavar="DIR", default=".repro-artifacts",
        help="directory for the content-addressed artifact cache "
             "(the §5 WAN matrices, keyed on config + code version)",
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="always rebuild; neither read nor write the artifact cache",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the summaries to FILE",
    )
    parser.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="write a run directory under DIR: JSON manifest with "
             "per-experiment measured/paper/delta/verdict, fidelity "
             "report (text + JSON), rendered summaries, and the §2.1 "
             "TSV release",
    )
    parser.add_argument(
        "--fidelity-gate", action="store_true",
        help=f"exit {EXIT_DIVERGENT} if any measured key is judged "
             f"divergent from the paper (no effect on --scenario "
             f"runs, which are exempt)",
    )
    obs = parser.add_argument_group(
        "observability",
        "structured tracing, metrics, and probe-level event logs; "
        "none of these flags change any output byte",
    )
    obs.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the hierarchical span tree as Chrome trace_event "
             "JSON (load via chrome://tracing or Perfetto)",
    )
    obs.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the metrics registry as Prometheus text exposition",
    )
    obs.add_argument(
        "--events-out", metavar="FILE", default=None,
        help="write the probe-level NDJSON event log (one JSON object "
             "per probe, in deterministic grid order regardless of "
             "--workers)",
    )
    obs.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v: INFO, -vv: DEBUG)",
    )
    obs.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors to stderr",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SERVICE_COMMANDS:
        from repro.service.cli import service_main

        return service_main(argv)
    args = build_parser().parse_args(argv)
    if args.list:
        for exp in all_experiments():
            print(f"{exp.experiment_id:10s} §{exp.paper_section:4s} "
                  f"{exp.title}")
        return 0
    from repro.analysis.wan import WanConfig
    from repro.artifacts import ArtifactStore
    from repro.experiments.manifest import RunManifest
    from repro.faults import resolve_scenario
    from repro.sim import set_rng_observer

    configure_logging(verbose=args.verbose, quiet=args.quiet)
    scenario = None
    if args.scenario:
        try:
            scenario = resolve_scenario(args.scenario)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"outage drill: {scenario.name}\n")
    obs = Observability.collecting(events=bool(args.events_out))
    store = (
        None if args.no_artifact_cache
        else ArtifactStore(args.artifact_dir, obs=obs)
    )
    if args.epochs is not None or args.epoch_plan is not None:
        return _run_epoch_series(args, scenario, obs, store)
    context = ExperimentContext(
        WorldConfig(seed=args.seed, num_domains=args.domains),
        WanConfig(rounds=args.wan_rounds, workers=args.workers),
        workers=args.workers,
        artifact_store=store,
        scenario=scenario,
        obs=obs,
    )
    if args.experiments:
        experiments = [get_experiment(e) for e in args.experiments]
    else:
        experiments = all_experiments()
    runs = []
    summaries = []
    previous_observer = obs.install_rng_counter()
    try:
        for exp in experiments:
            start = time.time()
            result = exp.run(context)
            elapsed = time.time() - start
            runs.append((exp, result, elapsed))
            summary = result.summary()
            summaries.append(summary)
            print(summary)
            print(f"({elapsed:.1f}s)\n")
    finally:
        set_rng_observer(previous_observer)
    report = FidelityReport(
        [result.fidelity for _, result, _ in runs
         if result.fidelity is not None],
        scenario=scenario.name if scenario is not None else None,
    )
    print(report.render_text())
    if store is not None:
        stats = store.stats
        print(
            f"\nartifact cache [{args.artifact_dir}]: "
            f"{stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stored"
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(summaries) + "\n")
        print(f"wrote {args.out}")
    if args.out_dir:
        manifest = RunManifest.from_run(context, runs)
        paths = manifest.write(
            args.out_dir,
            results=[result for _, result, _ in runs],
            context=context,
        )
        print(f"run {manifest.run_id}: wrote {paths['manifest']}")
    _export_obs(args, obs)
    if args.fidelity_gate and report.divergent_keys:
        for experiment_id, key in report.divergent_keys:
            print(
                f"fidelity gate: {experiment_id}.{key} is divergent",
                file=sys.stderr,
            )
        return EXIT_DIVERGENT
    return 0


def _export_obs(args, obs: Observability) -> None:
    """Write the --trace-out/--metrics-out/--events-out exports."""
    if args.trace_out:
        obs.tracer.write_chrome(args.trace_out)
        print(f"wrote trace {args.trace_out}")
    if args.metrics_out:
        metrics_parent = os.path.dirname(args.metrics_out)
        if metrics_parent:
            os.makedirs(metrics_parent, exist_ok=True)
        with open(args.metrics_out, "w") as fh:
            fh.write(obs.metrics.render_prometheus())
        print(f"wrote metrics {args.metrics_out}")
    if args.events_out:
        obs.events.write(args.events_out)
        print(f"wrote events {args.events_out}")


def _run_epoch_series(args, scenario, obs, store) -> int:
    """The --epochs branch: one world timeline, N runs.

    Composes with --workers, --scenario, --out-dir, and
    --fidelity-gate (the gate judges epoch 0 only — later epochs
    measure a deliberately evolved world and are exempt).
    """
    from repro.analysis.wan import WanConfig
    from repro.epochs import DEFAULT_EPOCH_PLAN, resolve_epoch_plan
    from repro.epochs.series import run_series
    from repro.sim import set_rng_observer

    try:
        plan = resolve_epoch_plan(args.epoch_plan or DEFAULT_EPOCH_PLAN)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    epochs = args.epochs if args.epochs is not None else 3
    if epochs < 1:
        print(f"error: --epochs must be >= 1, got {epochs}",
              file=sys.stderr)
        return 2
    if args.experiments:
        specs = [get_experiment(e) for e in args.experiments]
    else:
        specs = all_experiments()
    print(f"epoch plan: {plan.name} — {plan.description}\n")
    previous_observer = obs.install_rng_counter()
    try:
        series = run_series(
            specs,
            WorldConfig(seed=args.seed, num_domains=args.domains),
            WanConfig(rounds=args.wan_rounds, workers=args.workers),
            plan,
            epochs,
            workers=args.workers,
            artifact_store=store,
            scenario=scenario,
            obs=obs,
            out_dir=args.out_dir,
        )
    finally:
        set_rng_observer(previous_observer)
    for run in series.epochs:
        changes = sum(
            len(diff.domains) + len(diff.subdomains)
            for diff in run.epoch.diffs
        )
        cache = run.cache_delta
        cache_note = (
            f", cache {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses"
            if cache else ""
        )
        print(
            f"epoch {run.epoch.index}: {run.run_id} — "
            f"{len(run.epoch.steps())} steps, {changes} changes"
            f"{cache_note} ({run.elapsed_s:.1f}s)"
        )
    print()
    print(series.render_trends())
    epoch0 = series.epochs[0].manifest.fidelity
    print()
    print(epoch0.render_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(series.render_trends() + "\n")
        print(f"wrote {args.out}")
    if args.out_dir:
        from pathlib import Path

        series_path = (
            Path(args.out_dir) / series.series_id / "series.json"
        )
        print(f"series {series.series_id}: wrote {series_path}")
    _export_obs(args, obs)
    if args.fidelity_gate and epoch0.divergent_keys:
        for experiment_id, key in epoch0.divergent_keys:
            print(
                f"fidelity gate: epoch 0 {experiment_id}.{key} is "
                f"divergent",
                file=sys.stderr,
            )
        return EXIT_DIVERGENT
    return 0


if __name__ == "__main__":
    sys.exit(main())
