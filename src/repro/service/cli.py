"""``repro serve`` / ``repro jobs`` / ``repro runs`` — the service CLI.

A thin client over the service layer: every subcommand either talks to
a running daemon (``--url``) or opens the repository/scheduler
in-process on a local root (``--root``) — same layer, no duplicate
logic.  Dispatched from :func:`repro.experiments.cli.main`, which owns
the console-script entry points.

Exit codes (shared with the experiments CLI, see ``EXIT_CODES_HELP``):
0 success, 2 usage, 3 fidelity gate, 4 service error, 5 regression
(``repro report --check`` found a drifted or divergent trajectory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.obs import configure_logging
from repro.service.api import DEFAULT_HOST, DEFAULT_PORT
from repro.service.errors import ServiceError

#: Exit status for service-layer failures (unreachable daemon, unknown
#: run/job ids, failed jobs, corrupt repositories) — distinct from
#: usage errors (2) and the fidelity gate (3).
EXIT_SERVICE = 4

#: Shared ``--help`` epilog documenting the exit-code contract.
EXIT_CODES_HELP = """\
exit codes:
  0  success
  2  usage error (unknown flags, malformed arguments)
  3  fidelity gate: a measured key is divergent from the paper
  4  service error: unreachable daemon, unknown run/job/series id,
     failed job, or corrupt repository
  5  regression: repro report --check found a trajectory whose newest
     entry drifted or diverged from its baseline
"""

#: First tokens that route into this CLI from the main entry point.
SERVICE_COMMANDS = ("serve", "jobs", "runs", "report")


def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Long-running measurement service over the run-manifest "
            "plane: a SQLite-indexed repository of run-<hash>/ and "
            "series-<hash>/ directories, a job scheduler, and an HTTP "
            "API. Invoke without a subcommand to run experiments "
            "directly (repro --help-experiments, or the "
            "repro-experiments alias)."
        ),
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve",
        help="run the daemon: scheduler loop + HTTP API",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument(
        "--root", default="runs", metavar="DIR",
        help="repository root holding run-*/series-*/jobs/ "
             "(default: runs)",
    )
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--artifact-dir", metavar="DIR", default=None,
        help="content-addressed artifact cache for job execution "
             "(default: none — every job is a cold, reproducible "
             "build)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="S",
        help="scheduler idle poll interval in seconds",
    )
    serve.add_argument(
        "--no-scheduler", action="store_true",
        help="serve the read-only API without executing jobs",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help="retry budget per job: failed jobs are re-claimed until "
             "they have been attempted N times (default: 1 — no "
             "retries)",
    )
    serve.add_argument(
        "--no-access-log", action="store_true",
        help="skip the per-request NDJSON access log "
             "(<root>/access.ndjson)",
    )
    serve.add_argument("-v", "--verbose", action="count", default=0)
    serve.add_argument("-q", "--quiet", action="store_true")

    jobs = commands.add_parser(
        "jobs", help="submit and inspect scheduler jobs",
    )
    jobs_commands = jobs.add_subparsers(dest="action", required=True)

    submit = jobs_commands.add_parser(
        "submit", help="enqueue a deterministic job spec",
    )
    _add_endpoint_arguments(submit)
    submit.add_argument(
        "experiments", nargs="*", metavar="ID",
        help="experiment ids (default: all)",
    )
    submit.add_argument(
        "--kind", choices=("run", "series", "bench"), default="run",
    )
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument("--domains", type=int, default=6000)
    submit.add_argument("--wan-rounds", type=int, default=36)
    submit.add_argument("--workers", type=int, default=0)
    submit.add_argument("--scenario", default=None, metavar="NAME")
    submit.add_argument("--epochs", type=int, default=None, metavar="N")
    submit.add_argument(
        "--epoch-plan", default=None, metavar="NAME",
    )
    submit.add_argument(
        "--force", action="store_true",
        help="re-queue even if an identical spec was already submitted",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes (exit 4 if it fails)",
    )
    submit.add_argument(
        "--timeout", type=float, default=1800.0, metavar="S",
        help="--wait budget in seconds (default: 1800)",
    )
    submit.add_argument(
        "--run-now", action="store_true",
        help="local mode only: execute the job inline instead of "
             "leaving it for a daemon",
    )

    jobs_list = jobs_commands.add_parser("list", help="list jobs")
    _add_endpoint_arguments(jobs_list)
    jobs_list.add_argument(
        "--status",
        choices=("pending", "running", "completed", "failed"),
        default=None,
    )
    jobs_list.add_argument("--json", action="store_true")

    jobs_show = jobs_commands.add_parser(
        "show", help="one job's record",
    )
    _add_endpoint_arguments(jobs_show)
    jobs_show.add_argument("job_id")

    runs = commands.add_parser(
        "runs", help="query the run repository",
    )
    runs_commands = runs.add_subparsers(dest="action", required=True)

    runs_list = runs_commands.add_parser(
        "list", help="list indexed runs",
    )
    _add_endpoint_arguments(runs_list)
    runs_list.add_argument("--scenario", default=None)
    runs_list.add_argument("--status", default=None)
    runs_list.add_argument("--seed", type=int, default=None)
    runs_list.add_argument("--experiment", default=None, metavar="ID")
    runs_list.add_argument("--epoch-plan", default=None, metavar="NAME")
    runs_list.add_argument("--limit", type=int, default=None)
    runs_list.add_argument("--json", action="store_true")

    runs_show = runs_commands.add_parser(
        "show", help="print one run's manifest.json",
    )
    _add_endpoint_arguments(runs_show)
    runs_show.add_argument("run_id")

    compare = runs_commands.add_parser(
        "compare", help="diff two runs key by key",
    )
    _add_endpoint_arguments(compare)
    compare.add_argument("a", metavar="RUN_A")
    compare.add_argument("b", metavar="RUN_B")
    compare.add_argument(
        "--changed-only", action="store_true",
        help="only show keys whose measured values differ",
    )
    compare.add_argument("--json", action="store_true")

    rebuild = runs_commands.add_parser(
        "rebuild-index",
        help="drop the SQLite index and rebuild it from disk",
    )
    rebuild.add_argument("--root", default="runs", metavar="DIR")

    report = commands.add_parser(
        "report",
        help="render the telemetry timeline (and optionally run the "
             "regression sentinel)",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    report.add_argument(
        "--root", default="runs", metavar="DIR",
        help="repository root whose run-*/ dirs and bench/ products "
             "feed the timeline (default: runs)",
    )
    report.add_argument(
        "--bench", action="append", default=[], metavar="FILE",
        help="extra bench JSON files to fold in (e.g. the committed "
             "BENCH_pipeline*.json; repeatable)",
    )
    report.add_argument(
        "--check", action="store_true",
        help="run the regression sentinel over every trajectory and "
             "exit 5 when any drifted or diverged",
    )
    report.add_argument(
        "--regressions-out", default=None, metavar="FILE",
        help="with --check, also write the verdicts as "
             "regressions.json at this path",
    )
    report.add_argument(
        "--rebuild", action="store_true",
        help="drop the catalog's SQLite file and re-create it before "
             "reporting (proves the pure-cache contract)",
    )
    report.add_argument("--json", action="store_true")
    return parser


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    endpoint = parser.add_mutually_exclusive_group()
    endpoint.add_argument(
        "--url", default=None, metavar="URL",
        help="a running repro serve instance "
             f"(e.g. http://{DEFAULT_HOST}:{DEFAULT_PORT})",
    )
    endpoint.add_argument(
        "--root", default="runs", metavar="DIR",
        help="local repository root (default: runs); ignored with "
             "--url",
    )


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url)


def _repository(args):
    from repro.service.repository import RunRepository

    repository = RunRepository(args.root)
    repository.scan()
    return repository


def service_main(argv: Optional[List[str]] = None) -> int:
    args = build_service_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _serve(args)
        if args.command == "jobs":
            return _jobs(args)
        if args.command == "report":
            return _report(args)
        return _runs(args)
    except ServiceError as error:
        print(f"service error: {error}", file=sys.stderr)
        return EXIT_SERVICE


def _serve(args) -> int:
    from repro.service.daemon import ReproService

    configure_logging(verbose=args.verbose, quiet=args.quiet)
    service = ReproService(
        args.root,
        host=args.host,
        port=args.port,
        artifact_dir=args.artifact_dir,
        poll_interval=args.poll_interval,
        scheduler_enabled=not args.no_scheduler,
        max_attempts=args.max_attempts,
        access_log=not args.no_access_log,
    )
    counts = service.repository.counts()
    print(
        f"repro service on {service.url} — root {args.root} "
        f"({counts['runs']} runs, {counts['series']} series indexed"
        f"{', scheduler on' if service.scheduler else ''})",
        flush=True,
    )
    service.serve_forever()
    return 0


def _jobs(args) -> int:
    from repro.service.jobs import JobSpec

    if args.action == "submit":
        spec = JobSpec.from_dict({
            "kind": args.kind,
            "seed": args.seed,
            "domains": args.domains,
            "wan_rounds": args.wan_rounds,
            "workers": args.workers,
            "scenario": args.scenario,
            "experiments": list(args.experiments),
            "epochs": args.epochs,
            "epoch_plan": args.epoch_plan,
        })
        if args.url is not None:
            if args.run_now:
                print(
                    "error: --run-now is local-only (the daemon "
                    "executes --url submissions)", file=sys.stderr,
                )
                return 2
            client = _client(args)
            record = client.submit_job(
                spec.as_dict(), force=args.force
            )
            print(f"submitted {record['job_id']} ({record['status']})")
            if args.wait:
                record = _wait_for_job(
                    client, record["job_id"], args.timeout
                )
            return _job_exit(record)
        from repro.service.jobs import Scheduler

        scheduler = Scheduler(_repository(args))
        record = scheduler.submit(spec, force=args.force)
        print(f"submitted {record.job_id} ({record.status})")
        if args.run_now and record.status in ("pending", "running"):
            record = scheduler.execute(record)
            print(f"{record.job_id}: {record.status}")
        elif args.wait:
            print(
                "note: local --wait needs a daemon on the same root "
                "(use --run-now to execute inline)", file=sys.stderr,
            )
        return _job_exit(record.as_dict())

    if args.action == "list":
        if args.url is not None:
            records = _client(args).jobs(status=args.status)
        else:
            from repro.service.jobs import Scheduler

            records = [
                r.as_dict()
                for r in Scheduler(_repository(args)).jobs(
                    status=args.status
                )
            ]
        if args.json:
            print(json.dumps(records, indent=2))
            return 0
        for record in records:
            spec = record["spec"]
            outcome = record.get("outcome") or {}
            produced = (
                outcome.get("run_id")
                or outcome.get("series_id")
                or outcome.get("bench_path") or ""
            )
            print(
                f"{record['job_id']}  {record['status']:9s}  "
                f"{spec['kind']:6s}  seed={spec['seed']} "
                f"domains={spec['domains']}"
                + (f"  scenario={spec['scenario']}"
                   if spec.get("scenario") else "")
                + (f"  -> {produced}" if produced else "")
            )
        if not records:
            print("no jobs")
        return 0

    # show
    if args.url is not None:
        record = _client(args).job(args.job_id)
    else:
        from repro.service.jobs import Scheduler

        record = Scheduler(_repository(args)).get(args.job_id).as_dict()
    print(json.dumps(record, indent=2))
    return 0


def _wait_for_job(client, job_id: str, timeout: float) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        record = client.job(job_id)
        if record["status"] in ("completed", "failed"):
            print(f"{job_id}: {record['status']}")
            return record
        if time.monotonic() >= deadline:
            raise ServiceError(
                f"timed out after {timeout:.0f}s waiting for {job_id} "
                f"(still {record['status']})"
            )
        time.sleep(min(2.0, max(0.1, deadline - time.monotonic())))


def _job_exit(record: dict) -> int:
    if record.get("status") == "failed":
        print(
            f"job failed: {record.get('error')}", file=sys.stderr
        )
        return EXIT_SERVICE
    return 0


def _runs(args) -> int:
    if args.action == "rebuild-index":
        from repro.service.repository import RunRepository

        repository = RunRepository(args.root)
        report = repository.rebuild()
        print(
            f"rebuilt index under {args.root}: {report.runs} runs, "
            f"{report.series} series"
            + (f", {len(report.skipped)} skipped"
               if report.skipped else "")
        )
        for entry in report.skipped:
            print(
                f"  skipped {entry['path']}: {entry['reason']}",
                file=sys.stderr,
            )
        return 0

    if args.action == "list":
        filters = dict(
            scenario=args.scenario, status=args.status,
            seed=args.seed, experiment=args.experiment,
            epoch_plan=args.epoch_plan, limit=args.limit,
        )
        if args.url is not None:
            records = _client(args).runs(**filters)
        else:
            records = [
                r.as_dict() for r in _repository(args).runs(**filters)
            ]
        if args.json:
            print(json.dumps(records, indent=2))
            return 0
        from repro.report.table import TextTable

        table = TextTable(
            ["Run", "Seed", "Domains", "Scenario", "Epoch",
             "Fidelity", "Experiments"],
            title="Indexed runs",
        )
        for record in records:
            epoch = (
                f"{record['epoch_plan']}#{record['epoch_index']}"
                if record.get("epoch_plan") else "-"
            )
            table.add_row([
                record["run_id"],
                record["seed"],
                record["domains"],
                record.get("scenario") or "-",
                epoch,
                record.get("fidelity_status") or "-",
                len(record.get("experiments") or []),
            ])
        print(table.render())
        print(f"{len(records)} runs")
        return 0

    if args.action == "show":
        if args.url is not None:
            manifest = _client(args).run(args.run_id)
        else:
            manifest = _repository(args).load_run(args.run_id).manifest
        print(json.dumps(manifest, indent=2))
        return 0

    # compare
    if args.url is not None:
        diff = _client(args).compare(args.a, args.b)
    else:
        from repro.service.compare import compare_runs

        repository = _repository(args)
        diff = compare_runs(
            repository.load_run(args.a), repository.load_run(args.b)
        )
    if args.json:
        print(json.dumps(diff, indent=2))
        return 0
    from repro.service.compare import render_compare

    print(render_compare(diff, changed_only=args.changed_only))
    return 0


def _report(args) -> int:
    from repro.obs.dashboard import render_report
    from repro.obs.sentinel import (
        EXIT_REGRESSION,
        check_store,
        worst_status,
        write_regressions,
    )
    from repro.service.repository import RunRepository

    with RunRepository(args.root, bench_paths=args.bench) as store:
        if args.rebuild:
            store.rebuild()
        else:
            store.scan()
        reports = check_store(store) if args.check else None
        if args.json:
            payload = {
                "counts": store.counts(),
                "entries": [
                    entry.as_dict() for entry in store.entries()
                ],
            }
            if reports is not None:
                payload["regressions"] = {
                    "status": worst_status(reports),
                    "reports": [r.as_dict() for r in reports],
                }
            print(json.dumps(payload, indent=2))
        else:
            print(render_report(store, reports), end="")
        if reports is not None:
            if args.regressions_out:
                write_regressions(args.regressions_out, reports)
            if worst_status(reports) != "match":
                return EXIT_REGRESSION
    return 0
