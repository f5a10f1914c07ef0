#!/usr/bin/env python
"""End-to-end smoke test of the watchtower plane (the CI obs-timeline
job, also runnable locally).

Within one time budget this script:

1. runs two scheduler ``bench`` jobs in-process over one repository
   root — the second forced (new trajectory point) and slowed by
   ``REPRO_PROFILE_STAGE_DELAY`` so a named stage regresses by a
   controlled factor while every output digest stays identical;
2. asserts the scheduler auto-appended both bench files to the
   telemetry timeline and wrote a ``*.regressions.json`` whose sentinel
   verdict flags the slowed stage (``drift`` or ``divergent``, never
   ``match``);
3. through a second handle on the run catalog, corrupts its SQLite
   file, rebuilds it, and asserts the rebuilt catalog returns identical
   timeline entries and an identical ``repro report`` rendering (the
   pure-cache contract);
4. runs ``repro report --check`` over the root and requires the
   documented regression exit code (5) plus a ``regressions.json``
   naming the slowed stage.

Exit 0 on success, 1 on any assertion, 2 if the budget is exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The stage the smoke slows, and by how long.  The seed-tier dataset
#: stage takes ~1s, so +0.8s is a ~80% regression — far past the
#: sentinel's 20% match band even on noisy CI hosts.
SLOWED_STAGE = "dataset"
STAGE_DELAY_S = 0.8


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    @property
    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check(self, what: str) -> None:
        if self.remaining <= 0:
            print(f"BUDGET EXHAUSTED during: {what}", file=sys.stderr)
            sys.exit(2)


def _assert(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=2500)
    parser.add_argument("--wan-rounds", type=int, default=36)
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=600.0,
        help="hard wall-clock ceiling for the whole smoke (seconds)",
    )
    args = parser.parse_args()
    budget = Budget(args.time_budget)

    from repro.obs.dashboard import render_report
    from repro.obs.sentinel import EXIT_REGRESSION
    from repro.service.cli import service_main
    from repro.service.jobs import JobSpec, Scheduler
    from repro.service.repository import RunRepository

    if args.root is None:
        import tempfile

        root = Path(tempfile.mkdtemp(prefix="obs-timeline-smoke-"))
    else:
        root = Path(args.root)

    repository = RunRepository(root)
    repository.scan()
    timeline = RunRepository(root)
    scheduler = Scheduler(repository)
    spec = JobSpec.from_dict({
        "kind": "bench",
        "domains": args.domains,
        "wan_rounds": args.wan_rounds,
    })

    # 1. Baseline bench, then a forced, artificially slowed rerun.
    print("[1/4] baseline bench job", flush=True)
    os.environ.pop("REPRO_PROFILE_STAGE_DELAY", None)
    baseline = scheduler.execute(scheduler.submit(spec))
    _assert(
        baseline.status == "completed",
        f"baseline bench failed: {baseline.error}",
    )
    budget.check("baseline bench")
    _assert(
        baseline.outcome.get("regression_status") == "match",
        f"first bench should have nothing to judge against: "
        f"{baseline.outcome}",
    )

    print(
        f"[1/4] slowed bench job ({SLOWED_STAGE} +{STAGE_DELAY_S}s)",
        flush=True,
    )
    os.environ["REPRO_PROFILE_STAGE_DELAY"] = (
        f"{SLOWED_STAGE}:{STAGE_DELAY_S}"
    )
    try:
        slowed = scheduler.execute(scheduler.submit(spec, force=True))
    finally:
        del os.environ["REPRO_PROFILE_STAGE_DELAY"]
    _assert(
        slowed.status == "completed",
        f"slowed bench failed: {slowed.error}",
    )
    budget.check("slowed bench")

    # 2. Sentinel verdicts from the scheduler's own pass.
    print("[2/4] scheduler sentinel verdicts", flush=True)
    _assert(
        slowed.outcome.get("bench_path")
        != baseline.outcome.get("bench_path"),
        "forced rerun reused the baseline bench file",
    )
    _assert(
        slowed.outcome["digests"] == baseline.outcome["digests"],
        "the injected delay changed output digests — it must only "
        "slow the wall clock",
    )
    status = slowed.outcome.get("regression_status")
    _assert(
        status in ("drift", "divergent"),
        f"sentinel missed the slowdown (status {status!r})",
    )
    regressions_path = Path(slowed.outcome["regressions_path"])
    verdicts = json.loads(regressions_path.read_text())
    flagged = [
        finding
        for report in verdicts["reports"]
        for finding in report["findings"]
        if finding["check"] == f"stage:{SLOWED_STAGE}_s"
        and finding["verdict"] in ("drift", "divergent")
    ]
    _assert(
        flagged,
        f"regressions.json did not flag stage:{SLOWED_STAGE}_s: "
        f"{json.dumps(verdicts, indent=2)[:2000]}",
    )
    print(
        f"      {flagged[0]['verdict']}: {flagged[0]['note']}",
        flush=True,
    )

    # 3. The pure-cache contract: corrupt, rebuild, identical answers.
    print("[3/4] corrupt + rebuild the timeline store", flush=True)
    entries_before = [e.as_dict() for e in timeline.entries()]
    report_before = render_report(timeline)
    timeline.db_path.write_bytes(b"not a sqlite file")
    timeline.rebuild()
    entries_after = [e.as_dict() for e in timeline.entries()]
    report_after = render_report(timeline)
    _assert(
        entries_before == entries_after,
        "rebuilt timeline entries differ from the originals",
    )
    _assert(
        report_before == report_after,
        "rebuilt timeline renders a different report",
    )
    timeline.close()
    repository.close()
    budget.check("rebuild")

    # 4. The CLI gate: repro report --check must exit EXIT_REGRESSION.
    print("[4/4] repro report --check exit code", flush=True)
    out = root / "regressions.json"
    code = service_main([
        "report", "--root", str(root), "--check",
        "--regressions-out", str(out),
    ])
    _assert(
        code == EXIT_REGRESSION,
        f"repro report --check exited {code}, "
        f"expected {EXIT_REGRESSION}",
    )
    cli_verdicts = json.loads(out.read_text())
    _assert(
        cli_verdicts["status"] in ("drift", "divergent"),
        f"CLI regressions.json status {cli_verdicts['status']!r}",
    )
    print("obs timeline smoke OK", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
