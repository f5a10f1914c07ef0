"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload paper-run --seed 7 \\
        --seconds 50 --trace 0

Run from the root of a checkout: the program under test is the
checkout's ``src/repro``, imported by child processes only.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every ``end_to_end``
metric of ``BENCHMARK.json`` with ``--trace 0``, every ``per_layer``
metric with ``--trace 1``.  The line before it stamps the result with
its cost axes (inputs, code fingerprint, host) and output digests.

The paper-run workload runs one repetition per fresh process
(``pipeline.py``), one after another, until the next one would overrun
``--seconds``, and at least ``MIN_REPS`` of them.  The catalog workload
(``catalog.py``) serves a run corpus from a ``repro serve`` daemon in
its own process and drives it with one client through a fixed
schedule.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import common

#: Minimum repetitions per run: untraced, and (traced, untraced) in a
#: traced run, whose trace overhead compares the two.  Five make the
#: median robust to one or two repetitions slowed by the host.
MIN_REPS = 5
MIN_TRACED_REPS = (2, 2)
#: No new repetition starts after this many seconds, whatever
#: ``--seconds`` says, and none may run past ``DEADLINE_S``, so a run
#: ends inside the 180 s limit.
HARD_STOP_S = 120.0
DEADLINE_S = 170.0

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test inputs: every workload in seconds; no pinned "
             "digest applies",
    )
    return parser.parse_args(argv)


def checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise common.BenchError(
            f"{root} holds no src/repro: run from the root of a checkout"
        )
    if not (root / "BENCHMARK.json").is_file():
        raise common.BenchError(f"{root} holds no BENCHMARK.json")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# -- pipeline workloads ------------------------------------------------


def run_pipeline(args, root: Path, work: Path) -> dict:
    env = child_env(root)
    expected = common.expected_digest(args.workload, args.seed, args.tiny)
    traced = bool(args.trace)
    reps = []
    attempted = failed = 0
    first_digest = None
    counts = None
    counts_agree = True
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        traced_reps = sum(1 for r in reps if r["traced"])
        plain_reps = len(reps) - traced_reps
        if traced:
            enough = (traced_reps >= MIN_TRACED_REPS[0]
                      and plain_reps >= MIN_TRACED_REPS[1])
        else:
            enough = len(reps) >= MIN_REPS
        if reps and elapsed >= HARD_STOP_S:
            break
        if enough and elapsed + common.median(
            [r["wall_s"] for r in reps]
        ) > args.seconds:
            break
        if attempted >= 3 and not reps:
            raise common.BenchError("no pipeline repetition completed")
        # A traced run alternates traced and untraced repetitions.
        trace_this = traced and traced_reps <= plain_reps
        rep_dir = work / f"rep{attempted}"
        rep_dir.mkdir(parents=True)
        result_path = rep_dir / "result.json"
        command = [
            sys.executable, str(common.BENCH_DIR / "pipeline.py"),
            "--seed", str(args.seed),
            "--work", str(rep_dir), "--result", str(result_path),
            "--rep", str(attempted),
        ]
        if trace_this:
            command.append("--trace")
        if args.tiny:
            command.append("--tiny")
        attempted += 1
        spawned = time.monotonic()
        proc = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (spawned - started),
        )
        wall_s = time.monotonic() - spawned
        if proc.returncode != 0 or not result_path.is_file():
            failed += 1
            sys.stderr.write(
                f"repetition {attempted} failed "
                f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}\n"
            )
            shutil.rmtree(rep_dir, ignore_errors=True)
            continue
        record = common.load_json(result_path)
        shutil.rmtree(rep_dir, ignore_errors=True)
        record["wall_s"] = wall_s
        record["setup_s"] = record["imported_at"] - spawned
        record["traced"] = trace_this
        reps.append(record)
        if first_digest is None:
            first_digest = record["digest"]
        if record["digest"] != (expected or first_digest):
            failed += 1
            sys.stderr.write(
                f"repetition {attempted}: output digest "
                f"{record['digest']} != {expected or first_digest}\n"
            )
        if trace_this:
            if counts is None:
                counts = record["counts"]
            elif record["counts"] != counts:
                counts_agree = False
                failed += 1
                sys.stderr.write(
                    f"repetition {attempted}: counts {record['counts']} "
                    f"differ from {counts}\n"
                )

    plain = [r for r in reps if not r["traced"]]
    if not plain:
        raise common.BenchError("no untraced repetition completed")
    metrics = {
        "run_s": common.median([r["run_s"] for r in plain]),
        "setup_s": common.median([r["setup_s"] for r in plain]),
        "peak_rss_mib": common.median(
            [r["peak_rss_kib"] / 1024 for r in plain]
        ),
    }
    stamp = dict(reps[0]["stamp"])
    stamp["digest"] = first_digest
    stamp["pinned_digest"] = expected
    stamp["repetitions"] = len(reps)
    stamp["run_s_samples"] = [r["run_s"] for r in plain]
    if traced:
        traced_reps = [r for r in reps if r["traced"]]
        if not traced_reps:
            raise common.BenchError("no traced repetition completed")
        layers = {
            name: common.median([r["layers"][name] for r in traced_reps])
            for name in traced_reps[0]["layers"]
        }
        layers.update(counts)
        layers["trace_overhead_s"] = (
            common.median([r["run_s"] for r in traced_reps])
            - metrics["run_s"]
        )
        metrics = layers
        stamp["counts_agree"] = counts_agree
        stamp["events"] = [e for r in traced_reps for e in r["events"]]
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "stamp": stamp,
    }


# -- result --------------------------------------------------------------


def select_metrics(bench: dict, trace: int, measured: dict) -> dict:
    """Exactly the BENCHMARK.json metrics of this mode, with units.
    Layers a workload never loads did no work in it: they read 0."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    undeclared = set(measured) - {metric["name"] for metric in declared}
    if undeclared:
        raise common.BenchError(
            f"measured metrics missing from BENCHMARK.json: "
            f"{sorted(undeclared)}"
        )
    selected = {}
    for metric in declared:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif trace:
            value = 0
        else:
            raise common.BenchError(f"end-to-end metric {name} not measured")
        selected[name] = {"value": value, "unit": metric["unit"]}
    return selected


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the catalog daemon and the
    # scratch directory are still cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        root = checkout()
        bench = common.load_json(root / "BENCHMARK.json")
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise common.BenchError(
                f"unknown workload {args.workload!r}; known: {names}"
            )
        work = common.WORK_DIR / (
            f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.workload == "catalog":
                import catalog

                outcome = catalog.run(args, root, work, child_env(root))
            else:
                outcome = run_pipeline(args, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = select_metrics(bench, args.trace, outcome["metrics"])
    except (common.BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    stamp = outcome["stamp"]
    events = stamp.pop("events", None)
    stamp.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": common.host_axes(),
    })
    if events is not None:
        path = common.TRACE_DIR / (
            f"{args.workload}-seed{args.seed}.trace.json"
        )
        common.write_trace(path, events, stamp)
        stamp["trace_file"] = os.path.relpath(path, root)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
