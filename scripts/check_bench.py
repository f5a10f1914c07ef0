#!/usr/bin/env python3
"""Lint committed ``BENCH_*.json`` files — the telemetry timeline's
second input format.

The timeline (:mod:`repro.obs.timeline`) and the regression sentinel
read these files verbatim, so a malformed commit would silently poison
every future trajectory.  This lint enforces the contract:

* the top level carries ``bench``, ``host``, ``timings_s``,
  ``dataset_steps_s``, ``campaigns_s``, ``rss_kib``, ``digests`` and a
  non-empty ``trajectory`` list;
* ``bench`` names the config axes the timeline keys a series on
  (``scale``, ``seed``, ``domains``, ``wan_rounds``, ``workers``);
* every trajectory entry is an object with a ``fingerprint`` (12 hex
  chars) and a ``timings_s`` mapping of ``<stage>_s`` floats;
* ``recorded_unix`` stamps, where present, are positive and
  non-decreasing along the trajectory (entries predating the stamps
  are allowed to omit them — only stamped suffixes are ordered);
* the file-level ``digests`` block names the six pipeline digests as
  16-char hashes;
* the retired shapes are gone: no top-level ``baseline_timings_s`` or
  ``speedup``, and no trajectory entry carries ``rss_peak_kib`` (peak
  RSS is the ``rss_high_water_kib`` number).

Usage::

    python scripts/check_bench.py [FILES...]

Without arguments, lints every ``BENCH_*.json`` in the repository
root.  Exits 1 listing each violation on stderr.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REQUIRED_TOP_KEYS = (
    "bench", "host", "timings_s", "dataset_steps_s", "campaigns_s",
    "rss_kib", "digests", "trajectory",
)
REQUIRED_BENCH_KEYS = (
    "scale", "seed", "domains", "wan_rounds", "workers",
)
REQUIRED_DIGESTS = (
    "records", "ns_addresses", "wan_latency", "wan_throughput",
    "trace", "isp_diversity",
)
RETIRED_TOP_KEYS = ("baseline_timings_s", "speedup")
RETIRED_ENTRY_KEYS = ("rss_peak_kib",)

_FINGERPRINT = re.compile(r"^[0-9a-f]{12}$")
_DIGEST = re.compile(r"^[0-9a-f]{16}$")


def check_bench_payload(path: Path, payload: object) -> list:
    """Every contract violation in one parsed bench payload."""
    problems = []

    def problem(message: str) -> None:
        problems.append(f"{path}: {message}")

    if not isinstance(payload, dict):
        problem("top level is not a JSON object")
        return problems
    for key in REQUIRED_TOP_KEYS:
        if key not in payload:
            problem(f"missing top-level key {key!r}")
    for key in RETIRED_TOP_KEYS:
        if key in payload:
            problem(f"carries the retired key {key!r}")
    bench = payload.get("bench")
    if isinstance(bench, dict):
        for key in REQUIRED_BENCH_KEYS:
            if key not in bench:
                problem(f"bench block missing {key!r}")
    elif "bench" in payload:
        problem("bench block is not an object")
    digests = payload.get("digests")
    if isinstance(digests, dict):
        for name in REQUIRED_DIGESTS:
            value = digests.get(name)
            if not isinstance(value, str) or not _DIGEST.match(value):
                problem(f"digests[{name!r}] is not a 16-char hash")
    elif "digests" in payload:
        problem("digests block is not an object")

    trajectory = payload.get("trajectory")
    if not isinstance(trajectory, list) or not trajectory:
        if "trajectory" in payload:
            problem("trajectory is not a non-empty list")
        return problems
    previous_stamp = None
    for index, entry in enumerate(trajectory):
        where = f"trajectory[{index}]"
        if not isinstance(entry, dict):
            problem(f"{where} is not an object")
            continue
        for key in RETIRED_ENTRY_KEYS:
            if key in entry:
                problem(f"{where} carries the retired key {key!r}")
        fingerprint = entry.get("fingerprint")
        if not isinstance(fingerprint, str) or not _FINGERPRINT.match(
            fingerprint
        ):
            problem(f"{where} fingerprint is not 12 hex chars")
        timings = entry.get("timings_s")
        if not isinstance(timings, dict) or not timings:
            problem(f"{where} has no timings_s mapping")
        else:
            for stage, seconds in timings.items():
                if not stage.endswith("_s"):
                    problem(
                        f"{where} timings_s key {stage!r} lacks the "
                        "_s suffix"
                    )
                if not isinstance(seconds, (int, float)) or seconds < 0:
                    problem(
                        f"{where} timings_s[{stage!r}] is not a "
                        "non-negative number"
                    )
        stamp = entry.get("recorded_unix")
        if stamp is not None:
            if not isinstance(stamp, (int, float)) or stamp <= 0:
                problem(f"{where} recorded_unix is not a positive number")
            elif previous_stamp is not None and stamp < previous_stamp:
                problem(
                    f"{where} recorded_unix {stamp} precedes "
                    f"trajectory[{index - 1}]'s {previous_stamp} — "
                    "trajectory stamps must be non-decreasing"
                )
            else:
                previous_stamp = stamp
    return problems


def check_bench_file(path: Path) -> list:
    try:
        with path.open() as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable ({error})"]
    return check_bench_payload(path, payload)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        repo_root = Path(__file__).resolve().parents[1]
        paths = sorted(repo_root.glob("BENCH_*.json"))
    if not paths:
        print("check_bench: no bench files to lint", file=sys.stderr)
        return 1
    problems = []
    for path in paths:
        problems.extend(check_bench_file(path))
    for problem in problems:
        print(f"check_bench: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"check_bench: {len(paths)} file(s) clean "
            f"({', '.join(p.name for p in paths)})"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
