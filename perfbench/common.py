"""Shared pieces of the benchmark: workload inputs, spans, digests, stats.

Every file under ``perfbench/`` drives the product only through its
public API (``ExperimentContext``, ``ExperimentSpec.run``,
``RunManifest``, the ``repro serve`` daemon); this module holds what
``run.py`` and its child processes agree on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed operation)."""


#: The benchmark's own directory, its scratch space and its traces.
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "traces"

#: The six §3 experiments, in registry order: their spans add up to
#: ``traffic.analyze_s``.
TRAFFIC_EXPERIMENTS = (
    "table01", "table02", "table05", "table06", "figure03",
    "ext-compression",
)

#: paper-run inputs: ``repro`` defaults, all 30 experiments in
#: registry order.
PAPER_RUN: Dict[str, object] = {
    "domains": 6_000, "wan_rounds": 36, "capture": {},
}

#: Catalog inputs: the corpus the daemon serves and the client's
#: fixed schedule.
CATALOG: Dict[str, object] = {
    "domains": 400,
    "wan_rounds": 4,
    #: One ExperimentContext per seed; each writes one run dir per
    #: experiment subset below.
    "seeds": 4,
    "experiments": [
        "table03", "table04", "table07", "table08", "table10",
        "figure04", "figure05", "figure06",
    ],
    #: Subsets per seed that land in the root during set-up, and the
    #: ones held back and dropped in, one per round, while measuring.
    #: Every staged dir is one round, so the schedule is fixed.
    "subsets_per_seed": 20,
    "staged_per_seed": 10,
    #: Short epoch series written into the root during set-up.
    "series_epochs": 2,
    "series_experiments": ["table03", "table04"],
    #: Reads per round, after the round's ingest: whole blocks of one
    #: read per route.
    "reads_per_round": 120,
}

#: The eight read routes, weighted equally: each block of eight reads
#: sends one to every route, in a seeded order.  Nothing in the
#: repository records how often each route is read (no access log is
#: committed), so these weights, like the reads per ingest, are
#: unverified.
ROUTES = (
    "runs", "run", "fidelity", "compare", "timeline", "dashboard",
    "health", "metrics",
)

#: A catalog run must time at least this many reads, so that its p99
#: has ten reads beyond it.
MIN_READS = 1_000

#: Inputs of the self-test (``run.py --tiny``): every workload at a
#: scale that runs in seconds.
TINY_PIPELINE = {
    "domains": 300, "wan_rounds": 3,
    "capture": {"num_clients": 200, "total_flows": 1_500,
                "total_bytes": 40_000_000},
}
TINY_CATALOG = {
    "domains": 200, "seeds": 2, "subsets_per_seed": 3,
    "staged_per_seed": 2, "reads_per_round": 16,
}


def pipeline_inputs(tiny: bool = False) -> dict:
    inputs = dict(PAPER_RUN)
    if tiny:
        inputs.update(TINY_PIPELINE)
    return inputs


def catalog_inputs(tiny: bool = False) -> dict:
    inputs = dict(CATALOG)
    if tiny:
        inputs.update(TINY_CATALOG)
    return inputs


def experiment_subsets(experiments: List[str], count: int) -> List[tuple]:
    """``count`` distinct, deterministic, registry-ordered subsets:
    every singleton, then every adjacent pair, then triples."""
    subsets: List[tuple] = []
    for size in range(1, len(experiments) + 1):
        for start in range(len(experiments) - size + 1):
            subsets.append(tuple(experiments[start:start + size]))
            if len(subsets) == count:
                return subsets
    return subsets


# -- process facts -----------------------------------------------------


def proc_status_kib(field: str, pid: str = "self") -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_axes() -> dict:
    """The host's cost axes, stamped on every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# -- digests -----------------------------------------------------------


def digest(payload: object) -> str:
    """SHA-256 of a canonical JSON encoding."""
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


def manifest_digest(manifest: dict) -> str:
    """The fingerprint-free pipeline output digest: the manifest's
    ``experiments`` and ``fidelity`` sections."""
    return digest({
        "experiments": manifest["experiments"],
        "fidelity": manifest["fidelity"],
    })


def expected_digest(workload: str, seed: int, tiny: bool) -> Optional[str]:
    """The pinned seed-7 digest, or None where none is pinned (other
    seeds, self-test inputs): those print theirs for comparison."""
    if tiny or seed != 7:
        return None
    pinned = load_json(BENCH_DIR / "expected.json")
    return pinned["seed7_digests"][workload]


_RUN_ID = re.compile(r"(run|series)-[0-9a-f]{12}")


def strip_volatile(value: object, aliases: Dict[str, str],
                   drop: frozenset) -> object:
    """``value`` without the keys in ``drop``, every run/series id
    replaced by its code-independent alias (ids hash the code
    fingerprint, so they change with any source edit)."""
    if isinstance(value, dict):
        return {
            key: strip_volatile(item, aliases, drop)
            for key, item in value.items() if key not in drop
        }
    if isinstance(value, list):
        return [strip_volatile(item, aliases, drop) for item in value]
    if isinstance(value, str):
        return _RUN_ID.sub(
            lambda m: aliases.get(m.group(0), "unknown-id"), value
        )
    return value


# -- statistics --------------------------------------------------------


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def nearest_rank(values: List[float], pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank method."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# -- spans -------------------------------------------------------------


class Spans:
    """In-memory spans recorded around public calls; written out as
    Chrome ``trace_event`` JSON when the run ends.  A disabled recorder
    (the untraced runs) records nothing.  Kept apart from the program's
    own ``repro.obs`` tracer, so a change to the program cannot change
    the instrument that measures it."""

    def __init__(self, pid: int = 0, enabled: bool = True) -> None:
        self.pid = pid
        self.enabled = enabled
        self.events: List[dict] = []
        self._stack: List[dict] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield None
            return
        record = {
            "name": name, "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(), "end": None, "args": args,
        }
        self._next_id += 1
        self.events.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(
            e["end"] - e["start"] for e in self.events if e["name"] == name
        )

    def top_level_seconds(self) -> float:
        return sum(
            e["end"] - e["start"] for e in self.events
            if e["parent"] is None
        )

    def chrome_events(self, origin: float) -> List[dict]:
        return [
            {
                "name": e["name"], "ph": "X", "pid": self.pid, "tid": 0,
                "ts": round((e["start"] - origin) * 1e6),
                "dur": round((e["end"] - e["start"]) * 1e6),
                "args": {"id": e["id"], "parent": e["parent"],
                         **e["args"]},
            }
            for e in self.events
        ]


def write_trace(path: Path, events: List[dict], stamp: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": stamp}, fh)
        fh.write("\n")


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
