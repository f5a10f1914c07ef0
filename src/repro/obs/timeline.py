"""The telemetry timeline format: one entry per run or bench point.

Every experiments run leaves a deterministic ``manifest.json`` plus a
volatile ``timings.json``, and every bench invocation a ``BENCH_*.json``
with a per-fingerprint ``trajectory`` — but each snapshot dies with its
file: nothing joins "this run took 12 s at 81 MiB" to "the same config
took 9 s last month".  This module turns those files into
:class:`TimelineEntry` values; the run catalog
(:class:`repro.service.repository.RunRepository`) stores them next to
its run rows, in the same pure-cache SQLite file.  Timestamps derive
from file mtimes and the bench entries' own ``recorded_unix`` stamps,
so even they survive a rebuild of that cache.

Two entry sources:

* ``run`` — one entry per ``run-<hash>/`` directory: the manifest's
  fidelity verdict counts and deterministic-metrics digest plus the
  sidecar's per-stage wall clock;
* ``bench`` — one entry per *trajectory position* per bench JSON file
  (the scheduler's ``bench/`` products and any committed
  ``BENCH_*.json`` handed to the catalog's constructor): fingerprint,
  scale, per-stage timings, peak RSS, and — for the file's freshest
  entry — the six output digests.

Entries sharing one measurement configuration share a ``series_key``
(a content hash of the config axes: source, scale, seed, domains,
wan_rounds, scenario, epoch plan/index, experiment subset).  A series
ordered by ``recorded_at`` is a **trajectory** — what the regression
sentinel (:mod:`repro.obs.sentinel`) judges and the dashboard
(:mod:`repro.obs.dashboard`) sparklines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

if TYPE_CHECKING:
    from repro.experiments.manifest import LoadedRun


def _canonical_digest(value: object) -> str:
    """A short, stable content hash of any JSON-ready value."""
    encoded = json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TimelineEntry:
    """One telemetry snapshot — a point on some config's trajectory."""

    entry_id: str
    source: str  # "run" | "bench"
    origin: str  # file or directory the entry was read from
    position: int  # trajectory position within the origin file
    series_key: str
    fingerprint: Optional[str]
    scale: Optional[str]
    seed: Optional[int]
    domains: Optional[int]
    wan_rounds: Optional[int]
    scenario: Optional[str]
    epoch_plan: Optional[str]
    epoch_index: Optional[int]
    recorded_at: float
    fidelity_status: Optional[str]
    fidelity_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-stage wall clock, ``<stage>_s`` keys plus ``total_s``.
    timings: Dict[str, float] = field(default_factory=dict)
    rss_high_water_kib: Optional[int] = None
    #: Output digests (bench entries only, freshest position).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Content hash of the run's deterministic metrics snapshot.
    metrics_digest: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "source": self.source,
            "origin": self.origin,
            "position": self.position,
            "series_key": self.series_key,
            "fingerprint": self.fingerprint,
            "scale": self.scale,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "scenario": self.scenario,
            "epoch_plan": self.epoch_plan,
            "epoch_index": self.epoch_index,
            "recorded_at": self.recorded_at,
            "fidelity_status": self.fidelity_status,
            "fidelity_counts": dict(self.fidelity_counts),
            "timings": dict(self.timings),
            "rss_high_water_kib": self.rss_high_water_kib,
            "digests": dict(self.digests),
            "metrics_digest": self.metrics_digest,
            "extra": dict(self.extra),
        }

    def label(self) -> str:
        """A short human identity for reports and findings."""
        parts = [self.source]
        if self.scale:
            parts.append(self.scale)
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.domains is not None:
            parts.append(f"domains={self.domains}")
        if self.scenario:
            parts.append(self.scenario)
        if self.epoch_plan:
            parts.append(f"{self.epoch_plan}#{self.epoch_index}")
        return " ".join(parts)


def ordered_entries(
    trajectories: Dict[str, List[TimelineEntry]],
) -> List[TimelineEntry]:
    """Every entry of a ``RunRepository.trajectories()`` read, in the
    order ``RunRepository.entries()`` returns them: ``recorded_at``,
    then ``position``, then ``entry_id``."""
    return sorted(
        (entry for trajectory in trajectories.values()
         for entry in trajectory),
        key=lambda e: (e.recorded_at, e.position, e.entry_id),
    )


def _series_key(axes: Dict[str, object]) -> str:
    return _canonical_digest(axes)


# -- extraction from the two source formats ----------------------------


def entry_from_run(loaded: "LoadedRun") -> TimelineEntry:
    """One timeline entry from a ``run-<hash>/`` directory read back
    through :meth:`~repro.experiments.manifest.LoadedRun.from_dir`.

    Raises ``OSError``/``ValueError`` on corrupt directories, same
    contract as the manifest loader.
    """
    run_dir = loaded.run_dir
    manifest = loaded.manifest
    config = manifest.get("config") or {}
    fidelity = manifest.get("fidelity") or {}
    epoch = config.get("epoch") or {}
    stages = (loaded.timings or {}).get("stages_s") or {}
    timings = {
        name: float(seconds) for name, seconds in sorted(stages.items())
    }
    if timings:
        timings["total_s"] = round(sum(timings.values()), 3)
    experiments = [
        str(e) for e in (config.get("experiments") or [])
    ]
    timings_path = run_dir / "timings.json"
    stat_source = (
        timings_path if timings_path.is_file()
        else run_dir / "manifest.json"
    )
    recorded_at = stat_source.stat().st_mtime
    axes = {
        "source": "run",
        "seed": config.get("seed"),
        "domains": config.get("domains"),
        "wan_rounds": config.get("wan_rounds"),
        "scenario": manifest.get("scenario"),
        "epoch_plan": epoch.get("plan"),
        "epoch_index": epoch.get("index"),
        "experiments": experiments,
    }
    return TimelineEntry(
        entry_id=f"run:{manifest['run_id']}",
        source="run",
        origin=str(run_dir),
        position=0,
        series_key=_series_key(axes),
        fingerprint=manifest.get("code_fingerprint"),
        scale=None,
        seed=config.get("seed"),
        domains=config.get("domains"),
        wan_rounds=config.get("wan_rounds"),
        scenario=manifest.get("scenario"),
        epoch_plan=epoch.get("plan"),
        epoch_index=epoch.get("index"),
        recorded_at=recorded_at,
        fidelity_status=fidelity.get("status"),
        fidelity_counts={
            k: int(v)
            for k, v in (fidelity.get("counts") or {}).items()
        },
        timings=timings,
        rss_high_water_kib=None,
        digests={},
        metrics_digest=_canonical_digest(manifest.get("metrics") or {}),
        extra={
            "run_id": manifest["run_id"],
            "experiments": experiments,
            "job": (loaded.timings or {}).get("job"),
        },
    )


def _entry_rss(entry: dict) -> Optional[int]:
    """Peak RSS from a trajectory entry's ``rss_high_water_kib``."""
    value = entry.get("rss_high_water_kib")
    if isinstance(value, (int, float)):
        return int(value)
    return None


def entries_from_bench_file(
    path: Union[str, Path]
) -> List[TimelineEntry]:
    """One timeline entry per trajectory position of a bench JSON file.

    The file-level digests attach to the freshest (last) position —
    older trajectory entries predate the file and carry timings only.
    Raises ``OSError``/``ValueError`` on unreadable or non-bench JSON.
    """
    path = Path(path)
    with path.open() as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "trajectory" not in payload:
        raise ValueError(f"{path} is not a bench file (no trajectory)")
    bench = payload.get("bench") or {}
    trajectory = payload["trajectory"]
    if not isinstance(trajectory, list):
        raise ValueError(f"{path} trajectory is not a list")
    file_mtime = path.stat().st_mtime
    file_token = hashlib.sha256(
        str(path.resolve()).encode()
    ).hexdigest()[:12]
    axes = {
        "source": "bench",
        "scale": bench.get("scale"),
        "seed": bench.get("seed"),
        "domains": bench.get("domains"),
        "wan_rounds": bench.get("wan_rounds"),
    }
    series_key = _series_key(axes)
    entries: List[TimelineEntry] = []
    last = len(trajectory) - 1
    # Trajectory order is ground truth.  Entries without their own
    # recorded_unix stamp fall back to the file mtime, which postdates
    # every stamped entry — so recorded_at is clamped non-decreasing
    # along positions, keeping recorded_at ordering consistent with
    # position ordering within one file.
    floor = 0.0
    for position, step in enumerate(trajectory):
        if not isinstance(step, dict):
            raise ValueError(
                f"{path} trajectory[{position}] is not an object"
            )
        timings = {
            name: float(seconds)
            for name, seconds in sorted(
                (step.get("timings_s") or {}).items()
            )
        }
        recorded = step.get("recorded_unix")
        recorded_at = (
            float(recorded)
            if isinstance(recorded, (int, float)) else file_mtime
        )
        recorded_at = floor = max(recorded_at, floor)
        entries.append(TimelineEntry(
            entry_id=f"bench:{file_token}:{position:03d}",
            source="bench",
            origin=str(path),
            position=position,
            series_key=series_key,
            fingerprint=step.get("fingerprint"),
            scale=step.get("scale") or bench.get("scale"),
            seed=bench.get("seed"),
            domains=bench.get("domains"),
            wan_rounds=bench.get("wan_rounds"),
            scenario=None,
            epoch_plan=None,
            epoch_index=None,
            recorded_at=recorded_at,
            fidelity_status=None,
            fidelity_counts={},
            timings=timings,
            rss_high_water_kib=_entry_rss(step),
            digests=(
                dict(payload.get("digests") or {})
                if position == last else {}
            ),
            metrics_digest=None,
            extra={
                "file": path.name,
                "workers": bench.get("workers"),
            },
        ))
    return entries


def __getattr__(name: str):
    # Resolved on first use, because repro.service imports this module.
    if name == "TimelineStore":
        # perfbench/corpus.py still opens the pre-merge store by this
        # name; the run catalog is that store now.
        from repro.service.repository import RunRepository

        return RunRepository
    if name == "TIMELINE_FILENAME":
        # perfbench/corpus.py still stats the pre-merge store file by
        # this name; the catalog keeps everything in its one file.
        from repro.service.repository import INDEX_FILENAME

        return INDEX_FILENAME
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
