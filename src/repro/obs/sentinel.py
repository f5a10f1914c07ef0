"""The regression sentinel: trajectory-aware drift detection.

The experiment plane already knows how to judge "is this number close
enough" — :class:`repro.experiments.spec.Tolerance` scores every paper
expectation into ``match``/``drift``/``divergent``.  The sentinel
points the same vocabulary at the **timeline** (:mod:`.timeline`) the
run catalog stores: each trajectory's freshest entry is judged against
its predecessor —

* **per-stage wall clock** — the observed/baseline ratio under an
  ``at_most`` band: up to +20 % is ``match``, +20–50 % ``drift``,
  beyond that ``divergent`` (stages under a noise floor are ``info``);
* **peak RSS** — the same shape with a tighter match band (memory is
  far less noisy than wall clock);
* **output digests** — ``exact``: a changed digest under an unchanged
  code fingerprint is ``divergent`` (determinism is broken), under a
  new fingerprint ``drift`` (outputs moved with the code — visible,
  not fatal);
* **fidelity verdicts** — a worsened rollup status or a grown
  ``divergent``/``drift``/``missing`` count is judged at the severity
  it worsened to.

Reports serialise to ``regressions.json``; :data:`EXIT_REGRESSION` is
the CLI exit code (``repro report --check``) and the scheduler runs
the whole thing after every ``bench`` job, making the service a
continuous consumer of its own performance history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.obs.timeline import TimelineEntry

if TYPE_CHECKING:
    from repro.service.repository import RunRepository

#: Exit status for ``repro report --check`` when any trajectory drifted
#: or diverged — distinct from the fidelity gate (3) and service
#: errors (4).
EXIT_REGRESSION = 5

#: Version of the ``regressions.json`` payload.
REGRESSIONS_SCHEMA_VERSION = 1

#: Stages faster than this in the baseline are too noisy to judge —
#: reported as ``info``, never scored.
TIMING_FLOOR_S = 0.1

#: Fidelity statuses, best first (mirrors the fidelity plane's order).
_FIDELITY_ORDER = ("exempt", "match", "drift", "missing", "divergent")

_VERDICT_RANK = {
    "match": 0, "info": 0, "missing": 0, "exempt": 0,
    "drift": 1, "divergent": 2,
}


def _default_bands() -> dict:
    from repro.experiments.spec import at_most, exact

    return {
        # Observed/baseline wall-clock ratio: 1.20 match edge, 1.50
        # drift edge — a 25 % slowdown lands in drift, a 2× in
        # divergent.
        "timing_ratio": at_most(1.20, drift=0.30),
        # Peak RSS creeps, it doesn't jitter: 15 % match, 50 % drift.
        "rss_ratio": at_most(1.15, drift=0.35),
        "digest": exact(),
    }


@dataclass(frozen=True)
class SentinelFinding:
    """One judged check inside a report."""

    check: str  # e.g. "stage:dataset_s", "rss", "digest:records"
    baseline: object
    observed: object
    delta: Optional[float]
    verdict: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "baseline": self.baseline,
            "observed": self.observed,
            "delta": self.delta,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass
class SentinelReport:
    """One trajectory's newest entry judged against its baseline."""

    series_key: str
    subject: str  # label of the judged entry
    subject_entry_id: str
    baseline_entry_id: Optional[str]
    findings: List[SentinelFinding] = field(default_factory=list)

    @property
    def status(self) -> str:
        """Worst scored verdict: ``match``/``drift``/``divergent``
        (``match`` also covers a baseline-less first entry)."""
        worst = 0
        for finding in self.findings:
            worst = max(worst, _VERDICT_RANK.get(finding.verdict, 0))
        return ("match", "drift", "divergent")[worst]

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.verdict] = counts.get(finding.verdict, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "series_key": self.series_key,
            "subject": self.subject,
            "subject_entry_id": self.subject_entry_id,
            "baseline_entry_id": self.baseline_entry_id,
            "status": self.status,
            "counts": self.counts,
            "findings": [f.as_dict() for f in self.findings],
        }

    def render_text(self) -> str:
        lines = [
            f"{self.subject}: {self.status}"
            + (f"  (vs {self.baseline_entry_id})"
               if self.baseline_entry_id else "  (no baseline)")
        ]
        for finding in self.findings:
            if finding.verdict in ("match", "info"):
                continue
            delta = (
                f" ({finding.delta:+.2f})"
                if isinstance(finding.delta, float) else ""
            )
            lines.append(
                f"  {finding.verdict:9s} {finding.check}: "
                f"{finding.baseline!r} -> {finding.observed!r}{delta}"
                + (f"  [{finding.note}]" if finding.note else "")
            )
        return "\n".join(lines)


def judge_entries(
    baseline: TimelineEntry,
    observed: TimelineEntry,
    bands: Optional[dict] = None,
    timing_floor_s: float = TIMING_FLOOR_S,
) -> SentinelReport:
    """Judge ``observed`` against ``baseline`` (same trajectory)."""
    bands = bands or _default_bands()
    findings: List[SentinelFinding] = []

    # Per-stage wall clock, plus the rollup.
    for stage in sorted(
        set(baseline.timings) | set(observed.timings)
    ):
        base = baseline.timings.get(stage)
        seen = observed.timings.get(stage)
        if base is None or seen is None:
            findings.append(SentinelFinding(
                check=f"stage:{stage}", baseline=base, observed=seen,
                delta=None, verdict="info",
                note="stage absent on one side",
            ))
            continue
        if base < timing_floor_s:
            findings.append(SentinelFinding(
                check=f"stage:{stage}", baseline=base, observed=seen,
                delta=None, verdict="info",
                note=f"baseline under the {timing_floor_s:g}s "
                     "noise floor",
            ))
            continue
        ratio = seen / base
        delta, verdict = bands["timing_ratio"].judge(1.0, ratio)
        findings.append(SentinelFinding(
            check=f"stage:{stage}", baseline=base, observed=seen,
            delta=round(ratio - 1.0, 4), verdict=verdict,
            note=f"{100 * (ratio - 1):+.0f}% wall clock",
        ))

    # Peak RSS.
    if baseline.rss_high_water_kib and observed.rss_high_water_kib:
        ratio = observed.rss_high_water_kib / baseline.rss_high_water_kib
        delta, verdict = bands["rss_ratio"].judge(1.0, ratio)
        findings.append(SentinelFinding(
            check="rss", baseline=baseline.rss_high_water_kib,
            observed=observed.rss_high_water_kib,
            delta=round(ratio - 1.0, 4), verdict=verdict,
            note=f"{100 * (ratio - 1):+.0f}% peak RSS",
        ))

    # Output digests: only comparable when both sides carry them.
    if baseline.digests and observed.digests:
        same_code = (
            baseline.fingerprint is not None
            and baseline.fingerprint == observed.fingerprint
        )
        for name in sorted(set(baseline.digests) | set(observed.digests)):
            base = baseline.digests.get(name)
            seen = observed.digests.get(name)
            _, verdict = bands["digest"].judge(base, seen)
            if verdict != "match":
                # Changed outputs under unchanged code break the
                # determinism contract; under new code they are merely
                # worth seeing.
                verdict = "divergent" if same_code else "drift"
            findings.append(SentinelFinding(
                check=f"digest:{name}", baseline=base, observed=seen,
                delta=None, verdict=verdict,
                note=(
                    "" if verdict == "match"
                    else "same code fingerprint" if same_code
                    else f"fingerprint {baseline.fingerprint} -> "
                         f"{observed.fingerprint}"
                ),
            ))

    # Metrics snapshot digest (runs): a changed deterministic snapshot
    # under unchanged code is as alarming as a changed output digest.
    if baseline.metrics_digest and observed.metrics_digest:
        same_code = (
            baseline.fingerprint is not None
            and baseline.fingerprint == observed.fingerprint
        )
        if baseline.metrics_digest != observed.metrics_digest:
            findings.append(SentinelFinding(
                check="metrics_snapshot",
                baseline=baseline.metrics_digest,
                observed=observed.metrics_digest,
                delta=None,
                verdict="divergent" if same_code else "drift",
                note="deterministic metrics snapshot changed",
            ))

    # Fidelity rollup + verdict counts.
    if baseline.fidelity_status and observed.fidelity_status:
        base_rank = _fidelity_rank(baseline.fidelity_status)
        seen_rank = _fidelity_rank(observed.fidelity_status)
        if seen_rank > base_rank:
            verdict = (
                "divergent"
                if observed.fidelity_status == "divergent" else "drift"
            )
        else:
            verdict = "match"
        findings.append(SentinelFinding(
            check="fidelity", baseline=baseline.fidelity_status,
            observed=observed.fidelity_status, delta=None,
            verdict=verdict,
            note="" if verdict == "match" else "fidelity worsened",
        ))
        for status, severity in (
            ("divergent", "divergent"), ("missing", "drift"),
            ("drift", "drift"),
        ):
            base = baseline.fidelity_counts.get(status, 0)
            seen = observed.fidelity_counts.get(status, 0)
            if seen > base:
                findings.append(SentinelFinding(
                    check=f"fidelity:{status}", baseline=base,
                    observed=seen, delta=float(seen - base),
                    verdict=severity,
                    note=f"{seen - base} more {status} key(s)",
                ))

    return SentinelReport(
        series_key=observed.series_key,
        subject=observed.label(),
        subject_entry_id=observed.entry_id,
        baseline_entry_id=baseline.entry_id,
        findings=findings,
    )


def _fidelity_rank(status: str) -> int:
    try:
        return _FIDELITY_ORDER.index(status)
    except ValueError:
        return 0


def check_series(
    store: RunRepository,
    series_key: str,
    bands: Optional[dict] = None,
) -> Optional[SentinelReport]:
    """Judge one trajectory's newest entry against its predecessor;
    ``None`` when the trajectory has fewer than two points."""
    trajectory = store.trajectory(series_key)
    if len(trajectory) < 2:
        return None
    return judge_entries(trajectory[-2], trajectory[-1], bands=bands)


def check_store(
    store: RunRepository, bands: Optional[dict] = None
) -> List[SentinelReport]:
    """One report per trajectory with at least two points."""
    reports = []
    for series_key in store.series_keys():
        report = check_series(store, series_key, bands=bands)
        if report is not None:
            reports.append(report)
    return reports


def worst_status(reports: List[SentinelReport]) -> str:
    worst = 0
    for report in reports:
        worst = max(worst, _VERDICT_RANK.get(report.status, 0))
    return ("match", "drift", "divergent")[worst]


def write_regressions(
    path: Union[str, Path], reports: List[SentinelReport]
) -> dict:
    """Serialise ``reports`` as a ``regressions.json`` verdict file."""
    payload = {
        "schema_version": REGRESSIONS_SCHEMA_VERSION,
        "status": worst_status(reports),
        "reports": [report.as_dict() for report in reports],
    }
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    tmp.replace(path)
    return payload
