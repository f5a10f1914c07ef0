"""Timeline rendering: the ``repro report`` text view and the
service's stdlib-only ``/dashboard`` HTML.

Both views render one read of the run catalog's telemetry entries
(:meth:`~repro.service.repository.RunRepository.trajectories`, two SQL
statements however many trajectories the catalog holds) and show the
same facts: one section per trajectory (config series) with per-stage
timing sparklines, the peak-RSS trajectory, the fidelity verdict
history, and — for longitudinal runs — an epoch trend table.  The HTML
is a ``<pre>``-heavy single page with no scripts, no external assets,
and every dynamic string escaped; it exists so a browser pointed at a
long-running ``repro serve`` can see the service's performance history
without tooling.
"""

from __future__ import annotations

import html
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.sentinel import SentinelReport, worst_status
from repro.obs.timeline import TimelineEntry, ordered_entries
from repro.report.ascii_plot import sparkline

if TYPE_CHECKING:
    from repro.service.repository import RunRepository

#: Fidelity statuses compressed to one history letter each.
_STATUS_LETTERS = {
    "match": "M", "drift": "d", "missing": "m",
    "divergent": "X", "exempt": "e",
}

#: Sparkline width: trajectories longer than this show their freshest
#: points only.
_SPARK_WIDTH = 40


def _fmt_seconds(value: Optional[float]) -> str:
    return f"{value:.3f}s" if isinstance(value, (int, float)) else "-"


def _stage_names(trajectory: List[TimelineEntry]) -> List[str]:
    names: List[str] = []
    for entry in trajectory:
        for name in entry.timings:
            if name != "total_s" and name not in names:
                names.append(name)
    names.sort()
    names.append("total_s")
    return names


def render_series(trajectory: List[TimelineEntry]) -> str:
    """One trajectory as a text section (sparklines + latest values)."""
    if not trajectory:
        return "(empty trajectory)"
    latest = trajectory[-1]
    lines = [
        f"{latest.label()}  — {len(trajectory)} entr"
        f"{'y' if len(trajectory) == 1 else 'ies'}"
        f"  [series {latest.series_key}]"
    ]
    for stage in _stage_names(trajectory):
        values = [
            e.timings[stage] for e in trajectory if stage in e.timings
        ]
        if not values:
            continue
        lines.append(
            f"  {stage:<22s} {sparkline(values, _SPARK_WIDTH):<{_SPARK_WIDTH}s}"
            f"  {_fmt_seconds(values[-1])}"
        )
    rss = [
        e.rss_high_water_kib for e in trajectory
        if e.rss_high_water_kib
    ]
    if rss:
        lines.append(
            f"  {'rss_high_water':<22s} "
            f"{sparkline(rss, _SPARK_WIDTH):<{_SPARK_WIDTH}s}"
            f"  {rss[-1] / 1024:.0f} MiB"
        )
    history = "".join(
        _STATUS_LETTERS.get(e.fidelity_status or "", "·")
        for e in trajectory
    )
    if history.strip("·"):
        lines.append(
            f"  {'fidelity':<22s} {history:<{_SPARK_WIDTH}s}"
            f"  {latest.fidelity_status or '-'}"
        )
    fingerprints = [
        e.fingerprint for e in trajectory if e.fingerprint
    ]
    if fingerprints:
        changes = sum(
            1 for a, b in zip(fingerprints, fingerprints[1:]) if a != b
        )
        lines.append(
            f"  {'code':<22s} {fingerprints[-1]}"
            + (f"  ({changes} fingerprint change"
               f"{'' if changes == 1 else 's'})" if changes else "")
        )
    return "\n".join(lines)


def epoch_trend_rows(
    trajectories: Dict[str, List[TimelineEntry]],
) -> List[Dict[str, object]]:
    """Longitudinal runs of one timeline read folded into (plan,
    epoch) trend rows."""
    rows: List[Dict[str, object]] = []
    for entry in ordered_entries(trajectories):
        if entry.source != "run" or entry.epoch_plan is None:
            continue
        rows.append({
            "plan": entry.epoch_plan,
            "epoch": entry.epoch_index,
            "fidelity": entry.fidelity_status or "-",
            "total_s": entry.timings.get("total_s"),
            "scenario": entry.scenario or "-",
        })
    rows.sort(key=lambda r: (r["plan"], r["epoch"] or 0))
    return rows


def render_timeline(
    trajectories: Dict[str, List[TimelineEntry]],
    reports: Optional[List[SentinelReport]] = None,
) -> str:
    """The full ``repro report`` text of one
    :meth:`~repro.service.repository.RunRepository.trajectories` read:
    per-trajectory sections, the epoch trend table, and (when given)
    the sentinel's verdicts.  It runs no query of its own."""
    sources = Counter(
        entry.source for trajectory in trajectories.values()
        for entry in trajectory
    )
    lines = [
        "telemetry timeline — "
        f"{sum(sources.values())} entries "
        f"({sources['run']} runs, {sources['bench']} bench) across "
        f"{len(trajectories)} trajectories",
        "",
    ]
    for trajectory in trajectories.values():
        lines.append(render_series(trajectory))
        lines.append("")
    epochs = epoch_trend_rows(trajectories)
    if epochs:
        from repro.report.table import TextTable

        table = TextTable(
            ["Plan", "Epoch", "Fidelity", "Total", "Scenario"],
            title="Epoch trends",
        )
        for row in epochs:
            table.add_row([
                row["plan"],
                row["epoch"] if row["epoch"] is not None else 0,
                row["fidelity"],
                _fmt_seconds(row["total_s"]),
                row["scenario"],
            ])
        lines.append(table.render())
        lines.append("")
    if reports is not None:
        lines.append(
            "sentinel: "
            + (f"{len(reports)} trajectories judged"
               if reports else "nothing to judge "
                               "(no trajectory has two entries yet)")
        )
        for report in reports:
            lines.append(report.render_text())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_report(
    store: RunRepository,
    reports: Optional[List[SentinelReport]] = None,
) -> str:
    """:func:`render_timeline` over one read of the store's timeline
    (two SQL statements, however many trajectories it holds)."""
    return render_timeline(store.trajectories(), reports)


def render_html(
    trajectories: Dict[str, List[TimelineEntry]],
    reports: Optional[List[SentinelReport]] = None,
    health: Optional[dict] = None,
) -> str:
    """The ``/dashboard`` page: the text report of one timeline read
    inside a minimal, script-free HTML shell (everything dynamic
    escaped)."""
    body_sections = []
    if health:
        items = "".join(
            f"<li><b>{html.escape(str(k))}</b>: "
            f"{html.escape(str(v))}</li>"
            for k, v in sorted(health.items())
        )
        body_sections.append(f"<ul>{items}</ul>")
    status = worst_status(reports or [])
    badge_class = {"match": "ok", "drift": "warn",
                   "divergent": "bad"}[status]
    body_sections.append(
        f'<p>sentinel status: <span class="badge {badge_class}">'
        f"{html.escape(status)}</span></p>"
    )
    body_sections.append(
        "<pre>" + html.escape(render_timeline(trajectories, reports))
        + "</pre>"
    )
    return (
        "<!DOCTYPE html>\n"
        "<html><head><meta charset=\"utf-8\">"
        "<title>repro watchtower</title>"
        "<style>"
        "body{font-family:monospace;margin:2em;background:#fdfdfd;}"
        "pre{line-height:1.35;}"
        ".badge{padding:2px 8px;border-radius:4px;color:#fff;}"
        ".ok{background:#2e7d32;}"
        ".warn{background:#f9a825;}"
        ".bad{background:#c62828;}"
        "</style></head><body>"
        "<h1>repro watchtower</h1>"
        + "".join(body_sections)
        + "</body></html>\n"
    )
