"""The watchtower's one timeline read.

``/dashboard``, ``repro report`` and the sentinel's ``check_store``
each work from one :meth:`RunRepository.trajectories` read.  These
tests hold that read to the per-trajectory path it replaced: the same
trajectories, the same verdicts, the same epoch rows and the same
bytes, on a catalog whose section order and epoch rows depend on tie
breaks, and a fixed number of SQL statements per view however many
trajectories the catalog holds.
"""

import html
import json
import os
import shutil

import pytest

from repro.obs.dashboard import epoch_trend_rows, render_series
from repro.obs.sentinel import (
    EXIT_REGRESSION,
    check_series,
    check_store,
    worst_status,
)
from repro.report.table import TextTable
from repro.service.api import ServiceAPI
from repro.service.cli import service_main
from repro.service.repository import RunRepository
from tests.obs.test_timeline import _bench_payload
from tests.service.conftest import SCENARIO, healthy_and_drilled

#: The first recorded_at of three trajectories (two bench, one run):
#: their section order falls to ``MIN(entry_id)``.
TIE = 1000.0


# -- the parent's per-trajectory path, kept as the reference -----------


def _reference_epoch_rows(store):
    rows = []
    for entry in store.entries(source="run"):
        if entry.epoch_plan is None:
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


def _reference_reports(store):
    reports = []
    for series_key in store.series_keys():
        report = check_series(store, series_key)
        if report is not None:
            reports.append(report)
    return reports


def _seconds(value):
    return f"{value:.3f}s" if isinstance(value, (int, float)) else "-"


def _reference_report(store, reports=None):
    counts = store.counts()
    lines = [
        "telemetry timeline — "
        f"{counts['entries']} entries "
        f"({counts['run_entries']} runs, "
        f"{counts['bench_entries']} bench) across "
        f"{counts['series_keys']} trajectories",
        "",
    ]
    for series_key in store.series_keys():
        lines.append(render_series(store.trajectory(series_key)))
        lines.append("")
    epochs = _reference_epoch_rows(store)
    if epochs:
        table = TextTable(
            ["Plan", "Epoch", "Fidelity", "Total", "Scenario"],
            title="Epoch trends",
        )
        for row in epochs:
            table.add_row([
                row["plan"],
                row["epoch"] if row["epoch"] is not None else 0,
                row["fidelity"],
                _seconds(row["total_s"]),
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


def _reference_html(store, reports, health):
    items = "".join(
        f"<li><b>{html.escape(str(k))}</b>: "
        f"{html.escape(str(v))}</li>"
        for k, v in sorted(health.items())
    )
    status = (
        max(
            (r.status for r in reports),
            key=("match", "drift", "divergent").index,
        )
        if reports else "match"
    )
    badge_class = {"match": "ok", "drift": "warn",
                   "divergent": "bad"}[status]
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
        f"<ul>{items}</ul>"
        f'<p>sentinel status: <span class="badge {badge_class}">'
        f"{html.escape(status)}</span></p>"
        "<pre>" + html.escape(_reference_report(store, reports))
        + "</pre>"
        "</body></html>\n"
    )


def _reference_json(store, reports):
    payload = {
        "counts": store.counts(),
        "entries": [entry.as_dict() for entry in store.entries()],
        "skipped_benches": [],
    }
    if reports is not None:
        payload["regressions"] = {
            "status": worst_status(reports),
            "reports": [r.as_dict() for r in reports],
        }
    return json.dumps(payload, indent=2) + "\n"


# -- the catalog under test ------------------------------------------


def _stamp(run_dir, recorded_at):
    """Pin a run entry's recorded_at (its timings.json mtime)."""
    os.utime(run_dir / "timings.json", (recorded_at, recorded_at))


def _clone_run(root, run_id, clone_id, recorded_at, seed=None,
               stage_scale=1.0):
    """A copy of ``run_id`` under a new id: the same trajectory unless
    ``seed`` moves it to another, with its stages scaled."""
    clone = root / clone_id
    shutil.copytree(root / run_id, clone)
    manifest = json.loads((clone / "manifest.json").read_text())
    manifest["run_id"] = clone_id
    manifest["code_fingerprint"] = f"clone-{clone_id}"
    if seed is not None:
        manifest["config"]["seed"] = seed
    (clone / "manifest.json").write_text(json.dumps(manifest))
    timings = json.loads((clone / "timings.json").read_text())
    timings["stages_s"] = {
        name: seconds * stage_scale
        for name, seconds in timings["stages_s"].items()
    }
    (clone / "timings.json").write_text(json.dumps(timings))
    _stamp(clone, recorded_at)


def _write_bench(root, name, domains, stamps):
    """A bench file whose trajectory is recorded at ``stamps``."""
    payload = _bench_payload()
    payload["bench"]["domains"] = domains
    payload["trajectory"] = [
        {
            "fingerprint": f"{position:012x}",
            "scale": "seed",
            "timings_s": {"dataset_s": 1.0 + 0.4 * position,
                          "total_s": 2.0 + 0.4 * position},
            "rss_high_water_kib": 80000 + 1000 * position,
            "recorded_unix": stamp,
        }
        for position, stamp in enumerate(stamps)
    ]
    (root / "bench").mkdir(parents=True, exist_ok=True)
    (root / "bench" / name).write_text(json.dumps(payload))


def _bench_root(path, trajectories):
    """A root of ``trajectories`` two-entry bench trajectories."""
    for index in range(trajectories):
        _write_bench(path, f"job-{index:03d}.json", 1000 + index,
                     [TIE + index, 9000.0 + index])
    return path


@pytest.fixture()
def watch_root(repo_root):
    """The fixture tree (a healthy run, an outage run and a 2-epoch
    series) grown into a catalog with these trajectories:

    * three bench ones: two multi-entry ones starting at ``TIE`` and a
      single-entry one;
    * the healthy run's, three entries, and the epoch-1 run's, two
      entries, both from ``TIE`` on: four multi-entry trajectories tie
      on their first recorded_at.  Of the two run ones, the one whose
      first entry has the larger id holds the smallest later id, so
      ``MIN(entry_id)`` orders them unlike their first entries do;
    * an epoch-1 run under another seed, recorded between the epoch-1
      run's two entries: its epoch row sorts between theirs only in
      timeline order;
    * the outage run's and the epoch-0 run's, one entry each.
    """
    with RunRepository(repo_root) as store:
        store.scan()
        healthy, drilled = healthy_and_drilled(store)
        (epoch_1,) = [r.run_id for r in store.runs() if r.epoch_index]
        epoch_0 = next(
            r.run_id for r in store.runs(experiment="table03")
            if r.run_id not in (healthy, drilled, epoch_1)
        )
    for run_id, recorded_at in ((healthy, TIE), (drilled, 1500.0),
                                (epoch_0, 1200.0), (epoch_1, TIE)):
        _stamp(repo_root / run_id, recorded_at)
    digit = {healthy: "f", epoch_1: "f"}
    digit[max(healthy, epoch_1)] = "0"
    _clone_run(repo_root, healthy, f"run-{digit[healthy] * 11}1",
               2500.0, stage_scale=1.3)
    _clone_run(repo_root, healthy, f"run-{digit[healthy] * 11}2",
               4500.0, stage_scale=2.0)
    _clone_run(repo_root, epoch_1, f"run-{digit[epoch_1] * 11}3",
               6000.0, stage_scale=1.5)
    _clone_run(repo_root, epoch_1, "run-aaaaaaaaaaa4", 3500.0, seed=8,
               stage_scale=0.5)
    _write_bench(repo_root, "job-a.json", 2500, [TIE, 3000.0, 5000.0])
    _write_bench(repo_root, "job-b.json", 100000, [TIE, 4000.0])
    _write_bench(repo_root, "job-c.json", 30000, [2000.0])
    return repo_root


@pytest.fixture(params=["catalog", "empty"])
def root(request, tmp_path):
    if request.param == "empty":
        return tmp_path / "empty"
    return request.getfixturevalue("watch_root")


@pytest.fixture()
def store(root):
    with RunRepository(root) as store:
        store.scan()
        yield store


def test_the_catalog_holds_the_cases(watch_root):
    with RunRepository(watch_root) as store:
        store.scan()
        trajectories = store.trajectories()
        in_time = [
            e.entry_id for e in store.entries(source="run")
            if e.epoch_plan is not None
        ]
    multi = [t for t in trajectories.values() if len(t) > 1]
    tied = [t for t in multi if t[0].recorded_at == TIE]
    assert len(tied) == 4
    by_first_entry = sorted(tied, key=lambda t: t[0].entry_id)
    assert tied != by_first_entry
    assert any(len(t) == 1 for t in trajectories.values())
    sources = {e.source for t in multi for e in t}
    assert sources == {"run", "bench"}
    assert any(t[0].scenario == SCENARIO for t in trajectories.values())
    # Read by trajectory, the epoch-1 rows come out in another order
    # than the timeline's: the trend table must not follow it.
    grouped = [
        e.entry_id for t in trajectories.values() for e in t
        if e.epoch_plan is not None
    ]
    assert len(grouped) == 3
    assert grouped != in_time


# -- the one read equals the per-trajectory path -----------------------


def test_one_read_equals_the_per_trajectory_path(store):
    expected = {k: store.trajectory(k) for k in store.series_keys()}
    trajectories = store.trajectories()
    assert list(trajectories) == list(expected)
    assert trajectories == expected


def test_an_entry_landing_between_the_two_queries_is_kept(
    tmp_path, monkeypatch
):
    """Another handle's scan can commit between the read's two queries:
    a trajectory it added is kept, after the listed ones."""
    with RunRepository(_bench_root(tmp_path / "root", 2)) as store:
        store.scan()
        first, second = store.series_keys()
        monkeypatch.setattr(store, "series_keys", lambda: [first])
        trajectories = store.trajectories()
        assert list(trajectories) == [first, second]
        assert trajectories[second] == store.trajectory(second)


def test_check_store_equals_check_series(store):
    assert [r.as_dict() for r in check_store(store)] == [
        r.as_dict() for r in _reference_reports(store)
    ]


def test_epoch_rows_equal_the_run_entry_path(store):
    assert epoch_trend_rows(store.trajectories()) == (
        _reference_epoch_rows(store)
    )


def test_dashboard_serves_the_reference_bytes(store):
    api = ServiceAPI(store)
    reports = _reference_reports(store)
    _, _, health = api.handle("GET", "/health", None)
    status, _, page = api.respond("GET", "/dashboard", None)
    assert status == 200
    assert page.decode() == _reference_html(store, reports, health)
    status, _, text = api.respond("GET", "/dashboard?format=text", None)
    assert status == 200
    assert text.decode() == _reference_report(store, reports)


@pytest.mark.parametrize("flags", [[], ["--check"], ["--json"],
                                   ["--json", "--check"]],
                         ids=["plain", "check", "json", "json-check"])
def test_report_prints_the_reference_bytes(root, capsys, flags):
    code = service_main(["report", "--root", str(root), *flags])
    printed = capsys.readouterr().out
    with RunRepository(root) as store:
        reports = (
            _reference_reports(store) if "--check" in flags else None
        )
        if "--json" in flags:
            expected = _reference_json(store, reports)
        else:
            expected = _reference_report(store, reports)
    assert printed == expected
    drifted = reports is not None and worst_status(reports) != "match"
    assert code == (EXIT_REGRESSION if drifted else 0)


# -- a fixed number of statements per view -----------------------------


def _statements(repository, call):
    """How many SQL statements ``call()`` runs on the catalog."""
    statements = []
    repository._conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        repository._conn.set_trace_callback(None)
    return len(statements)


def test_a_view_runs_a_fixed_number_of_statements(tmp_path):
    counted = {}
    for size in (3, 30):
        with RunRepository(_bench_root(tmp_path / str(size), size)) as store:
            store.scan()
            assert len(check_store(store)) == size
            api = ServiceAPI(store)
            counted[size] = (
                _statements(store, lambda: api.handle(
                    "GET", "/dashboard", None
                )),
                _statements(store, lambda: check_store(store)),
            )
    assert counted[3] == counted[30]
    dashboard, sentinel = counted[30]
    assert dashboard <= 4
    assert sentinel <= 4
