"""The regression sentinel: tolerance bands over timeline trajectories."""

import json

from repro.obs.sentinel import (
    EXIT_REGRESSION,
    check_series,
    check_store,
    judge_entries,
    worst_status,
    write_regressions,
)
from repro.obs.timeline import TimelineEntry
from repro.service.repository import RunRepository


def _entry(entry_id="e0", recorded_at=1000.0, **overrides):
    fields = dict(
        entry_id=entry_id,
        source="bench",
        origin="test",
        position=0,
        series_key="series-1",
        fingerprint="a" * 12,
        scale="seed",
        seed=7,
        domains=2500,
        wan_rounds=36,
        scenario=None,
        epoch_plan=None,
        epoch_index=None,
        recorded_at=recorded_at,
        fidelity_status=None,
        fidelity_counts={},
        timings={"dataset_s": 1.0, "total_s": 2.0},
        rss_high_water_kib=80000,
        digests={"records": "a" * 16},
        metrics_digest=None,
        extra={},
    )
    fields.update(overrides)
    return TimelineEntry(**fields)


def _finding(report, check):
    (match,) = [f for f in report.findings if f.check == check]
    return match


def test_identical_entries_match():
    report = judge_entries(_entry(), _entry(entry_id="e1"))
    assert report.status == "match"


def test_25_percent_slowdown_is_drift():
    """The acceptance scenario: +25% on a stage lands in drift."""
    report = judge_entries(
        _entry(),
        _entry(
            entry_id="e1",
            timings={"dataset_s": 1.25, "total_s": 2.0},
        ),
    )
    assert report.status == "drift"
    finding = _finding(report, "stage:dataset_s")
    assert finding.verdict == "drift"


def test_within_20_percent_matches():
    report = judge_entries(
        _entry(),
        _entry(
            entry_id="e1",
            timings={"dataset_s": 1.15, "total_s": 2.0},
        ),
    )
    assert _finding(report, "stage:dataset_s").verdict == "match"


def test_2x_slowdown_is_divergent():
    report = judge_entries(
        _entry(),
        _entry(
            entry_id="e1",
            timings={"dataset_s": 2.1, "total_s": 2.0},
        ),
    )
    assert report.status == "divergent"


def test_speedups_match():
    report = judge_entries(
        _entry(),
        _entry(
            entry_id="e1",
            timings={"dataset_s": 0.5, "total_s": 1.0},
        ),
    )
    assert report.status == "match"


def test_noise_floor_stages_are_info_not_scored():
    report = judge_entries(
        _entry(timings={"world_s": 0.01}),
        _entry(entry_id="e1", timings={"world_s": 0.09}),
    )
    assert _finding(report, "stage:world_s").verdict == "info"
    assert report.status == "match"


def test_rss_growth_bands():
    base = _entry()
    assert judge_entries(
        base, _entry(entry_id="e1", rss_high_water_kib=88000)
    ).status == "match"  # +10%
    assert judge_entries(
        base, _entry(entry_id="e2", rss_high_water_kib=104000)
    ).status == "drift"  # +30%
    assert judge_entries(
        base, _entry(entry_id="e3", rss_high_water_kib=160000)
    ).status == "divergent"  # +100%


def test_digest_change_under_same_code_is_divergent():
    report = judge_entries(
        _entry(),
        _entry(entry_id="e1", digests={"records": "b" * 16}),
    )
    finding = _finding(report, "digest:records")
    assert finding.verdict == "divergent"
    assert "same code fingerprint" in finding.note


def test_digest_change_under_new_code_is_drift():
    report = judge_entries(
        _entry(),
        _entry(
            entry_id="e1",
            fingerprint="b" * 12,
            digests={"records": "b" * 16},
        ),
    )
    assert _finding(report, "digest:records").verdict == "drift"


def test_fidelity_worsening_flips():
    base = _entry(
        fidelity_status="match",
        fidelity_counts={"match": 10},
        digests={},
    )
    worsened = _entry(
        entry_id="e1",
        fidelity_status="divergent",
        fidelity_counts={"match": 8, "divergent": 2},
        digests={},
    )
    report = judge_entries(base, worsened)
    assert _finding(report, "fidelity").verdict == "divergent"
    assert _finding(report, "fidelity:divergent").verdict == "divergent"
    # The reverse direction (recovery) is not a regression.
    assert judge_entries(worsened, base).status == "match"


def test_check_series_needs_two_points(tmp_path):
    with RunRepository(tmp_path) as store:
        assert check_series(store, "missing") is None


def test_check_store_judges_latest_pair(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    payload = {
        "bench": {"scale": "seed", "seed": 7, "domains": 2500,
                  "wan_rounds": 36, "workers": 0},
        "digests": {"records": "a" * 16},
        "trajectory": [
            {"fingerprint": "a" * 12,
             "timings_s": {"dataset_s": 1.0},
             "rss_high_water_kib": 80000, "recorded_unix": 1.0},
            {"fingerprint": "a" * 12,
             "timings_s": {"dataset_s": 1.3},
             "rss_high_water_kib": 80000, "recorded_unix": 2.0},
        ],
    }
    (bench / "job-0.json").write_text(json.dumps(payload))
    with RunRepository(tmp_path) as store:
        store.scan()
        reports = check_store(store)
    assert len(reports) == 1
    assert reports[0].status == "drift"
    assert worst_status(reports) == "drift"


def test_write_regressions_payload(tmp_path):
    report = judge_entries(
        _entry(),
        _entry(entry_id="e1", timings={"dataset_s": 1.3, "total_s": 2.0}),
    )
    path = tmp_path / "out" / "regressions.json"
    payload = write_regressions(path, [report])
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["status"] == "drift"
    assert on_disk["schema_version"] == 1
    (entry,) = on_disk["reports"]
    assert entry["subject_entry_id"] == "e1"
    assert any(
        f["check"] == "stage:dataset_s" and f["verdict"] == "drift"
        for f in entry["findings"]
    )


def test_exit_code_is_distinct():
    assert EXIT_REGRESSION == 5
    from repro.experiments.cli import EXIT_DIVERGENT
    from repro.service.cli import EXIT_SERVICE

    assert len({EXIT_REGRESSION, EXIT_SERVICE, EXIT_DIVERGENT, 0, 2}) == 5
