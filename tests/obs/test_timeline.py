"""The telemetry timeline: extraction, trajectories as the run catalog
stores them, and the pure-cache contract for its entries (pinned for
the whole catalog in ``tests/service/test_repository.py``)."""

import json

import pytest

from repro.obs.timeline import entries_from_bench_file
from repro.service.repository import RunRepository


def _bench_payload(**overrides):
    """A minimal two-point bench file in the current script layout."""
    payload = {
        "bench": {
            "scale": "seed", "seed": 7, "domains": 2500,
            "wan_rounds": 36, "workers": 0,
        },
        "host": {"platform": "test"},
        "timings_s": {"dataset_s": 1.2, "total_s": 2.0},
        "dataset_steps_s": {},
        "campaigns_s": {},
        "rss_kib": {"high_water_kib": 80000},
        "digests": {"records": "a" * 16, "trace": "b" * 16},
        "trajectory": [
            {
                "fingerprint": "a" * 12,
                "scale": "seed",
                "timings_s": {"dataset_s": 1.0, "total_s": 1.8},
                "rss_high_water_kib": 79000,
                "recorded_unix": 1000.0,
            },
            {
                "fingerprint": "b" * 12,
                "scale": "seed",
                "timings_s": {"dataset_s": 1.2, "total_s": 2.0},
                "rss_high_water_kib": 80000,
                "recorded_unix": 2000.0,
            },
        ],
    }
    payload.update(overrides)
    return payload


@pytest.fixture()
def bench_file(tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(_bench_payload()))
    return path


def test_bench_extraction_one_entry_per_position(bench_file):
    entries = entries_from_bench_file(bench_file)
    assert [e.position for e in entries] == [0, 1]
    assert [e.fingerprint for e in entries] == ["a" * 12, "b" * 12]
    assert entries[0].timings == {"dataset_s": 1.0, "total_s": 1.8}
    assert [e.recorded_at for e in entries] == [1000.0, 2000.0]
    # Both positions share one trajectory.
    assert len({e.series_key for e in entries}) == 1


def test_bench_digests_attach_to_the_freshest_position(bench_file):
    entries = entries_from_bench_file(bench_file)
    assert entries[0].digests == {}
    assert entries[1].digests == {
        "records": "a" * 16, "trace": "b" * 16,
    }


def test_unstamped_positions_never_outrank_stamped_ones(tmp_path):
    """Legacy trajectory entries without recorded_unix fall back to the
    file mtime, which postdates every real stamp — recorded_at must
    stay non-decreasing along positions so the sentinel always judges
    the newest pair."""
    payload = _bench_payload()
    del payload["trajectory"][0]["recorded_unix"]  # falls to mtime
    path = tmp_path / "BENCH_mixed.json"
    path.write_text(json.dumps(payload))
    entries = entries_from_bench_file(path)
    assert entries[0].recorded_at <= entries[1].recorded_at
    with RunRepository(tmp_path / "root", bench_paths=[path]) as store:
        store.scan()
        (key,) = store.series_keys()
        assert [e.position for e in store.trajectory(key)] == [0, 1]


def test_non_bench_json_is_rejected(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"something": "else"}))
    with pytest.raises(ValueError):
        entries_from_bench_file(path)


def test_scan_indexes_root_bench_products(tmp_path, bench_file):
    bench_dir = tmp_path / "root" / "bench"
    bench_dir.mkdir(parents=True)
    (bench_dir / "job-0.json").write_text(json.dumps(_bench_payload()))
    # Sentinel verdicts next to bench output are never timeline input.
    (bench_dir / "job-0.regressions.json").write_text("{}")
    with RunRepository(
        tmp_path / "root", bench_paths=[bench_file]
    ) as store:
        report = store.scan()
        assert report.benches == 2
        assert report.entries == 4
        assert report.skipped_benches == []
        counts = store.counts()
        assert counts["bench_entries"] == 4
        assert counts["run_entries"] == 0


def test_scan_drops_rows_for_vanished_sources(tmp_path):
    root = tmp_path / "root"
    bench_dir = root / "bench"
    bench_dir.mkdir(parents=True)
    product = bench_dir / "job-0.json"
    product.write_text(json.dumps(_bench_payload()))
    with RunRepository(root) as store:
        assert store.scan().entries == 2
        product.unlink()
        assert store.scan().entries == 0
        assert store.entries() == []


def test_trajectory_orders_by_recorded_at(tmp_path, bench_file):
    with RunRepository(tmp_path / "root", bench_paths=[bench_file]) as s:
        s.scan()
        (key,) = s.series_keys()
        trajectory = s.trajectory(key)
        assert [e.recorded_at for e in trajectory] == [1000.0, 2000.0]


def test_record_bench_is_incremental(tmp_path, bench_file):
    with RunRepository(tmp_path / "root") as store:
        assert store.counts()["entries"] == 0
        entries = store.record_bench(bench_file)
        assert len(entries) == 2
        assert store.counts()["entries"] == 2
        # Re-recording the same file is idempotent.
        store.record_bench(bench_file)
        assert store.counts()["entries"] == 2


def test_entries_filters(tmp_path, bench_file):
    with RunRepository(tmp_path / "root", bench_paths=[bench_file]) as s:
        s.scan()
        assert len(s.entries(source="bench")) == 2
        assert s.entries(source="run") == []
        assert len(s.entries(fingerprint="a" * 12)) == 1
        assert len(s.entries(limit=1)) == 1


def test_pure_cache_rebuild_is_query_identical(tmp_path, bench_file):
    """Delete the SQLite file, rebuild, identical entries — the
    tentpole contract."""
    root = tmp_path / "root"
    with RunRepository(root, bench_paths=[bench_file]) as store:
        store.scan()
        before = [e.as_dict() for e in store.entries()]
        assert before
        store.db_path.unlink()
        store.rebuild()
        assert [e.as_dict() for e in store.entries()] == before


def test_deleted_store_file_reconnects_midlife(tmp_path, bench_file):
    with RunRepository(tmp_path / "root") as store:
        store.record_bench(bench_file)
        store.db_path.unlink()
        # Queries keep working against a fresh (empty) store.
        assert store.entries() == []
        store.record_bench(bench_file)
        assert store.counts()["entries"] == 2
