"""Repository-layer tests: the SQLite catalog is a pure cache.

The load-bearing invariant: deleting, corrupting or replacing the index
and re-scanning the same tree must answer every query — runs, series
and telemetry entries — identically, and corrupt or partial run
directories are skipped with a warning, never raised.
"""

import json
import logging
import os
import shutil
import sqlite3
from contextlib import closing

import pytest

from repro.service.errors import UnknownRunError, UnknownSeriesError
from repro.service.repository import INDEX_FILENAME, RunRepository
from tests.obs.test_timeline import _bench_payload
from tests.service.conftest import (
    DOMAINS,
    SCENARIO,
    SEED,
    healthy_and_drilled,
)


@pytest.fixture()
def repository(repo_root):
    """A scanned catalog over the fixture tree plus one bench product,
    so it holds run, series and both kinds of telemetry entry."""
    (repo_root / "bench").mkdir()
    (repo_root / "bench" / "job-0.json").write_text(
        json.dumps(_bench_payload())
    )
    with RunRepository(repo_root) as repository:
        repository.scan()
        yield repository


def _snapshot(repository):
    """Every query answer the catalog can give, as plain data."""
    return {
        "runs": [r.as_dict() for r in repository.runs()],
        "by_scenario": [
            r.as_dict() for r in repository.runs(scenario=SCENARIO)
        ],
        "by_experiment": [
            r.as_dict() for r in repository.runs(experiment="figure10")
        ],
        "series": [s.as_dict() for s in repository.series()],
        "entries": [e.as_dict() for e in repository.entries()],
        "series_keys": repository.series_keys(),
        "counts": repository.counts(),
    }


def test_scan_indexes_the_whole_tree(repository):
    counts = repository.counts()
    # 2 single-shot runs + 2 epoch runs from the 2-epoch series, one
    # telemetry entry and trajectory each, plus the bench file's
    # two-point trajectory.
    assert counts == {
        "runs": 4, "series": 1, "entries": 6, "run_entries": 4,
        "bench_entries": 2, "series_keys": 5,
    }


def test_queries_filter_and_order(repository):
    everything = repository.runs()
    assert [r.run_id for r in everything] == sorted(
        r.run_id for r in everything
    )
    assert all(r.seed == SEED for r in everything)
    assert all(r.domains == DOMAINS for r in everything)

    drilled = repository.runs(scenario=SCENARIO)
    assert len(drilled) == 1
    assert drilled[0].scenario == SCENARIO

    with_figure = repository.runs(experiment="figure10")
    assert len(with_figure) == 2  # healthy + drilled

    assert repository.runs(seed=SEED + 1) == []
    assert len(repository.runs(limit=2)) == 2

    fingerprint = everything[0].code_fingerprint
    assert repository.runs(fingerprint=fingerprint) == everything
    status = everything[0].fidelity_status
    assert everything[0] in repository.runs(status=status)


def test_series_queries(repository):
    (series,) = repository.series()
    assert series.epochs == 2
    assert len(series.run_ids) == 2
    assert repository.series(plan=series.plan) == [series]
    assert repository.series(plan="no-such-plan") == []
    payload = repository.load_series_payload(series.series_id)
    assert payload["series_id"] == series.series_id


def test_rebuild_is_lossless(repository):
    before = _snapshot(repository)
    report = repository.rebuild()
    assert report.runs == 4 and report.series == 1
    assert not report.skipped
    assert _snapshot(repository) == before


def _delete(repository):
    repository.db_path.unlink()


def _swap_in(repository, write):
    """Replace the index file as another process would: ``write`` a
    spare file, then rename it over the index."""
    spare = repository.db_path.with_name("spare.sqlite")
    write(spare)
    os.replace(spare, repository.db_path)


def _garbage(repository):
    _swap_in(repository, lambda spare: spare.write_bytes(b"not sqlite"))


def _rebuilt_by_a_second_handle(repository):
    with RunRepository(repository.root) as other:
        other.rebuild()


def _older_schema(repository):
    def write(spare):
        shutil.copy(repository.db_path, spare)
        with closing(sqlite3.connect(spare)) as conn:
            conn.execute(
                "UPDATE meta SET value = '1' WHERE key = 'index_schema'"
            )
            conn.commit()

    _swap_in(repository, write)


def _check_live_handle_survives(repository, spoil, kept):
    """Spoil the index under a live handle; its reads answer empty (or
    the other handle's rebuild when ``kept``), and its next scan, like
    a fresh handle, answers every query as before."""
    before = _snapshot(repository)
    assert repository.db_path.name == INDEX_FILENAME
    spoil(repository)
    counts = repository.counts()
    assert counts == (before["counts"] if kept else dict.fromkeys(counts, 0))
    report = repository.scan()
    assert (report.runs, report.series, report.benches) == (4, 1, 1)
    assert repository.db_path.exists()
    assert _snapshot(repository) == before
    with RunRepository(repository.root) as fresh:
        assert _snapshot(fresh) == before


def test_index_deleted_underneath_a_live_repository(repository):
    """The index file can vanish while the daemon holds a connection
    (it is only a cache) — the next scan must recreate it instead of
    failing on SQLite's read-only-database error."""
    _check_live_handle_survives(repository, _delete, kept=False)


@pytest.mark.parametrize("spoil, kept", [
    pytest.param(_garbage, False, id="garbage"),
    pytest.param(_rebuilt_by_a_second_handle, True, id="replaced"),
    pytest.param(_older_schema, False, id="older-schema"),
])
def test_index_replaced_underneath_a_live_repository(
    repository, spoil, kept
):
    """Another process can rename a different file over the index while
    the daemon holds a connection.  The live handle follows the file
    now at its path — dropping a corrupt or older-schema one, serving
    another handle's rebuild — and its next scan writes there instead
    of failing on SQLite's read-only-database error."""
    _check_live_handle_survives(repository, spoil, kept)


def test_fresh_repository_over_existing_index(repo_root):
    with RunRepository(repo_root) as first:
        first.scan()
        before = _snapshot(first)
    # A second repository over the same tree: the persisted index
    # already answers queries without a scan.
    with RunRepository(repo_root) as second:
        assert _snapshot(second) == before


def _truncate(path, keep=300):
    """Cut a file to its first ``keep`` bytes, as a crashed writer or
    a full disk leaves it."""
    path.write_bytes(path.read_bytes()[:keep])
    return path


def _truncated_series(root):
    (series_dir,) = root.glob("series-*")
    _truncate(series_dir / "series.json")
    return "skipped_series", str(series_dir)


def _truncated_bench(root):
    return "skipped_benches", str(_truncate(root / "bench" / "job-0.json"))


@pytest.mark.parametrize("damage", [
    pytest.param(None, id="run-dirs"),
    pytest.param(_truncated_series, id="truncated-series"),
    pytest.param(_truncated_bench, id="truncated-bench"),
])
def test_corrupt_dirs_are_skipped_with_a_warning(
    repository, caplog, damage
):
    root = repository.root
    (root / "run-badjson000000").mkdir()
    (root / "run-badjson000000" / "manifest.json").write_text("{nope")
    (root / "run-empty0000000").mkdir()  # no manifest at all
    # A manifest whose run_id contradicts its directory name.
    healthy, _ = healthy_and_drilled(repository)
    stolen = json.loads(
        (root / healthy / "manifest.json").read_text()
    )
    (root / "run-mismatched00").mkdir()
    (root / "run-mismatched00" / "manifest.json").write_text(
        json.dumps(stolen)
    )
    expected = {"skipped_series": [], "skipped_benches": []}
    if damage is not None:
        kind, path = damage(root)
        expected[kind] = [path]
    with caplog.at_level(logging.WARNING):
        report = repository.scan()
    skipped_paths = {entry["path"] for entry in report.skipped_runs}
    assert len(skipped_paths) == 3
    assert report.runs == 4  # the healthy tree is fully indexed
    assert any("skipping run dir" in r.message for r in caplog.records)
    # The skipped dirs never became queryable rows or entries.
    indexed = {r.run_id for r in repository.runs()}
    assert "run-badjson000000" not in indexed
    assert "run-mismatched00" not in indexed
    assert len(repository.entries(source="run")) == 4
    assert report.as_dict()["timeline"]["skipped"] == (
        report.skipped_runs + report.skipped_benches
    )
    # A truncated series or bench file is named in its own list, and
    # every other source stays indexed.
    assert {
        kind: [entry["path"] for entry in getattr(report, kind)]
        for kind in expected
    } == expected
    assert report.series == 1 - len(expected["skipped_series"])
    assert report.benches == 1 - len(expected["skipped_benches"])


def test_get_run_falls_back_to_disk(repo_root):
    # No scan: the index is empty, but the run is on disk.
    with RunRepository(repo_root) as repository:
        assert repository.counts()["runs"] == 0
        run_dirs = sorted(repo_root.glob("run-*"))
        record = repository.get_run(run_dirs[0].name)
        assert record.run_id == run_dirs[0].name
        # ...and the fallback indexed it for next time.
        assert repository.counts()["runs"] == 1


def test_unknown_ids_raise(repository):
    with pytest.raises(UnknownRunError):
        repository.get_run("run-000000000000")
    with pytest.raises(UnknownSeriesError):
        repository.get_series("series-000000000000")


def test_load_run_returns_the_full_record(repository):
    healthy, _ = healthy_and_drilled(repository)
    loaded = repository.load_run(healthy)
    assert loaded.run_id == healthy
    assert loaded.manifest["config"]["domains"] == DOMAINS
    assert loaded.fidelity  # fidelity.json sidecar present
    assert "experiments_s" in loaded.timings
