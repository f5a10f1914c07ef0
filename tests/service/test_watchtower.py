"""The watchtower integration surface of the service plane: retry
policy, request-id propagation, the access log, the /timeline +
/dashboard routes, and the sentinel pass after bench jobs."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.obs.events import EventSink
from repro.service import jobs
from repro.service.api import ServiceAPI
from repro.service.jobs import JobRecord, Scheduler
from repro.service.repository import RunRepository
from tests.obs.test_timeline import _bench_payload
from tests.service.test_jobs import tiny_spec


@pytest.fixture()
def repository(tmp_path):
    with RunRepository(tmp_path / "svc") as repository:
        repository.scan()
        yield repository


def _seed_bench(repository):
    """One recorded two-point bench trajectory."""
    path = repository.root / "BENCH_seeded.json"
    path.write_text(json.dumps(_bench_payload()))
    return repository.record_bench(path)


# -- retry policy ------------------------------------------------------


def test_default_budget_never_retries(repository, monkeypatch):
    scheduler = Scheduler(repository)

    def boom(spec):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(scheduler, "_execute_run", boom)
    scheduler.submit(tiny_spec())
    assert scheduler.run_pending() == 1
    (record,) = scheduler.jobs(status="failed")
    assert record.attempts == 1
    assert scheduler.claim_next() is None


def test_failed_jobs_reclaim_until_the_budget(repository, monkeypatch):
    scheduler = Scheduler(repository, max_attempts=3)
    monkeypatch.setattr(
        scheduler, "_execute_run",
        lambda spec: (_ for _ in ()).throw(RuntimeError("flaky")),
    )
    scheduler.submit(tiny_spec())
    # One drain claims the pending job, then re-claims the failure
    # until the budget is spent.
    assert scheduler.run_pending() == 3
    (record,) = scheduler.jobs(status="failed")
    assert record.attempts == 3
    assert "flaky" in record.error
    assert record.as_dict()["last_error"] == record.error
    assert scheduler.claim_next() is None


def test_transient_failure_recovers_on_retry(repository, monkeypatch):
    scheduler = Scheduler(repository, max_attempts=2)
    calls = []

    def flaky_once(spec):
        calls.append(spec)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return {"run_id": "run-fake"}

    monkeypatch.setattr(scheduler, "_execute_run", flaky_once)
    scheduler.submit(tiny_spec())
    assert scheduler.run_pending() == 2
    (record,) = scheduler.jobs(status="completed")
    assert record.attempts == 2
    assert record.error is None


def test_pending_jobs_outrank_retries(repository, monkeypatch):
    scheduler = Scheduler(repository, max_attempts=2)
    monkeypatch.setattr(
        scheduler, "_execute_run",
        lambda spec: (_ for _ in ()).throw(RuntimeError("down")),
    )
    scheduler.submit(tiny_spec())
    scheduler.execute(scheduler.claim_next())
    fresh = scheduler.submit(tiny_spec(seed=99))
    assert scheduler.claim_next().job_id == fresh.job_id


def test_attempts_round_trip_through_the_job_file():
    record = JobRecord(spec=tiny_spec(), created_at=1.0)
    record.status = "failed"
    record.error = "boom"
    record.attempts = 2
    record.request_id = "req-7"
    loaded = JobRecord.from_dict(record.as_dict())
    assert loaded.attempts == 2
    assert loaded.request_id == "req-7"
    assert loaded.error == "boom"
    # Legacy files carry only last_error.
    payload = record.as_dict()
    del payload["error"]
    assert JobRecord.from_dict(payload).error == "boom"


# -- request ids -------------------------------------------------------


def test_submit_over_http_propagates_the_request_id(repository):
    api = ServiceAPI(repository, scheduler=Scheduler(repository))
    status, _, payload = api.handle(
        "POST", "/jobs",
        json.dumps(tiny_spec().as_dict()).encode(),
        headers={"x-request-id": "req-abc"},
    )
    assert status == 202
    assert payload["request_id"] == "req-abc"
    assert api.scheduler.get(payload["job_id"]).request_id == "req-abc"


def test_run_job_stamps_provenance_into_timings(repository):
    scheduler = Scheduler(repository)
    spec = tiny_spec(domains=120, wan_rounds=1)
    scheduler.submit(spec, request_id="req-prov")
    assert scheduler.run_pending() == 1
    (record,) = scheduler.jobs(status="completed")
    run_dir = repository.root / record.outcome["run_id"]
    timings = json.loads((run_dir / "timings.json").read_text())
    assert timings["job"] == {
        "job_id": spec.job_id,
        "request_id": "req-prov",
        "attempt": 1,
    }
    # The manifest itself carries no job block — byte identity with
    # the CLI path is the service plane's acceptance invariant.
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert "job" not in manifest.get("timings", {})
    # And ingesting the run appended it to the timeline.
    (entry,) = repository.entries(source="run")
    assert entry.extra["run_id"] == record.outcome["run_id"]


# -- the access log ----------------------------------------------------


def test_every_request_emits_one_access_event(repository):
    sink = EventSink()
    api = ServiceAPI(repository, access_log=sink)
    api.handle("GET", "/health", None,
               headers={"x-request-id": "req-1"})
    api.handle("GET", "/runs/run-nope", None,
               headers={"x-request-id": "req-2"})
    assert [e["status"] for e in sink.events] == [200, 404]
    assert [e["request_id"] for e in sink.events] == ["req-1", "req-2"]
    event = sink.events[0]
    assert event["kind"] == "http_request"
    assert event["method"] == "GET"
    assert event["route"] == "health"
    assert event["bytes"] > 0
    assert event["duration_ms"] >= 0


def test_access_log_tee_is_valid_ndjson(repository, tmp_path):
    sink = EventSink(tee=tmp_path / "access.ndjson", keep=False)
    api = ServiceAPI(repository, access_log=sink)
    api.handle("GET", "/health", None)
    api.handle("GET", "/metrics", None)
    sink.close()
    lines = (tmp_path / "access.ndjson").read_text().splitlines()
    assert [json.loads(l)["path"] for l in lines] == [
        "/health", "/metrics",
    ]
    assert sink.events == []  # keep=False: write-through only


# -- /timeline and /dashboard ------------------------------------------


def test_timeline_route_serves_filtered_entries(repository):
    _seed_bench(repository)
    api = ServiceAPI(repository)
    status, _, payload = api.handle("GET", "/timeline", None)
    assert status == 200
    assert len(payload["entries"]) == 2
    _, _, series = api.handle("GET", "/timeline/series", None)
    (key,) = series["series"]
    assert all(
        e["series_key"] == key for e in payload["entries"]
    )
    _, _, filtered = api.handle(
        "GET", f"/timeline?fingerprint={'a' * 12}", None
    )
    assert len(filtered["entries"]) == 1
    _, _, limited = api.handle("GET", "/timeline?limit=1", None)
    assert len(limited["entries"]) == 1
    status, _, _ = api.handle("GET", "/timeline?limit=x", None)
    assert status == 400
    status, _, _ = api.handle("GET", "/timeline/nope", None)
    assert status == 404


def test_dashboard_renders_html_and_text(repository):
    _seed_bench(repository)
    api = ServiceAPI(repository)
    status, content_type, html = api.handle("GET", "/dashboard", None)
    assert status == 200
    assert content_type == "text/html"
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html
    status, content_type, text = api.handle(
        "GET", "/dashboard?format=text", None
    )
    assert content_type == "text/plain"
    assert "telemetry timeline" in text


def test_health_carries_versions_and_timeline_counts(repository):
    _seed_bench(repository)
    api = ServiceAPI(repository)
    status, _, payload = api.handle("GET", "/health", None)
    assert status == 200
    assert isinstance(payload["schema_version"], int)
    fingerprint = payload["code_fingerprint"]
    assert isinstance(fingerprint, str)
    int(fingerprint, 16)  # a hex digest, not a placeholder
    assert payload["timeline"]["bench_entries"] == 2


def test_scan_route_rescans_the_timeline_too(repository):
    api = ServiceAPI(repository)
    (repository.root / "bench").mkdir(exist_ok=True)
    (repository.root / "bench" / "job-x-000.json").write_text(
        json.dumps(_bench_payload())
    )
    status, _, payload = api.handle("POST", "/scan", None)
    assert status == 200
    assert payload["timeline"]["entries"] == 2
    assert repository.counts()["bench_entries"] == 2


def test_metrics_expose_queue_and_timeline_gauges(repository):
    _seed_bench(repository)
    scheduler = Scheduler(repository)
    scheduler.submit(tiny_spec())
    api = ServiceAPI(repository, scheduler=scheduler)
    # Latency histograms record after a response renders, so the
    # first scrape only sees earlier requests.
    api.handle("GET", "/health", None)
    _, _, exposition = api.handle("GET", "/metrics", None)
    assert 'service_jobs{status="pending"} 2' not in exposition
    assert 'service_jobs{status="pending"} 1' in exposition
    assert "service_scheduler_queue_depth 1" in exposition
    assert 'service_timeline_entries{source="bench"} 2' in exposition
    assert 'service_timeline_entries{source="run"} 0' in exposition
    assert "service_request_seconds_bucket" in exposition


# -- bench jobs --------------------------------------------------------


def test_bench_job_runs_the_sentinel(repository, monkeypatch):
    """Every scheduler over the catalog — the daemon's and ``repro jobs
    submit --run-now --root``'s alike — records a bench job's
    trajectory and judges it."""

    def profile(command, **kwargs):
        out = Path(command[command.index("--out") + 1])
        out.write_text(json.dumps(_bench_payload()))
        return subprocess.CompletedProcess(command, 0, "", "")

    monkeypatch.setattr(jobs.subprocess, "run", profile)
    scheduler = Scheduler(repository)
    record = scheduler.execute(scheduler.submit(tiny_spec(kind="bench")))
    assert record.status == "completed", record.error
    verdicts = json.loads(
        Path(record.outcome["regressions_path"]).read_text()
    )
    assert record.outcome["regression_status"] == verdicts["status"]
    assert len(verdicts["reports"]) == 1
    assert repository.counts()["bench_entries"] == 2
