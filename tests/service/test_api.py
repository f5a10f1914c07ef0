"""API-layer tests, driven in-process through ``ServiceAPI.handle``.

The HTTP server itself is a thin shim over ``handle`` (the smoke
script and CI exercise it over real sockets); here every route's
status/payload contract is pinned down without binding ports.
"""

import json

import pytest

from repro.service.api import ServiceAPI
from repro.service.jobs import Scheduler
from repro.service.repository import RunRepository
from tests.service.conftest import (
    DOMAINS,
    SCENARIO,
    healthy_and_drilled,
)


@pytest.fixture(scope="module")
def repository(populated_root, tmp_path_factory):
    db = tmp_path_factory.mktemp("index") / "index.sqlite"
    with RunRepository(populated_root, db_path=db) as repository:
        repository.scan()
        yield repository


@pytest.fixture(scope="module")
def api(repository):
    return ServiceAPI(repository)


def get(api, path):
    return api.handle("GET", path, None)


def test_health(api, repository):
    status, ctype, payload = get(api, "/health")
    assert (status, ctype) == (200, "application/json")
    assert payload["status"] == "ok"
    # The catalog's counts, split into the run index and the timeline.
    assert payload["index"] == {"runs": 4, "series": 1}
    assert {**payload["index"], **payload["timeline"]} == (
        repository.counts()
    )
    assert payload["scheduler"] is False
    assert "jobs" not in payload


def test_runs_listing_and_filters(api):
    status, _, payload = get(api, "/runs")
    assert status == 200
    assert len(payload["runs"]) == 4
    status, _, payload = get(api, f"/runs?scenario={SCENARIO}")
    assert [r["scenario"] for r in payload["runs"]] == [SCENARIO]
    status, _, payload = get(api, "/runs?limit=1")
    assert len(payload["runs"]) == 1
    status, _, payload = get(api, "/runs?seed=not-a-number")
    assert status == 400
    assert "seed" in payload["error"]


def test_run_detail_routes(api, repository):
    healthy, _ = healthy_and_drilled(repository)
    status, _, manifest = get(api, f"/runs/{healthy}")
    assert status == 200
    assert manifest["run_id"] == healthy
    assert manifest["config"]["domains"] == DOMAINS

    status, _, fidelity = get(api, f"/runs/{healthy}/fidelity")
    assert status == 200 and fidelity

    status, _, timings = get(api, f"/runs/{healthy}/timings")
    assert status == 200
    assert "experiments_s" in timings

    status, ctype, summary = get(api, f"/runs/{healthy}/summary")
    assert (status, ctype) == (200, "text/plain")
    assert "Table" in summary or "Figure" in summary


def test_unknown_ids_are_404(api):
    for path in ("/runs/run-000000000000",
                 "/runs/run-000000000000/fidelity",
                 "/series/series-000000000000",
                 "/jobs-nope"):
        status, _, payload = get(api, path)
        assert status == 404, path
        assert "error" in payload


def test_series_routes(api, repository):
    status, _, payload = get(api, "/series")
    assert status == 200
    (record,) = payload["series"]
    series_id = record["series_id"]
    assert record["epochs"] == 2

    status, _, payload = get(api, f"/series/{series_id}")
    assert status == 200
    assert payload["series_id"] == series_id

    status, ctype, trends = get(api, f"/series/{series_id}/trends")
    assert (status, ctype) == (200, "text/plain")
    assert trends.strip()


def test_compare_route(api, repository):
    healthy, drilled = healthy_and_drilled(repository)
    status, _, diff = get(api, f"/compare?a={healthy}&b={drilled}")
    assert status == 200
    assert diff["summary"]["keys_compared"] > 0
    # The WAN figure's keys must actually move under the outage.
    assert diff["summary"]["keys_changed"] > 0
    assert diff["config"]["scenario"] == {"a": None, "b": SCENARIO}
    assert diff["summary"]["code_fingerprint_equal"] is True

    status, _, payload = get(api, f"/compare?a={healthy}")
    assert status == 400
    assert "compare needs" in payload["error"]


def test_compare_run_with_itself_changes_nothing(api, repository):
    healthy, _ = healthy_and_drilled(repository)
    _, _, diff = get(api, f"/compare?a={healthy}&b={healthy}")
    assert diff["summary"]["keys_changed"] == 0
    assert diff["config"] == {}


def test_metrics_exposition(api):
    status, ctype, text = get(api, "/metrics")
    assert (status, ctype) == (200, "text/plain")
    assert "service_requests_total" in text
    assert "service_indexed_runs 4" in text
    assert "service_indexed_series 1" in text


def test_method_and_route_errors(api):
    status, _, _ = api.handle("PUT", "/runs", None)
    assert status == 405
    status, _, _ = api.handle("POST", "/no-such-route", b"{}")
    assert status == 404


def test_jobs_routes_without_scheduler_are_503(api):
    status, _, payload = get(api, "/jobs")
    assert status == 503
    assert "without a scheduler" in payload["error"]
    status, _, _ = api.handle("POST", "/jobs", b"{}")
    assert status == 503


def test_job_submission(tmp_path):
    with RunRepository(tmp_path / "svc") as repository:
        api = ServiceAPI(repository, scheduler=Scheduler(repository))
        body = json.dumps({
            "kind": "run", "domains": 300, "wan_rounds": 2,
            "experiments": ["table03"],
        }).encode()
        status, _, record = api.handle("POST", "/jobs", body)
        assert status == 202
        assert record["status"] == "pending"
        job_id = record["job_id"]

        # Resubmission dedups; ?force=1 re-queues.
        status, _, again = api.handle("POST", "/jobs", body)
        assert again["job_id"] == job_id
        status, _, forced = api.handle("POST", "/jobs?force=1", body)
        assert forced["created_at"] >= again["created_at"]

        status, _, payload = get(api, "/jobs")
        assert [j["job_id"] for j in payload["jobs"]] == [job_id]
        status, _, single = get(api, f"/jobs/{job_id}")
        assert status == 200 and single["job_id"] == job_id

        status, _, payload = get(api, "/jobs/job-000000000000")
        assert status == 404

        bad = json.dumps({"kind": "run", "domains": 0}).encode()
        status, _, payload = api.handle("POST", "/jobs", bad)
        assert status == 400
        assert "invalid config" in payload["error"]

        status, _, payload = api.handle("POST", "/jobs", b"{nope")
        assert status == 400
        assert "not valid JSON" in payload["error"]


def test_scan_route(tmp_path):
    with RunRepository(tmp_path / "svc") as repository:
        api = ServiceAPI(repository)
        status, _, report = api.handle("POST", "/scan", None)
        assert status == 200
        assert report == {
            "runs": 0, "series": 0, "skipped": [],
            "timeline": {
                "entries": 0, "runs": 0, "benches": 0, "skipped": [],
            },
        }
