"""The HTTP API: the service's read (and submit) surface.

Pure stdlib (``http.server``): the container bakes no web framework in
and none is needed — every response is JSON or plain text assembled
from the repository, the scheduler, and the observability plane.

Routes::

    GET  /health                 service + index cardinalities
    GET  /runs                   indexed runs (?scenario= &status=
                                 &seed= &experiment= &epoch_plan=
                                 &limit=)
    GET  /runs/<id>              the run's manifest.json
    GET  /runs/<id>/fidelity     fidelity report (JSON)
    GET  /runs/<id>/timings      wall-clock sidecar (JSON, volatile)
    GET  /runs/<id>/summary      rendered tables/figures (text)
    GET  /series                 indexed series (?plan= &scenario=
                                 &seed= &limit=)
    GET  /series/<id>            series.json
    GET  /series/<id>/trends     cross-epoch trend tables (text)
    GET  /compare?a=<id>&b=<id>  key-by-key diff of two runs
    GET  /metrics                Prometheus text exposition
    GET  /timeline               telemetry timeline entries (?source=
                                 &series= &scale= &scenario=
                                 &fingerprint= &limit=)
    GET  /dashboard              watchtower HTML (text with ?format=text)
    GET  /jobs                   job queue (?status=)
    GET  /jobs/<id>              one job's record
    POST /jobs                   submit a JobSpec (JSON body; ?force=1
                                 re-queues an identical spec)
    POST /scan                   re-index the catalog (runs, series and
                                 telemetry) from disk

Unknown ids are 404, bad specs/queries 400, everything else 500 — all
with ``{"error": ...}`` JSON bodies.

Every request is instrumented: a latency + response-size histogram per
route in ``/metrics``, an NDJSON access-log event per request when the
API holds an access-log sink, and an ``X-Request-Id`` echoed (or
minted) by the HTTP handler and propagated into submitted jobs.
"""

from __future__ import annotations

import json
import logging
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import MetricsRegistry, Observability
from repro.service.compare import compare_runs
from repro.service.errors import (
    JobSpecError,
    ServiceError,
    UnknownJobError,
    UnknownRunError,
    UnknownSeriesError,
)
from repro.service.jobs import JobSpec

logger = logging.getLogger(__name__)

#: Default bind for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Request-latency buckets (seconds) — the stdlib server answers most
#: reads in well under a millisecond, so the default ms-scale buckets
#: would collapse everything into the first one.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Response-size buckets (bytes).
_SIZE_BUCKETS = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0,
)


class _HTTPError(Exception):
    """Internal: carry a status + message up to the dispatcher."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def encode_payload(content_type: str, payload: object) -> bytes:
    """The response body bytes for a handler payload — encoded once
    per request, by :meth:`ServiceAPI.respond`."""
    if content_type == "application/json":
        return (json.dumps(payload, indent=2) + "\n").encode()
    return str(payload).encode()


class ServiceAPI:
    """Route handlers bound to one run catalog (+ optional scheduler)."""

    def __init__(
        self,
        repository,
        scheduler=None,
        obs: Optional[Observability] = None,
        access_log=None,
    ):
        self.repository = repository
        self.scheduler = scheduler
        self.obs = obs or Observability(metrics=MetricsRegistry())
        #: Optional :class:`repro.obs.events.EventSink` receiving one
        #: NDJSON access-log event per handled request.
        self.access_log = access_log

    # -- dispatch ------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, str, object]:
        """Resolve one request to (status, content_type, payload).

        ``payload`` is a JSON-serialisable object unless
        ``content_type`` is ``text/plain`` or ``text/html``, in which
        case it is the final string.  ``headers`` (lower-cased keys)
        supplies ``x-request-id`` for log correlation.
        """
        return self._resolve(method, path, body, headers)[:3]

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, str, bytes]:
        """Resolve one request to (status, content_type, body bytes):
        what the HTTP handler and :class:`LocalServiceClient` send."""
        status, content_type, _, data = self._resolve(
            method, path, body, headers
        )
        return status, content_type, data

    def _resolve(self, method, path, body, headers):
        """Dispatch, encode the response body once, and observe the
        request with that body's size."""
        split = urlsplit(path)
        query = {
            name: values[0]
            for name, values in parse_qs(split.query).items()
        }
        segments = [s for s in split.path.split("/") if s]
        route = segments[0] if segments else "health"
        request_id = (headers or {}).get("x-request-id")
        self.obs.metrics.counter(
            "service_requests_total", volatile=True,
            method=method, route=route,
        ).inc()
        started = time.perf_counter()
        try:
            response = self._dispatch(method, segments, query, body,
                                      headers or {})
        except _HTTPError as error:
            response = error.status, "application/json", {
                "error": str(error)
            }
        except (UnknownRunError, UnknownSeriesError,
                UnknownJobError) as error:
            response = 404, "application/json", {"error": str(error)}
        except JobSpecError as error:
            response = 400, "application/json", {"error": str(error)}
        except ServiceError as error:
            response = 500, "application/json", {"error": str(error)}
        except Exception as error:  # the server must keep serving
            logger.exception("unhandled error for %s %s", method, path)
            response = 500, "application/json", {
                "error": f"{type(error).__name__}: {error}"
            }
        status, content_type, payload = response
        data = encode_payload(content_type, payload)
        self._observe(
            method, route, split.path, request_id,
            time.perf_counter() - started, status, len(data),
        )
        return status, content_type, payload, data

    def _observe(
        self, method, route, path, request_id, elapsed_s, status, size
    ) -> None:
        """Per-request telemetry: histograms, status counter, and the
        access-log NDJSON event (all volatile — never in a manifest)."""
        metrics = self.obs.metrics
        metrics.histogram(
            "service_request_seconds", volatile=True, route=route,
            buckets=_LATENCY_BUCKETS,
        ).observe(elapsed_s)
        metrics.histogram(
            "service_response_bytes", volatile=True, route=route,
            buckets=_SIZE_BUCKETS,
        ).observe(size)
        metrics.counter(
            "service_responses_total", volatile=True,
            route=route, code=str(status),
        ).inc()
        if self.access_log is not None:
            self.access_log.emit({
                "kind": "http_request",
                "method": method,
                "path": path,
                "route": route,
                "status": status,
                "bytes": size,
                "duration_ms": round(elapsed_s * 1000, 3),
                "request_id": request_id,
            })

    def _dispatch(self, method, segments, query, body, headers):
        if method == "POST":
            if segments == ["jobs"]:
                return self._submit_job(query, body, headers)
            if segments == ["scan"]:
                report = self.repository.scan().as_dict()
                return 200, "application/json", report
            raise _HTTPError(404, f"no POST route /{'/'.join(segments)}")
        if method != "GET":
            raise _HTTPError(405, f"method {method} not allowed")
        if not segments or segments == ["health"]:
            return self._health()
        head, rest = segments[0], segments[1:]
        if head == "runs":
            return self._runs(rest, query)
        if head == "series":
            return self._series(rest, query)
        if head == "compare":
            return self._compare(query)
        if head == "metrics":
            return self._metrics()
        if head == "timeline":
            return self._timeline(rest, query)
        if head == "dashboard":
            return self._dashboard(query)
        if head == "jobs":
            return self._jobs(rest, query)
        raise _HTTPError(404, f"no route /{'/'.join(segments)}")

    # -- handlers ------------------------------------------------------

    def _health(self):
        from repro.artifacts.keys import code_fingerprint
        from repro.experiments.manifest import MANIFEST_SCHEMA_VERSION

        counts = self.repository.counts()
        payload = {
            "status": "ok",
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "code_fingerprint": code_fingerprint(),
            "index": {
                "runs": counts.pop("runs"),
                "series": counts.pop("series"),
            },
            "scheduler": self.scheduler is not None,
        }
        if self.scheduler is not None:
            queue = self.scheduler.jobs()
            payload["jobs"] = {
                status: sum(1 for r in queue if r.status == status)
                for status in ("pending", "running", "completed",
                               "failed")
            }
        # What remains are the telemetry entry counts.
        payload["timeline"] = counts
        return 200, "application/json", payload

    @staticmethod
    def _int_param(query, name) -> Optional[int]:
        if name not in query:
            return None
        try:
            return int(query[name])
        except ValueError:
            raise _HTTPError(
                400, f"query parameter {name} must be an integer, "
                     f"got {query[name]!r}"
            ) from None

    def _runs(self, rest, query):
        if not rest:
            records = self.repository.runs(
                scenario=query.get("scenario"),
                status=query.get("status"),
                seed=self._int_param(query, "seed"),
                fingerprint=query.get("fingerprint"),
                experiment=query.get("experiment"),
                epoch_plan=query.get("epoch_plan"),
                limit=self._int_param(query, "limit"),
            )
            return 200, "application/json", {
                "runs": [record.as_dict() for record in records]
            }
        run_id = rest[0]
        if len(rest) == 1:
            loaded = self.repository.load_run(run_id)
            return 200, "application/json", loaded.manifest
        if rest[1:] == ["fidelity"]:
            loaded = self.repository.load_run(run_id)
            fidelity = (
                loaded.fidelity
                or loaded.manifest.get("fidelity") or {}
            )
            return 200, "application/json", fidelity
        if rest[1:] == ["timings"]:
            loaded = self.repository.load_run(run_id)
            return 200, "application/json", loaded.timings
        if rest[1:] == ["summary"]:
            record = self.repository.get_run(run_id)
            summary = Path(record.path) / "summaries.txt"
            if not summary.is_file():
                raise _HTTPError(
                    404, f"run {run_id} has no summaries.txt"
                )
            return 200, "text/plain", summary.read_text()
        raise _HTTPError(404, f"no route /runs/{'/'.join(rest[1:])}")

    def _series(self, rest, query):
        if not rest:
            records = self.repository.series(
                plan=query.get("plan"),
                scenario=query.get("scenario"),
                seed=self._int_param(query, "seed"),
                limit=self._int_param(query, "limit"),
            )
            return 200, "application/json", {
                "series": [record.as_dict() for record in records]
            }
        series_id = rest[0]
        if len(rest) == 1:
            payload = self.repository.load_series_payload(series_id)
            return 200, "application/json", payload
        if rest[1:] == ["trends"]:
            record = self.repository.get_series(series_id)
            trends = Path(record.path) / "trends.txt"
            if not trends.is_file():
                raise _HTTPError(
                    404, f"series {series_id} has no trends.txt"
                )
            return 200, "text/plain", trends.read_text()
        raise _HTTPError(
            404, f"no route /series/{'/'.join(rest[1:])}"
        )

    def _compare(self, query):
        for name in ("a", "b"):
            if name not in query:
                raise _HTTPError(
                    400, "compare needs ?a=<run-id>&b=<run-id>"
                )
        diff = compare_runs(
            self.repository.load_run(query["a"]),
            self.repository.load_run(query["b"]),
        )
        return 200, "application/json", diff

    def _metrics(self):
        metrics = self.obs.metrics
        if metrics.enabled:
            counts = self.repository.counts()
            metrics.gauge(
                "service_indexed_runs", volatile=True
            ).set(counts["runs"])
            metrics.gauge(
                "service_indexed_series", volatile=True
            ).set(counts["series"])
            if self.scheduler is not None:
                queue = self.scheduler.jobs()
                for status in ("pending", "running", "completed",
                               "failed"):
                    metrics.gauge(
                        "service_jobs", volatile=True, status=status,
                    ).set(
                        sum(1 for r in queue if r.status == status)
                    )
                metrics.gauge(
                    "service_scheduler_queue_depth", volatile=True,
                ).set(
                    sum(1 for r in queue if r.status == "pending")
                )
            for source in ("run", "bench"):
                metrics.gauge(
                    "service_timeline_entries", volatile=True,
                    source=source,
                ).set(counts[f"{source}_entries"])
        return 200, "text/plain", metrics.render_prometheus()

    def _timeline(self, rest, query):
        if rest == ["series"]:
            return 200, "application/json", {
                "series": self.repository.series_keys()
            }
        if rest:
            raise _HTTPError(
                404, f"no route /timeline/{'/'.join(rest)}"
            )
        entries = self.repository.entries(
            source=query.get("source"),
            series_key=query.get("series"),
            scale=query.get("scale"),
            scenario=query.get("scenario"),
            fingerprint=query.get("fingerprint"),
            limit=self._int_param(query, "limit"),
        )
        return 200, "application/json", {
            "entries": [entry.as_dict() for entry in entries]
        }

    def _dashboard(self, query):
        """The sentinel and the page work from one timeline read."""
        from repro.obs.dashboard import render_html, render_timeline
        from repro.obs.sentinel import check_trajectories

        trajectories = self.repository.trajectories()
        reports = check_trajectories(trajectories)
        if query.get("format") == "text":
            return 200, "text/plain", render_timeline(
                trajectories, reports
            )
        _, _, health = self._health()
        return 200, "text/html", render_html(
            trajectories, reports, health=health
        )

    def _jobs(self, rest, query):
        if self.scheduler is None:
            raise _HTTPError(
                503, "this server runs without a scheduler"
            )
        if not rest:
            records = self.scheduler.jobs(status=query.get("status"))
            return 200, "application/json", {
                "jobs": [record.as_dict() for record in records]
            }
        if len(rest) == 1:
            record = self.scheduler.get(rest[0])
            return 200, "application/json", record.as_dict()
        raise _HTTPError(404, f"no route /jobs/{'/'.join(rest[1:])}")

    def _submit_job(self, query, body, headers=None):
        if self.scheduler is None:
            raise _HTTPError(
                503, "this server runs without a scheduler"
            )
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as error:
            raise _HTTPError(
                400, f"job body is not valid JSON: {error}"
            ) from None
        spec = JobSpec.from_dict(payload)
        record = self.scheduler.submit(
            spec,
            force=query.get("force") in ("1", "true", "yes"),
            request_id=(headers or {}).get("x-request-id"),
        )
        return 202, "application/json", record.as_dict()

    # -- server glue ---------------------------------------------------

    def make_server(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
    ) -> ThreadingHTTPServer:
        """A threading HTTP server bound to this API (``port=0`` picks
        a free port; read it back from ``server.server_address``)."""
        api = self

        class Handler(BaseHTTPRequestHandler):
            def _serve(self, method: str) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else None
                # Echo the caller's correlation id or mint one; the
                # same id reaches the access log, the job record, and
                # the response header.
                request_id = (
                    self.headers.get("X-Request-Id")
                    or uuid.uuid4().hex[:12]
                )
                headers = {
                    name.lower(): value
                    for name, value in self.headers.items()
                }
                headers["x-request-id"] = request_id
                status, content_type, data = api.respond(
                    method, self.path, body, headers=headers
                )
                self.send_response(status)
                self.send_header(
                    "Content-Type", f"{content_type}; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(data)))
                self.send_header("X-Request-Id", request_id)
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):  # noqa: N802 (http.server convention)
                self._serve("GET")

            def do_POST(self):  # noqa: N802
                self._serve("POST")

            def log_message(self, format, *args):
                logger.debug(
                    "%s %s", self.address_string(), format % args
                )

        return ThreadingHTTPServer((host, port), Handler)
