"""A thin client for the service API.

The CLI and the smoke scripts talk to the service through this; it is
deliberately dumb — JSON in, JSON out, every transport failure or
error status surfaced as a :class:`~repro.service.errors.ServiceError`
so the CLI can map the whole family to its service exit code.
:class:`ServiceClient` speaks HTTP to a running ``repro serve``;
:class:`LocalServiceClient` hands the same requests to an in-process
:class:`~repro.service.api.ServiceAPI` over a local root.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from repro.service.errors import ServiceError


class ServiceClient:
    """HTTP access to one ``repro serve`` instance."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(
        self,
        path: str,
        params: Optional[Dict[str, object]] = None,
        body: Optional[dict] = None,
        method: str = "GET",
    ):
        query = {
            name: value
            for name, value in (params or {}).items()
            if value is not None
        }
        target = path + ("?" + urlencode(query) if query else "")
        data = json.dumps(body).encode() if body is not None else None
        status, content_type, raw = self._send(method, target, data)
        if status >= 400:
            detail = ""
            try:
                detail = json.loads(raw).get("error", "")
            except (ValueError, AttributeError):
                pass  # not a {"error": ...} body: report the status only
            raise ServiceError(
                f"{method} {self.base_url + target} failed: HTTP {status}"
                + (f" — {detail}" if detail else "")
            )
        if content_type == "application/json":
            return json.loads(raw)
        return raw.decode()

    def _send(
        self, method: str, target: str, data: Optional[bytes]
    ) -> Tuple[int, str, bytes]:
        """One exchange: ``(status, content type, body bytes)``."""
        request = Request(
            self.base_url + target, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                content_type = response.headers.get_content_type()
                return response.status, content_type, response.read()
        except HTTPError as error:
            # Error bodies are {"error": ...} JSON (see ServiceAPI).
            return error.code, "application/json", error.read()
        except URLError as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: "
                f"{error.reason}"
            ) from None

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        return self._request("/health")

    def runs(self, **filters) -> list:
        return self._request("/runs", params=filters)["runs"]

    def run(self, run_id: str) -> dict:
        return self._request(f"/runs/{run_id}")

    def fidelity(self, run_id: str) -> dict:
        return self._request(f"/runs/{run_id}/fidelity")

    def timings(self, run_id: str) -> dict:
        return self._request(f"/runs/{run_id}/timings")

    def summary(self, run_id: str) -> str:
        return self._request(f"/runs/{run_id}/summary")

    def series(self, **filters) -> list:
        return self._request("/series", params=filters)["series"]

    def series_payload(self, series_id: str) -> dict:
        return self._request(f"/series/{series_id}")

    def trends(self, series_id: str) -> str:
        return self._request(f"/series/{series_id}/trends")

    def compare(self, a: str, b: str) -> dict:
        return self._request("/compare", params={"a": a, "b": b})

    def metrics(self) -> str:
        return self._request("/metrics")

    def timeline(self, **filters) -> list:
        return self._request("/timeline", params=filters)["entries"]

    def timeline_series(self) -> list:
        return self._request("/timeline/series")["series"]

    def dashboard(self, format: Optional[str] = None) -> str:
        return self._request(
            "/dashboard",
            params={"format": format} if format else None,
        )

    def jobs(self, status: Optional[str] = None) -> list:
        return self._request(
            "/jobs", params={"status": status}
        )["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request(f"/jobs/{job_id}")

    def submit_job(self, spec: dict, force: bool = False) -> dict:
        return self._request(
            "/jobs",
            params={"force": "1"} if force else None,
            body=spec,
            method="POST",
        )

    def scan(self) -> dict:
        return self._request("/scan", method="POST")


class LocalServiceClient(ServiceClient):
    """The same client over the daemon's route handlers, in process.

    ``repro jobs|runs --root`` uses this: each request goes through
    :meth:`ServiceAPI.respond`, the HTTP handler's own path, so a
    command prints the same bytes whether it runs against a root or a
    daemon serving that root.  Paths are served in process, so the
    base URL is empty.
    """

    def __init__(self, api):
        super().__init__("")
        self.api = api

    def _send(
        self, method: str, target: str, data: Optional[bytes]
    ) -> Tuple[int, str, bytes]:
        return self.api.respond(method, target, data)
