"""Daemon glue: repository + scheduler + HTTP API as one service.

:class:`ReproService` is what ``repro serve`` instantiates — it scans
the repository root on startup, runs the scheduler loop on a worker
thread, and serves the API either blocking (:meth:`serve_forever`, the
CLI path) or on a background thread (:meth:`start`/:meth:`stop`, the
test and smoke-script path).
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Optional, Union

from repro.obs import MetricsRegistry, Observability
from repro.service.api import DEFAULT_HOST, DEFAULT_PORT, ServiceAPI
from repro.service.jobs import Scheduler
from repro.service.repository import RunRepository

logger = logging.getLogger(__name__)


class ReproService:
    """One long-running measurement service over one repository root."""

    def __init__(
        self,
        root: Union[str, Path],
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        artifact_dir: Optional[Union[str, Path]] = None,
        poll_interval: float = 2.0,
        scheduler_enabled: bool = True,
        max_attempts: int = 1,
        access_log: bool = True,
    ):
        from repro.obs.events import EventSink

        self.obs = Observability(metrics=MetricsRegistry())
        self.repository = RunRepository(root)
        report = self.repository.scan()
        logger.info(
            "indexed %d runs, %d series, %d telemetry entries "
            "(%d benches; %d skipped) under %s",
            report.runs, report.series, report.entries, report.benches,
            len(report.skipped) + len(report.skipped_benches), root,
        )
        #: Per-request NDJSON access log — write-through only (the
        #: daemon must not buffer its own request history in memory).
        self.access_log = (
            EventSink(tee=Path(root) / "access.ndjson", keep=False)
            if access_log else None
        )
        store = None
        if artifact_dir is not None:
            from repro.artifacts import ArtifactStore

            store = ArtifactStore(artifact_dir, obs=self.obs)
        self.scheduler = (
            Scheduler(
                self.repository, artifact_store=store, obs=self.obs,
                max_attempts=max_attempts,
            )
            if scheduler_enabled else None
        )
        self.api = ServiceAPI(
            self.repository, scheduler=self.scheduler, obs=self.obs,
            access_log=self.access_log,
        )
        self.poll_interval = poll_interval
        self.server = self.api.make_server(host, port)
        self._stop = threading.Event()
        self._threads: list = []

    @property
    def address(self) -> tuple:
        return self.server.server_address

    @property
    def url(self) -> str:
        host, port = self.address[0], self.address[1]
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------

    def _scheduler_loop(self) -> None:
        assert self.scheduler is not None
        self.scheduler.run_forever(
            poll_interval=self.poll_interval, stop=self._stop
        )

    def start(self) -> None:
        """Serve on background threads (tests / embedding)."""
        if self.scheduler is not None:
            thread = threading.Thread(
                target=self._scheduler_loop, name="repro-scheduler",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        server_thread = threading.Thread(
            target=self.server.serve_forever, name="repro-api",
            daemon=True,
        )
        server_thread.start()
        self._threads.append(server_thread)

    def serve_forever(self) -> None:
        """Block serving the API; the scheduler runs alongside.

        Returns cleanly on ``KeyboardInterrupt`` (SIGINT) — the CI
        smoke job asserts the daemon shuts down within its budget.
        """
        if self.scheduler is not None:
            thread = threading.Thread(
                target=self._scheduler_loop, name="repro-scheduler",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        try:
            self.server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self.server.shutdown()
        self.server.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10)
        self._threads.clear()
        self.repository.close()
        if self.access_log is not None:
            self.access_log.close()
