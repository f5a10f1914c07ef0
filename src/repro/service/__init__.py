"""repro.service — the service plane: the pipeline as a daemon.

Three layers over the run-manifest plane (ROADMAP item 5, the "serves
traffic" half of the north star):

* **repository** (:mod:`repro.service.repository`) — the one run
  catalog: a SQLite index (``.repro-index.sqlite``) of
  ``run-<hash>/`` and ``series-<hash>/`` directories and of the
  telemetry timeline's entries (one per run directory and per bench
  trajectory point).  The files stay the source of truth; the index is
  a pure cache that rebuilds losslessly from disk in one scan, and the
  scheduler, the API, ``repro report``, the sentinel and the dashboard
  all read it.  A ``.repro-timeline.sqlite`` left in a root by older
  versions is no longer read.
* **scheduler** (:mod:`repro.service.jobs`) — deterministic,
  content-addressed :class:`JobSpec`\\ s (single-shot campaigns, epoch
  series, bench profiles) executed through the *unchanged*
  ``ExperimentContext`` / ``run_series`` machinery, with outcomes
  recorded through the repository.  A job-produced ``run-<hash>/`` is
  byte-identical to the same config run via ``repro-experiments``.
* **API** (:mod:`repro.service.api`) — a stdlib HTTP server exposing
  manifests, fidelity reports, trend tables, Prometheus ``/metrics``,
  job submission, and ``/compare`` (key-by-key run diffs, see
  :mod:`repro.service.compare`).

The service only orchestrates and reads — determinism invariants
(digests, manifest byte-identity) are untouched by construction.

CLI: ``repro serve`` / ``repro jobs submit`` / ``repro runs
list|show|compare`` (see :mod:`repro.service.cli`).
"""

from repro.service.api import DEFAULT_HOST, DEFAULT_PORT, ServiceAPI
from repro.service.client import ServiceClient
from repro.service.compare import compare_runs, render_compare
from repro.service.daemon import ReproService
from repro.service.errors import (
    JobSpecError,
    ServiceError,
    UnknownJobError,
    UnknownRunError,
    UnknownSeriesError,
)
from repro.service.jobs import JobRecord, JobSpec, Scheduler
from repro.service.repository import (
    RunRecord,
    RunRepository,
    ScanReport,
    SeriesRecord,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "ReproService",
    "RunRecord",
    "RunRepository",
    "ScanReport",
    "Scheduler",
    "SeriesRecord",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "UnknownJobError",
    "UnknownRunError",
    "UnknownSeriesError",
    "compare_runs",
    "render_compare",
]
