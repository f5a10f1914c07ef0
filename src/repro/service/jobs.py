"""Job specs and the scheduler: the service's execution layer.

A :class:`JobSpec` is a deterministic, content-addressed description of
one unit of work — the same (kind, config) always hashes to the same
``job-<hash>`` id, so resubmitting a spec is idempotent.  Three kinds:

* ``run`` — a single-shot experiments campaign, exactly the classic
  ``repro-experiments`` invocation (same :class:`ExperimentContext`,
  same :class:`RunManifest`, same ``run-<hash>`` directory — byte
  identical to the CLI path for the same config);
* ``series`` — a longitudinal epoch series via
  :func:`repro.epochs.series.run_series`, unchanged;
* ``bench`` — the ``scripts/profile_pipeline.py`` profile in a
  subprocess (source checkouts only; the script is not packaged).

Job state lives as one JSON file per job under ``<root>/jobs/`` — like
the run directories themselves, the files are the source of truth and
the SQLite index stays a pure cache of *results*.  The
:class:`Scheduler` claims the oldest pending job, executes it, records
the outcome in the job file, and ingests the produced run/series
directories into the repository.  ``run_forever`` is the daemon loop
``repro serve`` spins up next to the HTTP API.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.artifacts.keys import canonical
from repro.obs import NOOP, Observability
from repro.service.errors import JobSpecError, UnknownJobError

logger = logging.getLogger(__name__)

JOB_KINDS = ("run", "series", "bench")
JOB_STATUSES = ("pending", "running", "completed", "failed")

#: Version of the job-file layout (same contract as run manifests).
JOB_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    """One deterministic unit of schedulable work."""

    kind: str = "run"
    seed: int = 7
    domains: int = 6000
    wan_rounds: int = 36
    workers: int = 0
    scenario: Optional[str] = None
    #: Experiment ids to run; empty = the full registry.
    experiments: Tuple[str, ...] = ()
    #: Series-only knobs (ignored for other kinds).
    epochs: Optional[int] = None
    epoch_plan: Optional[str] = None

    @property
    def job_id(self) -> str:
        """Content address — worker counts are excluded (they never
        change outputs), so a sharded submission dedups against the
        sequential one."""
        addressed = replace(self, workers=0)
        digest = hashlib.sha256(canonical(addressed).encode())
        return "job-" + digest.hexdigest()[:12]

    def validate(self) -> None:
        """Reject specs the scheduler could never execute — at submit
        time, not hours later when the job is claimed."""
        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r} "
                f"(expected one of {', '.join(JOB_KINDS)})"
            )
        if self.seed < 0 or self.domains < 1 or self.wan_rounds < 1:
            raise JobSpecError(
                f"invalid config: seed={self.seed} "
                f"domains={self.domains} wan_rounds={self.wan_rounds}"
            )
        if self.experiments:
            from repro.experiments.registry import experiment_ids

            unknown = sorted(
                set(self.experiments) - set(experiment_ids())
            )
            if unknown:
                raise JobSpecError(
                    f"unknown experiments: {', '.join(unknown)}"
                )
        if self.scenario is not None:
            from repro.faults import resolve_scenario

            try:
                resolve_scenario(self.scenario)
            except ValueError as error:
                raise JobSpecError(str(error)) from error
        if self.kind == "series":
            if self.epochs is not None and self.epochs < 1:
                raise JobSpecError(
                    f"--epochs must be >= 1, got {self.epochs}"
                )
            from repro.epochs import (
                DEFAULT_EPOCH_PLAN,
                resolve_epoch_plan,
            )

            try:
                resolve_epoch_plan(self.epoch_plan or DEFAULT_EPOCH_PLAN)
            except ValueError as error:
                raise JobSpecError(str(error)) from error

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "workers": self.workers,
            "scenario": self.scenario,
            "experiments": list(self.experiments),
            "epochs": self.epochs,
            "epoch_plan": self.epoch_plan,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError(
                f"job spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "kind", "seed", "domains", "wan_rounds", "workers",
            "scenario", "experiments", "epochs", "epoch_plan",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec fields: {', '.join(unknown)}"
            )
        fields_in = {k: v for k, v in payload.items() if v is not None}
        if "experiments" in fields_in:
            experiments = fields_in["experiments"]
            if isinstance(experiments, str):
                experiments = experiments.split()
            fields_in["experiments"] = tuple(experiments)
        try:
            spec = cls(**fields_in)
        except TypeError as error:
            raise JobSpecError(str(error)) from error
        spec.validate()
        return spec


@dataclass
class JobRecord:
    """One job's durable state (mirrors its file under ``jobs/``)."""

    spec: JobSpec
    status: str = "pending"
    #: Submission wall clock — ordering only, never in any manifest.
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: What the execution produced: run_id / series_id / bench path,
    #: fidelity status, artifact locations.
    outcome: Dict[str, object] = field(default_factory=dict)
    #: Last execution failure (also surfaced as ``last_error``).
    error: Optional[str] = None
    #: How many times the scheduler has claimed this job.
    attempts: int = 0
    #: X-Request-Id of the HTTP submission, when there was one —
    #: propagated into the produced run's ``timings.json``.
    request_id: Optional[str] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def as_dict(self) -> dict:
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "status": self.status,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "request_id": self.request_id,
            "outcome": self.outcome,
            "error": self.error,
            "last_error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        spec = JobSpec.from_dict(payload.get("spec") or {})
        return cls(
            spec=spec,
            status=payload.get("status", "pending"),
            created_at=payload.get("created_at", 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            outcome=payload.get("outcome") or {},
            error=payload.get("error") or payload.get("last_error"),
            attempts=int(payload.get("attempts") or 0),
            request_id=payload.get("request_id"),
        )


class Scheduler:
    """Claims pending jobs and executes them through the pipeline."""

    def __init__(
        self,
        repository,
        artifact_store=None,
        obs: Observability = NOOP,
        max_attempts: int = 1,
    ):
        self.repository = repository
        self.jobs_dir = Path(repository.root) / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        #: Content-addressed artifact cache threaded into every job's
        #: context; ``None`` keeps every job a cold build (and its
        #: manifest byte-identical to a fresh CLI run's).
        self.artifact_store = artifact_store
        #: Service-level observability (job counters); per-job pipeline
        #: obs is always a fresh collecting plane, like a CLI process.
        self.obs = obs
        #: Retry budget: a failed job stays claimable until it has been
        #: attempted this many times (1 = the historic no-retry
        #: behaviour).
        self.max_attempts = max(1, int(max_attempts))
        #: The record currently being executed (provenance for the
        #: produced run's ``timings.json``).
        self._active_job: Optional[JobRecord] = None
        self._lock = threading.RLock()

    # -- job files -----------------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _write(self, record: JobRecord) -> None:
        path = self._job_path(record.job_id)
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w") as fh:
            json.dump(record.as_dict(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)

    def get(self, job_id: str) -> JobRecord:
        path = self._job_path(job_id)
        try:
            with path.open() as fh:
                return JobRecord.from_dict(json.load(fh))
        except FileNotFoundError:
            raise UnknownJobError(job_id) from None
        except (OSError, json.JSONDecodeError, JobSpecError) as error:
            raise UnknownJobError(job_id) from error

    def jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        """All jobs, submission order (created_at, id ties broken by
        id so listings are stable)."""
        records = []
        for path in self.jobs_dir.glob("job-*.json"):
            try:
                with path.open() as fh:
                    records.append(JobRecord.from_dict(json.load(fh)))
            except (OSError, json.JSONDecodeError, JobSpecError) as err:
                logger.warning("skipping job file %s: %s", path, err)
        if status is not None:
            records = [r for r in records if r.status == status]
        return sorted(
            records, key=lambda r: (r.created_at, r.job_id)
        )

    # -- submission ----------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        force: bool = False,
        request_id: Optional[str] = None,
    ) -> JobRecord:
        """Enqueue ``spec``; resubmitting the same spec returns the
        existing job unless ``force`` re-queues it."""
        spec.validate()
        with self._lock:
            try:
                existing = self.get(spec.job_id)
            except UnknownJobError:
                existing = None
            if existing is not None and not force:
                return existing
            record = JobRecord(
                spec=spec, created_at=time.time(),
                request_id=request_id,
            )
            self._write(record)
        self.obs.metrics.counter(
            "service_jobs_submitted_total", volatile=True,
            kind=spec.kind,
        ).inc()
        return record

    # -- execution -----------------------------------------------------

    def claim_next(self) -> Optional[JobRecord]:
        """Oldest claimable job, flipped to ``running`` (single-claimant
        protocol: one scheduler per jobs directory).

        Pending jobs go first; when none remain, failed jobs with
        attempts left under :attr:`max_attempts` are re-claimed oldest
        first (the retry policy — a transient failure does not wedge
        the queue forever, a persistent one stops after the budget).
        """
        with self._lock:
            claimable = self.jobs(status="pending")
            retry = False
            if not claimable:
                claimable = [
                    r for r in self.jobs(status="failed")
                    if r.attempts < self.max_attempts
                ]
                retry = True
            if not claimable:
                return None
            record = claimable[0]
            record.status = "running"
            record.started_at = time.time()
            record.attempts += 1
            self._write(record)
        self.obs.metrics.counter(
            "service_jobs_claimed_total", volatile=True,
            kind=record.spec.kind,
        ).inc()
        if retry:
            self.obs.metrics.counter(
                "service_job_retries_total", volatile=True,
                kind=record.spec.kind,
            ).inc()
            logger.info(
                "retrying %s (attempt %d/%d): %s",
                record.job_id, record.attempts, self.max_attempts,
                record.error,
            )
        return record

    def execute(self, record: JobRecord) -> JobRecord:
        """Run one claimed job to completion and persist the outcome."""
        spec = record.spec
        logger.info("executing %s (%s)", record.job_id, spec.kind)
        self._active_job = record
        try:
            if spec.kind == "run":
                record.outcome = self._execute_run(spec)
            elif spec.kind == "series":
                record.outcome = self._execute_series(spec)
            elif spec.kind == "bench":
                record.outcome = self._execute_bench(spec)
            else:  # pre-validated; belt and braces
                raise JobSpecError(f"unknown job kind {spec.kind!r}")
            record.status = "completed"
            record.error = None
        except Exception as error:  # a failed job must not kill the loop
            logger.exception("job %s failed", record.job_id)
            record.status = "failed"
            record.error = f"{type(error).__name__}: {error}"
        finally:
            self._active_job = None
        record.finished_at = time.time()
        self._write(record)
        self.obs.metrics.counter(
            "service_jobs_executed_total", volatile=True,
            kind=spec.kind, status=record.status,
        ).inc()
        return record

    def run_pending(self) -> int:
        """Drain the queue once; returns how many jobs were executed."""
        executed = 0
        while True:
            record = self.claim_next()
            if record is None:
                return executed
            self.execute(record)
            executed += 1

    def run_forever(
        self,
        poll_interval: float = 2.0,
        stop: Optional[threading.Event] = None,
    ) -> None:
        """The daemon loop: drain, sleep, repeat until ``stop``."""
        stop = stop or threading.Event()
        while not stop.is_set():
            if self.run_pending() == 0:
                stop.wait(poll_interval)

    # -- kind implementations ------------------------------------------

    def _context_for(self, spec: JobSpec, obs: Observability):
        from repro.analysis.wan import WanConfig
        from repro.experiments.context import ExperimentContext
        from repro.faults import resolve_scenario
        from repro.world import WorldConfig

        scenario = (
            resolve_scenario(spec.scenario)
            if spec.scenario is not None else None
        )
        return ExperimentContext(
            WorldConfig(seed=spec.seed, num_domains=spec.domains),
            WanConfig(rounds=spec.wan_rounds, workers=spec.workers),
            workers=spec.workers,
            artifact_store=self.artifact_store,
            scenario=scenario,
            obs=obs,
        )

    def _specs_for(self, spec: JobSpec):
        from repro.experiments.registry import (
            all_experiments,
            get_experiment,
        )

        if spec.experiments:
            return [get_experiment(e) for e in spec.experiments]
        return all_experiments()

    def _execute_run(self, spec: JobSpec) -> Dict[str, object]:
        """The single-shot campaign — deliberately the same code path
        a ``repro-experiments --out-dir`` invocation takes, so the
        produced ``run-<hash>/`` is byte-identical to the CLI's."""
        from repro.experiments.manifest import RunManifest
        from repro.sim import set_rng_observer

        obs = Observability.collecting()
        context = self._context_for(spec, obs)
        experiments = self._specs_for(spec)
        runs, results = [], []
        previous_observer = obs.install_rng_counter()
        try:
            for experiment in experiments:
                started = time.time()
                result = experiment.run(context)
                runs.append(
                    (experiment, result, time.time() - started)
                )
                results.append(result)
        finally:
            set_rng_observer(previous_observer)
        manifest = RunManifest.from_run(context, runs)
        job = self._active_job
        if job is not None:
            # Provenance rides the volatile sidecar (timings.json):
            # the manifest must stay byte-identical to a CLI run's.
            manifest.timings["job"] = {
                "job_id": job.job_id,
                "request_id": job.request_id,
                "attempt": job.attempts,
            }
        manifest.write(
            self.repository.root, results=results, context=context
        )
        run_dir = Path(self.repository.root) / manifest.run_id
        record = self.repository.ingest_run_dir(run_dir)
        self._count_appends("run", 1)
        return {
            "run_id": manifest.run_id,
            "fidelity_status": record.fidelity_status,
            "counts": dict(record.counts),
            "divergent_keys": [
                list(pair) for pair in manifest.fidelity.divergent_keys
            ],
        }

    def _execute_series(self, spec: JobSpec) -> Dict[str, object]:
        from repro.analysis.wan import WanConfig
        from repro.epochs import DEFAULT_EPOCH_PLAN, resolve_epoch_plan
        from repro.epochs.series import run_series
        from repro.faults import resolve_scenario
        from repro.sim import set_rng_observer
        from repro.world import WorldConfig

        plan = resolve_epoch_plan(spec.epoch_plan or DEFAULT_EPOCH_PLAN)
        scenario = (
            resolve_scenario(spec.scenario)
            if spec.scenario is not None else None
        )
        obs = Observability.collecting()
        previous_observer = obs.install_rng_counter()
        try:
            series = run_series(
                self._specs_for(spec),
                WorldConfig(seed=spec.seed, num_domains=spec.domains),
                WanConfig(
                    rounds=spec.wan_rounds, workers=spec.workers
                ),
                plan,
                spec.epochs if spec.epochs is not None else 3,
                workers=spec.workers,
                artifact_store=self.artifact_store,
                scenario=scenario,
                obs=obs,
                out_dir=self.repository.root,
            )
        finally:
            set_rng_observer(previous_observer)
        record = self.repository.ingest_series_dir(
            Path(self.repository.root) / series.series_id
        )
        self._count_appends("run", len(record.run_ids))
        epoch0 = series.epochs[0].manifest.fidelity
        return {
            "series_id": series.series_id,
            "run_ids": list(record.run_ids),
            "epoch0_fidelity": epoch0.status,
        }

    def _execute_bench(self, spec: JobSpec) -> Dict[str, object]:
        """Run the profiling script in a subprocess (source checkouts
        only) and surface its digest block."""
        import repro

        script = (
            Path(repro.__file__).resolve().parents[2]
            / "scripts" / "profile_pipeline.py"
        )
        if not script.is_file():
            raise JobSpecError(
                f"bench jobs need scripts/profile_pipeline.py (looked "
                f"at {script}); run the service from a source checkout"
            )
        bench_dir = Path(self.repository.root) / "bench"
        bench_dir.mkdir(parents=True, exist_ok=True)
        # Sequence-numbered outputs: a forced resubmission appends a
        # new trajectory point instead of replacing the old file (the
        # script's same-fingerprint carry-forward would otherwise
        # overwrite the baseline the sentinel needs).
        sequence = 0
        while (bench_dir / f"{spec.job_id}-{sequence:03d}.json").exists():
            sequence += 1
        out = bench_dir / f"{spec.job_id}-{sequence:03d}.json"
        command = [
            sys.executable, str(script),
            "--domains", str(spec.domains),
            "--wan-rounds", str(spec.wan_rounds),
            "--workers", str(spec.workers),
            "--no-cache-check",
            "--out", str(out),
        ]
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        completed = subprocess.run(
            command, env=env, capture_output=True, text=True
        )
        if completed.returncode != 0:
            raise JobSpecError(
                f"bench run exited {completed.returncode}: "
                f"{completed.stderr.strip()[-500:]}"
            )
        with out.open() as fh:
            bench = json.load(fh)
        outcome: Dict[str, object] = {
            "bench_path": str(out),
            "digests": bench.get("digests", {}),
        }
        outcome.update(self._record_bench(out))
        return outcome

    # -- telemetry ------------------------------------------------------

    def _count_appends(self, source: str, count: int) -> None:
        self.obs.metrics.counter(
            "service_timeline_appends_total", volatile=True,
            source=source,
        ).inc(count)

    def _record_bench(self, path: Path) -> Dict[str, object]:
        """Append a bench file's trajectory to the catalog's timeline,
        then run the regression sentinel over the touched series and
        persist the verdicts as ``<stem>.regressions.json`` next to the
        output."""
        from repro.obs.sentinel import check_series, write_regressions

        try:
            entries = self.repository.record_bench(path)
        except (OSError, ValueError) as error:
            logger.warning(
                "timeline: could not record %s: %s", path, error
            )
            return {}
        self._count_appends("bench", 1)
        reports = []
        for series_key in sorted({e.series_key for e in entries}):
            report = check_series(self.repository, series_key)
            if report is not None:
                reports.append(report)
        regressions_path = path.with_name(
            path.stem + ".regressions.json"
        )
        payload = write_regressions(regressions_path, reports)
        self.obs.metrics.counter(
            "service_sentinel_checks_total", volatile=True,
            status=payload["status"],
        ).inc()
        return {
            "regressions_path": str(regressions_path),
            "regression_status": payload["status"],
        }
