"""The repository layer: one catalog of runs, series and telemetry.

Every experiments run leaves a ``run-<hash>/`` directory, every
longitudinal series a ``series-<hash>/`` one (see
:mod:`repro.experiments.manifest` and :mod:`repro.epochs.series`), and
every bench job a trajectory under ``bench/``.  :class:`RunRepository`
indexes one tree of those files into one SQLite file and answers the
questions the scheduler, the HTTP API, the CLI, the regression sentinel
and the dashboard ask: list runs by scenario / seed / fidelity status /
experiment membership / epoch plan, fetch one run's manifest, fidelity
report, or timings, link a series to its epoch runs, and walk the
telemetry timeline (:mod:`repro.obs.timeline`) one trajectory at a
time or every trajectory in one read.

The index is a **pure cache**: the files on disk are the source of
truth, ``scan()`` rebuilds the whole index from them in one pass, and
deleting, corrupting or replacing the SQLite file loses nothing —
:meth:`rebuild` recreates a query-identical index, and a handle whose
file was replaced under it reconnects before its next read or write.
Corrupt or partial directories and bench files (crashed writers,
unknown schema versions) are skipped with a warning and listed in the
:class:`ScanReport`, never fatal.

Thread safety: one connection guarded by an ``RLock`` — the HTTP API
serves from a thread pool while the scheduler ingests.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.epochs.series import load_series
from repro.experiments.manifest import LoadedRun
from repro.obs.timeline import (
    TimelineEntry,
    entries_from_bench_file,
    entry_from_run,
)
from repro.service.errors import UnknownRunError, UnknownSeriesError

logger = logging.getLogger(__name__)

#: Default index filename inside the repository root.  Dot-prefixed so
#: the run-dir globs never mistake it for a result.
INDEX_FILENAME = ".repro-index.sqlite"

#: Schema of the *index* (not of the manifests it caches).  Bumping it
#: invalidates old index files, which simply rebuild from disk.
_INDEX_SCHEMA = 2

#: Bench files the sentinel wrote, living next to real bench output —
#: never timeline input.
_REGRESSIONS_SUFFIX = ".regressions.json"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    path TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    seed INTEGER,
    domains INTEGER,
    wan_rounds INTEGER,
    scenario TEXT,
    epoch_plan TEXT,
    epoch_index INTEGER,
    code_fingerprint TEXT,
    fidelity_status TEXT,
    counts TEXT NOT NULL,
    experiments TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS run_experiments (
    run_id TEXT NOT NULL,
    experiment_id TEXT NOT NULL,
    status TEXT,
    PRIMARY KEY (run_id, experiment_id));
CREATE TABLE IF NOT EXISTS series (
    series_id TEXT PRIMARY KEY,
    path TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    plan TEXT,
    epochs INTEGER,
    seed INTEGER,
    domains INTEGER,
    wan_rounds INTEGER,
    scenario TEXT,
    code_fingerprint TEXT);
CREATE TABLE IF NOT EXISTS series_runs (
    series_id TEXT NOT NULL,
    epoch_index INTEGER NOT NULL,
    run_id TEXT NOT NULL,
    PRIMARY KEY (series_id, epoch_index));
CREATE TABLE IF NOT EXISTS entries (
    entry_id TEXT PRIMARY KEY,
    source TEXT NOT NULL,
    origin TEXT NOT NULL,
    position INTEGER NOT NULL,
    series_key TEXT NOT NULL,
    fingerprint TEXT,
    scale TEXT,
    seed INTEGER,
    domains INTEGER,
    wan_rounds INTEGER,
    scenario TEXT,
    epoch_plan TEXT,
    epoch_index INTEGER,
    recorded_at REAL NOT NULL,
    fidelity_status TEXT,
    fidelity_counts TEXT NOT NULL,
    timings TEXT NOT NULL,
    rss_high_water_kib INTEGER,
    digests TEXT NOT NULL,
    metrics_digest TEXT,
    extra TEXT NOT NULL);
CREATE INDEX IF NOT EXISTS entries_series
    ON entries (series_key, recorded_at, position, entry_id);
"""


def _file_identity(path: Path) -> Optional[Tuple[int, int]]:
    """``(st_dev, st_ino)`` of the file at ``path``; None if missing."""
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


def _skipped(kind: str, path: Path, error: Exception) -> Dict[str, str]:
    logger.warning("skipping %s %s: %s", kind, path, error)
    return {"path": str(path), "reason": str(error)}


@dataclass(frozen=True)
class RunRecord:
    """One indexed run — the queryable projection of its manifest."""

    run_id: str
    path: str
    schema_version: int
    seed: Optional[int]
    domains: Optional[int]
    wan_rounds: Optional[int]
    scenario: Optional[str]
    epoch_plan: Optional[str]
    epoch_index: Optional[int]
    code_fingerprint: Optional[str]
    fidelity_status: Optional[str]
    counts: Dict[str, int] = field(default_factory=dict)
    experiments: Tuple[Dict[str, object], ...] = ()

    @classmethod
    def from_manifest(
        cls, run_dir: Union[str, Path], manifest: dict
    ) -> "RunRecord":
        config = manifest.get("config") or {}
        fidelity = manifest.get("fidelity") or {}
        epoch = config.get("epoch") or {}
        experiments = tuple(
            {"id": entry.get("id"), "status": entry.get("status")}
            for entry in manifest.get("experiments") or []
        )
        return cls(
            run_id=str(manifest["run_id"]),
            path=str(run_dir),
            schema_version=int(manifest.get("schema_version", 0)),
            seed=config.get("seed"),
            domains=config.get("domains"),
            wan_rounds=config.get("wan_rounds"),
            scenario=manifest.get("scenario"),
            epoch_plan=epoch.get("plan"),
            epoch_index=epoch.get("index"),
            code_fingerprint=manifest.get("code_fingerprint"),
            fidelity_status=fidelity.get("status"),
            counts={
                k: int(v)
                for k, v in (fidelity.get("counts") or {}).items()
            },
            experiments=experiments,
        )

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "schema_version": self.schema_version,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "scenario": self.scenario,
            "epoch_plan": self.epoch_plan,
            "epoch_index": self.epoch_index,
            "code_fingerprint": self.code_fingerprint,
            "fidelity_status": self.fidelity_status,
            "counts": dict(self.counts),
            "experiments": [dict(e) for e in self.experiments],
        }


@dataclass(frozen=True)
class SeriesRecord:
    """One indexed longitudinal series and its epoch-run links."""

    series_id: str
    path: str
    schema_version: int
    plan: Optional[str]
    epochs: Optional[int]
    seed: Optional[int]
    domains: Optional[int]
    wan_rounds: Optional[int]
    scenario: Optional[str]
    code_fingerprint: Optional[str]
    run_ids: Tuple[str, ...] = ()

    @classmethod
    def from_payload(
        cls, series_dir: Union[str, Path], payload: dict
    ) -> "SeriesRecord":
        config = payload.get("config") or {}
        plan = payload.get("plan") or {}
        links = payload.get("epochs") or []
        return cls(
            series_id=str(payload["series_id"]),
            path=str(series_dir),
            schema_version=int(payload.get("schema_version", 0)),
            plan=plan.get("name"),
            epochs=config.get("epochs"),
            seed=config.get("seed"),
            domains=config.get("domains"),
            wan_rounds=config.get("wan_rounds"),
            scenario=config.get("scenario"),
            code_fingerprint=payload.get("code_fingerprint"),
            run_ids=tuple(
                str(link.get("run_id")) for link in links
            ),
        )

    def as_dict(self) -> dict:
        return {
            "series_id": self.series_id,
            "path": self.path,
            "schema_version": self.schema_version,
            "plan": self.plan,
            "epochs": self.epochs,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "scenario": self.scenario,
            "code_fingerprint": self.code_fingerprint,
            "run_ids": list(self.run_ids),
        }


@dataclass
class ScanReport:
    """What one :meth:`RunRepository.scan` pass found."""

    runs: int = 0
    series: int = 0
    benches: int = 0
    entries: int = 0
    #: ``[{"path": ..., "reason": ...}]`` for every source skipped, one
    #: list per kind of source.
    skipped_runs: List[Dict[str, str]] = field(default_factory=list)
    skipped_series: List[Dict[str, str]] = field(default_factory=list)
    skipped_benches: List[Dict[str, str]] = field(default_factory=list)

    @property
    def skipped(self) -> List[Dict[str, str]]:
        """Every run or series directory skipped."""
        return self.skipped_runs + self.skipped_series

    def as_dict(self) -> dict:
        """The ``POST /scan`` body: the run and series counts, with the
        telemetry entries written nested under ``timeline``."""
        return {
            "runs": self.runs,
            "series": self.series,
            "skipped": self.skipped,
            "timeline": {
                "entries": self.entries,
                "runs": self.runs,
                "benches": self.benches,
                "skipped": self.skipped_runs + self.skipped_benches,
            },
        }


class RunRepository:
    """SQLite-indexed catalog over one tree of run/series directories
    and bench files.

    ``bench_paths`` names bench JSON files *outside* the root (the
    committed ``BENCH_*.json`` family) to fold into every scan; the
    root's own ``bench/`` products are always included.
    """

    def __init__(
        self,
        root: Union[str, Path],
        db_path: Optional[Union[str, Path]] = None,
        bench_paths: Sequence[Union[str, Path]] = (),
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = (
            Path(db_path) if db_path is not None
            else self.root / INDEX_FILENAME
        )
        self.bench_paths = [Path(p) for p in bench_paths]
        self._lock = threading.RLock()
        self._connect()

    # -- lifecycle -----------------------------------------------------

    def _connect(self) -> None:
        """Open the index file and note which file it is.  A corrupt
        file, or one written under another index schema, is dropped and
        re-created — it is only a cache."""
        conn = sqlite3.connect(self.db_path, check_same_thread=False)
        row = None
        try:
            conn.executescript(_TABLES)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'index_schema'"
            ).fetchone()
            usable = row is None or row[0] == str(_INDEX_SCHEMA)
        except sqlite3.DatabaseError:
            usable = False
        if not usable:
            conn.close()
            self.db_path.unlink(missing_ok=True)
            conn = sqlite3.connect(self.db_path, check_same_thread=False)
            conn.executescript(_TABLES)
            row = None
        if row is None:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES "
                    "('index_schema', ?)",
                    (str(_INDEX_SCHEMA),),
                )
        self._conn = conn
        self._file = _file_identity(self.db_path)

    def _ensure_index(self) -> None:
        """Reconnect if the file at ``db_path`` is no longer the one
        this handle opened: deleted, or replaced by another handle's
        :meth:`rebuild`.  SQLite keeps a connection on the unlinked
        file, which then serves stale rows and refuses writes."""
        if _file_identity(self.db_path) != self._file:
            self._conn.close()
            self._connect()

    def _query(self, sql: str, params: Sequence = ()) -> list:
        with self._lock:
            self._ensure_index()
            return self._conn.execute(sql, params).fetchall()

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """The live connection, for writes committed together."""
        with self._lock:
            self._ensure_index()
            with self._conn:
                yield self._conn

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunRepository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingestion -----------------------------------------------------

    def _bench_files(self) -> List[Path]:
        files = sorted(
            p for p in (self.root / "bench").glob("*.json")
            if not p.name.endswith(_REGRESSIONS_SUFFIX)
        )
        for extra in self.bench_paths:
            if extra not in files:
                files.append(extra)
        return files

    def scan(self) -> ScanReport:
        """Re-index the whole tree from disk in one pass (the index is
        a cache: rows for vanished sources are dropped, every surviving
        one is re-read).  Each run directory is read once and gives
        both its run row and its telemetry entry."""
        report = ScanReport()
        runs: List[RunRecord] = []
        entries: List[TimelineEntry] = []
        for run_dir in sorted(self.root.glob("run-*")):
            if not run_dir.is_dir():
                continue
            try:
                loaded = LoadedRun.from_dir(run_dir)
                record = RunRecord.from_manifest(run_dir, loaded.manifest)
                entry = entry_from_run(loaded)
            except (OSError, ValueError) as error:
                report.skipped_runs.append(
                    _skipped("run dir", run_dir, error)
                )
                continue
            runs.append(record)
            entries.append(entry)
        series: List[SeriesRecord] = []
        for series_dir in sorted(self.root.glob("series-*")):
            if not series_dir.is_dir():
                continue
            try:
                series.append(SeriesRecord.from_payload(
                    series_dir, load_series(series_dir)
                ))
            except (OSError, ValueError) as error:
                report.skipped_series.append(
                    _skipped("series dir", series_dir, error)
                )
        for bench_file in self._bench_files():
            try:
                entries.extend(entries_from_bench_file(bench_file))
            except (OSError, ValueError) as error:
                report.skipped_benches.append(
                    _skipped("bench file", bench_file, error)
                )
                continue
            report.benches += 1
        with self._transaction() as conn:
            for table in ("runs", "run_experiments", "series",
                          "series_runs", "entries"):
                conn.execute(f"DELETE FROM {table}")
            for record in runs:
                self._insert_run(conn, record)
            for record in series:
                self._insert_series(conn, record)
            for entry in entries:
                self._insert_entry(conn, entry)
        report.runs = len(runs)
        report.series = len(series)
        report.entries = len(entries)
        return report

    def rebuild(self) -> ScanReport:
        """Drop the SQLite file entirely and re-create it from disk."""
        with self._lock:
            self._conn.close()
            self.db_path.unlink(missing_ok=True)
            self._connect()
        return self.scan()

    def ingest_run_dir(self, run_dir: Union[str, Path]) -> RunRecord:
        """Index (or re-index) one run directory and its telemetry
        entry; raises on corrupt input — targeted ingestion is for
        writers that just produced the directory and must notice their
        own failures."""
        run_dir = Path(run_dir)
        loaded = LoadedRun.from_dir(run_dir)
        record = RunRecord.from_manifest(run_dir, loaded.manifest)
        entry = entry_from_run(loaded)
        with self._transaction() as conn:
            conn.execute(
                "DELETE FROM run_experiments WHERE run_id = ?",
                (record.run_id,),
            )
            self._insert_run(conn, record)
            self._insert_entry(conn, entry)
        return record

    def ingest_series_dir(
        self, series_dir: Union[str, Path]
    ) -> SeriesRecord:
        """Index one series directory plus its epoch runs (which live
        as sibling ``run-*`` dirs under the same root)."""
        series_dir = Path(series_dir)
        record = SeriesRecord.from_payload(
            series_dir, load_series(series_dir)
        )
        with self._transaction() as conn:
            conn.execute(
                "DELETE FROM series_runs WHERE series_id = ?",
                (record.series_id,),
            )
            self._insert_series(conn, record)
        for run_id in record.run_ids:
            run_dir = self.root / run_id
            if run_dir.is_dir():
                self.ingest_run_dir(run_dir)
        return record

    def record_bench(
        self, path: Union[str, Path]
    ) -> List[TimelineEntry]:
        """Index (or refresh) one bench JSON file's trajectory."""
        entries = entries_from_bench_file(path)
        with self._transaction() as conn:
            for entry in entries:
                self._insert_entry(conn, entry)
        return entries

    @staticmethod
    def _insert_run(conn, record: RunRecord) -> None:
        conn.execute(
            "INSERT OR REPLACE INTO runs VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_id, record.path, record.schema_version,
                record.seed, record.domains, record.wan_rounds,
                record.scenario, record.epoch_plan, record.epoch_index,
                record.code_fingerprint, record.fidelity_status,
                json.dumps(record.counts, sort_keys=True),
                json.dumps(list(record.experiments)),
            ),
        )
        for entry in record.experiments:
            conn.execute(
                "INSERT OR REPLACE INTO run_experiments VALUES (?, ?, ?)",
                (record.run_id, entry.get("id"), entry.get("status")),
            )

    @staticmethod
    def _insert_series(conn, record: SeriesRecord) -> None:
        conn.execute(
            "INSERT OR REPLACE INTO series VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.series_id, record.path, record.schema_version,
                record.plan, record.epochs, record.seed, record.domains,
                record.wan_rounds, record.scenario,
                record.code_fingerprint,
            ),
        )
        for index, run_id in enumerate(record.run_ids):
            conn.execute(
                "INSERT OR REPLACE INTO series_runs VALUES (?, ?, ?)",
                (record.series_id, index, run_id),
            )

    @staticmethod
    def _insert_entry(conn, entry: TimelineEntry) -> None:
        conn.execute(
            "INSERT OR REPLACE INTO entries VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
            "?, ?, ?)",
            (
                entry.entry_id, entry.source, entry.origin,
                entry.position, entry.series_key, entry.fingerprint,
                entry.scale, entry.seed, entry.domains,
                entry.wan_rounds, entry.scenario, entry.epoch_plan,
                entry.epoch_index, entry.recorded_at,
                entry.fidelity_status,
                json.dumps(entry.fidelity_counts, sort_keys=True),
                json.dumps(entry.timings, sort_keys=True),
                entry.rss_high_water_kib,
                json.dumps(entry.digests, sort_keys=True),
                entry.metrics_digest,
                json.dumps(entry.extra, sort_keys=True, default=str),
            ),
        )

    # -- queries -------------------------------------------------------

    def runs(
        self,
        scenario: Optional[str] = None,
        status: Optional[str] = None,
        seed: Optional[int] = None,
        fingerprint: Optional[str] = None,
        experiment: Optional[str] = None,
        epoch_plan: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Indexed runs matching every given filter, ordered by id
        (deterministic — the rebuild tests diff this ordering)."""
        clauses, params = [], []
        if scenario is not None:
            clauses.append("runs.scenario = ?")
            params.append(scenario)
        if status is not None:
            clauses.append("runs.fidelity_status = ?")
            params.append(status)
        if seed is not None:
            clauses.append("runs.seed = ?")
            params.append(seed)
        if fingerprint is not None:
            clauses.append("runs.code_fingerprint = ?")
            params.append(fingerprint)
        if epoch_plan is not None:
            clauses.append("runs.epoch_plan = ?")
            params.append(epoch_plan)
        sql = "SELECT runs.* FROM runs"
        if experiment is not None:
            sql += (
                " JOIN run_experiments ON "
                "run_experiments.run_id = runs.run_id"
            )
            clauses.append("run_experiments.experiment_id = ?")
            params.append(experiment)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY runs.run_id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [self._run_from_row(row) for row in self._query(sql, params)]

    @staticmethod
    def _run_from_row(row) -> RunRecord:
        return RunRecord(
            run_id=row[0], path=row[1], schema_version=row[2],
            seed=row[3], domains=row[4], wan_rounds=row[5],
            scenario=row[6], epoch_plan=row[7], epoch_index=row[8],
            code_fingerprint=row[9], fidelity_status=row[10],
            counts=json.loads(row[11]),
            experiments=tuple(json.loads(row[12])),
        )

    def get_run(self, run_id: str) -> RunRecord:
        rows = self._query("SELECT * FROM runs WHERE run_id = ?", (run_id,))
        if rows:
            return self._run_from_row(rows[0])
        # The index is only a cache — fall back to disk before
        # declaring the run unknown (and index it for next time).
        run_dir = self.root / run_id
        if run_dir.is_dir():
            try:
                return self.ingest_run_dir(run_dir)
            except (OSError, ValueError) as error:
                raise UnknownRunError(run_id) from error
        raise UnknownRunError(run_id)

    def load_run(self, run_id: str) -> LoadedRun:
        """The full on-disk record (manifest + sidecars) for one run."""
        record = self.get_run(run_id)
        return LoadedRun.from_dir(record.path)

    def series(
        self,
        plan: Optional[str] = None,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SeriesRecord]:
        clauses, params = [], []
        if plan is not None:
            clauses.append("plan = ?")
            params.append(plan)
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if seed is not None:
            clauses.append("seed = ?")
            params.append(seed)
        sql = "SELECT * FROM series"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY series_id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            self._series_from_row(row) for row in self._query(sql, params)
        ]

    def _series_from_row(self, row) -> SeriesRecord:
        links = self._query(
            "SELECT run_id FROM series_runs WHERE series_id = ? "
            "ORDER BY epoch_index",
            (row[0],),
        )
        return SeriesRecord(
            series_id=row[0], path=row[1], schema_version=row[2],
            plan=row[3], epochs=row[4], seed=row[5], domains=row[6],
            wan_rounds=row[7], scenario=row[8], code_fingerprint=row[9],
            run_ids=tuple(link[0] for link in links),
        )

    def get_series(self, series_id: str) -> SeriesRecord:
        rows = self._query(
            "SELECT * FROM series WHERE series_id = ?", (series_id,)
        )
        if rows:
            return self._series_from_row(rows[0])
        series_dir = self.root / series_id
        if series_dir.is_dir():
            try:
                return self.ingest_series_dir(series_dir)
            except (OSError, ValueError) as error:
                raise UnknownSeriesError(series_id) from error
        raise UnknownSeriesError(series_id)

    def load_series_payload(self, series_id: str) -> dict:
        record = self.get_series(series_id)
        return load_series(record.path)

    @staticmethod
    def _entry_from_row(row) -> TimelineEntry:
        return TimelineEntry(
            entry_id=row[0], source=row[1], origin=row[2],
            position=row[3], series_key=row[4], fingerprint=row[5],
            scale=row[6], seed=row[7], domains=row[8],
            wan_rounds=row[9], scenario=row[10], epoch_plan=row[11],
            epoch_index=row[12], recorded_at=row[13],
            fidelity_status=row[14],
            fidelity_counts=json.loads(row[15]),
            timings=json.loads(row[16]),
            rss_high_water_kib=row[17],
            digests=json.loads(row[18]),
            metrics_digest=row[19],
            extra=json.loads(row[20]),
        )

    def entries(
        self,
        source: Optional[str] = None,
        series_key: Optional[str] = None,
        scale: Optional[str] = None,
        scenario: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[TimelineEntry]:
        """Telemetry entries matching every given filter, trajectory
        order (recorded_at, then position, then id — deterministic
        given the same files on disk)."""
        clauses, params = [], []
        for column, value in (
            ("source", source), ("series_key", series_key),
            ("scale", scale), ("scenario", scenario),
            ("fingerprint", fingerprint),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM entries"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY recorded_at, position, entry_id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            self._entry_from_row(row) for row in self._query(sql, params)
        ]

    def series_keys(self) -> List[str]:
        """Every distinct trajectory, ordered by each one's first
        entry (so reports list stable, oldest-first sections)."""
        rows = self._query(
            "SELECT series_key, MIN(recorded_at), MIN(entry_id) "
            "FROM entries GROUP BY series_key ORDER BY 2, 3"
        )
        return [row[0] for row in rows]

    def trajectory(self, series_key: str) -> List[TimelineEntry]:
        """One config's entries, oldest first."""
        return self.entries(series_key=series_key)

    def trajectories(self) -> Dict[str, List[TimelineEntry]]:
        """Every trajectory, keyed in :meth:`series_keys` order, each
        oldest first: ``{key: self.trajectory(key) for key in
        self.series_keys()}`` read with one ``series_keys`` query and
        one :meth:`entries` query, whatever the number of trajectories.

        The watchtower views (the sentinel's ``check_store``,
        ``repro report`` and ``/dashboard``) each work from one such
        read.  Both queries run under the handle's lock, so a scan
        through this handle cannot land between them; an entry another
        handle added in between is kept, after the listed keys.
        """
        with self._lock:
            keys = self.series_keys()
            entries = self.entries()
        trajectories: Dict[str, List[TimelineEntry]] = {
            key: [] for key in keys
        }
        for entry in entries:
            trajectories.setdefault(entry.series_key, []).append(entry)
        return trajectories

    def counts(self) -> Dict[str, int]:
        """Catalog cardinalities for ``/health``, ``/metrics`` and
        ``repro report``."""
        (row,) = self._query(
            "SELECT (SELECT COUNT(*) FROM runs), "
            "(SELECT COUNT(*) FROM series), "
            "(SELECT COUNT(*) FROM entries), "
            "(SELECT COUNT(*) FROM entries WHERE source = 'run'), "
            "(SELECT COUNT(*) FROM entries WHERE source = 'bench'), "
            "(SELECT COUNT(DISTINCT series_key) FROM entries)"
        )
        return dict(zip(
            ("runs", "series", "entries", "run_entries", "bench_entries",
             "series_keys"),
            row,
        ))
