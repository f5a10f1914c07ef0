"""Run manifests: every experiments run leaves a machine-readable trail.

A :class:`RunManifest` captures one ``repro-experiments`` invocation:
a deterministic run id (content-addressed on the configuration, the
code fingerprint, the scenario, and the experiment subset — *not* on
wall-clock time, so the same run always lands in the same directory),
the full configuration, per-experiment measured/paper/delta/verdict
records, the fidelity rollup, and the deterministic metrics snapshot.

``write`` lays out the run directory::

    <out-dir>/<run-id>/
        manifest.json     # everything deterministic, machine-readable
        timings.json      # wall-clock sidecar: stage/campaign/step
                          # times, per-experiment self times, volatile
                          # metrics (cache hits, rates, RNG draws)
        summaries.txt     # the rendered tables/figures + comparisons
        fidelity.txt      # the human-facing fidelity report
        fidelity.json     # the same rollup, for the CI gate
        release/          # the §2.1 TSV export (subdomains,
                          # nameservers, published ranges)

``manifest.json`` is byte-identical run over run for a given
(seed, config, code): every wall-clock or environment-dependent
quantity lives in the ``timings.json`` sidecar, never in the manifest.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.artifacts import artifact_key
from repro.artifacts.keys import code_fingerprint
from repro.experiments.base import ExperimentResult
from repro.experiments.fidelity import FidelityReport
from repro.experiments.spec import ExperimentSpec
from repro.obs import NOOP
from repro.obs.trace import nested_stage_seconds

logger = logging.getLogger(__name__)

#: Version of the ``manifest.json`` layout this code writes.  Bumped
#: whenever a consumer (the service repository layer, most prominently)
#: could misread an older or newer file; loaders accept every version
#: up to and including this one (files written before versioning count
#: as version 0) and refuse unknown newer ones with a clear error.
MANIFEST_SCHEMA_VERSION = 1


class UnsupportedSchemaError(ValueError):
    """A manifest/series file declares a schema newer than this code.

    The repository index must never guess at fields it does not know;
    upgrading ``repro`` is the fix, not ignoring the version.
    """


def check_schema_version(
    payload: dict, current: int, path: Union[str, Path, None] = None
) -> int:
    """Validate ``payload``'s ``schema_version`` against ``current``.

    Missing fields read as version 0 (pre-versioning files remain
    loadable); versions above ``current`` — or non-integer values —
    raise :class:`UnsupportedSchemaError`.
    """
    version = payload.get("schema_version", 0)
    where = f" in {path}" if path is not None else ""
    if not isinstance(version, int) or isinstance(version, bool):
        raise UnsupportedSchemaError(
            f"schema_version {version!r}{where} is not an integer"
        )
    if version > current:
        raise UnsupportedSchemaError(
            f"schema_version {version}{where} is newer than this "
            f"repro's supported version {current}; upgrade repro to "
            f"read it"
        )
    return version


def run_identifier(context, experiment_ids: Tuple[str, ...]) -> str:
    """The deterministic run id for one (config, code, subset) tuple."""
    # Worker counts never change outputs (the campaigns are
    # bit-identical), so sequential and parallel runs share an id.
    components = {
        "world": context.world_config,
        "wan": replace(context.wan_config, workers=0),
        "experiments": tuple(experiment_ids),
    }
    if context.scenario is not None:
        components["scenario"] = context.scenario.name
    # Epoch 0 must land in exactly the single-shot run directory (it
    # *is* that run), so the epoch joins the id only when evolved.
    epoch = getattr(context, "epoch", None)
    if epoch is not None and epoch.index > 0:
        components["epoch"] = (epoch.plan_name, epoch.index)
    return "run-" + artifact_key("run-manifest", components)[:12]


@dataclass
class RunManifest:
    """One run's complete, machine-readable record."""

    run_id: str
    config: Dict[str, object]
    code_fingerprint: str
    scenario: Optional[str]
    experiments: List[Dict[str, object]]
    fidelity: FidelityReport
    #: Deterministic metrics snapshot (probe/retry/loss counters);
    #: pure function of (seed, config, code), safe for manifest.json.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Wall-clock sidecar: stage/step/campaign timings, per-experiment
    #: self times, volatile metrics.  Written as ``timings.json``; never
    #: part of :meth:`as_dict` — the manifest must stay byte-identical
    #: run over run.
    timings: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_run(
        cls,
        context,
        runs: List[Tuple[ExperimentSpec, ExperimentResult, float]],
    ) -> "RunManifest":
        """Assemble the manifest from executed (spec, result, elapsed)
        triples sharing one context.

        Each experiment's ``experiments_s`` entry is its self time: its
        elapsed time less the ``stage`` spans nested in its
        ``experiment:<id>`` span, which ``stages_s`` already counts.
        """
        scenario = (
            context.scenario.name if context.scenario is not None
            else None
        )
        obs = getattr(context, "obs", NOOP)
        nested = nested_stage_seconds(obs.tracer, "experiment")
        experiments = []
        experiments_s: Dict[str, float] = {}
        for spec, result, elapsed in runs:
            fidelity = result.fidelity
            experiments_s[spec.experiment_id] = round(
                elapsed - nested.get(f"experiment:{spec.experiment_id}", 0.0),
                3,
            )
            experiments.append({
                "id": spec.experiment_id,
                "title": spec.headline,
                "section": spec.paper_section,
                "status": (
                    fidelity.status if fidelity is not None else None
                ),
                "keys": (
                    [v.as_dict() for v in fidelity.verdicts]
                    if fidelity is not None else []
                ),
                **({"notes": result.notes} if result.notes else {}),
            })
        epoch = getattr(context, "epoch", None)
        epoch_index = (
            epoch.index if epoch is not None and epoch.index > 0 else None
        )
        report = FidelityReport(
            [result.fidelity for _, result, _ in runs
             if result.fidelity is not None],
            scenario=scenario,
            epoch=epoch_index,
        )
        world = context.world_config
        wan = context.wan_config
        metrics: Dict[str, object] = {}
        timings: Dict[str, object] = dict(context.telemetry())
        timings["experiments_s"] = experiments_s
        if obs.metrics.enabled:
            metrics = obs.metrics.deterministic_snapshot()
            timings["volatile_metrics"] = obs.metrics.volatile_snapshot()
        return cls(
            run_id=run_identifier(
                context, tuple(spec.experiment_id for spec, _, _ in runs)
            ),
            config={
                "seed": world.seed,
                "domains": world.num_domains,
                "wan_rounds": wan.rounds,
                "workers": context.workers,
                "scenario": scenario,
                # Only evolved epochs mark the config: epoch 0's
                # manifest must stay byte-identical to a single-shot
                # run's.
                **({"epoch": {"plan": epoch.plan_name,
                              "index": epoch.index}}
                   if epoch_index is not None else {}),
                "experiments": [
                    spec.experiment_id for spec, _, _ in runs
                ],
            },
            code_fingerprint=code_fingerprint(),
            scenario=scenario,
            experiments=experiments,
            fidelity=report,
            metrics=metrics,
            timings=timings,
        )

    def as_dict(self) -> dict:
        """The deterministic manifest payload (no wall-clock keys)."""
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "config": self.config,
            "code_fingerprint": self.code_fingerprint,
            "scenario": self.scenario,
            "experiments": self.experiments,
            "fidelity": self.fidelity.as_dict(),
            "metrics": self.metrics,
        }

    def write(
        self,
        out_dir: Union[str, Path],
        results: Optional[List[ExperimentResult]] = None,
        context=None,
    ) -> Dict[str, Path]:
        """Write the run directory; returns {name: path}.

        ``results`` feeds ``summaries.txt``; ``context`` (when given)
        adds the §2.1 TSV release under ``release/``.
        """
        from repro.analysis.export import export_dataset

        run_dir = Path(out_dir) / self.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {"run_dir": run_dir}

        paths["manifest"] = run_dir / "manifest.json"
        with paths["manifest"].open("w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

        paths["timings"] = run_dir / "timings.json"
        with paths["timings"].open("w") as fh:
            json.dump(self.timings, fh, indent=2, sort_keys=False)
            fh.write("\n")

        if results is not None:
            paths["summaries"] = run_dir / "summaries.txt"
            paths["summaries"].write_text(
                "\n\n".join(r.summary() for r in results) + "\n"
            )

        paths["fidelity_text"] = run_dir / "fidelity.txt"
        paths["fidelity_text"].write_text(
            self.fidelity.render_text() + "\n"
        )
        paths["fidelity_json"] = run_dir / "fidelity.json"
        with paths["fidelity_json"].open("w") as fh:
            json.dump(self.fidelity.as_dict(), fh, indent=2)
            fh.write("\n")

        if context is not None:
            release = export_dataset(
                context.world, context.dataset, run_dir / "release"
            )
            paths.update({
                f"release_{name}": path
                for name, path in release.items()
            })
        return paths


# -- reading runs back ------------------------------------------------
#
# The manifest plane used to be write-only: runs were emitted and only
# ``ls`` could find them again.  The service layer (repro.service)
# needs the reverse direction — load one run directory, or iterate a
# whole tree of them — with schema versioning so the index can evolve
# safely.


def load_manifest(path: Union[str, Path]) -> dict:
    """Load and validate one ``manifest.json`` (or run directory).

    Accepts the file itself or its ``run-<hash>`` directory.  Raises
    ``FileNotFoundError``/``json.JSONDecodeError`` for unreadable
    files, ``ValueError`` for JSON that is not a run manifest, and
    :class:`UnsupportedSchemaError` for versions newer than
    :data:`MANIFEST_SCHEMA_VERSION`.
    """
    path = Path(path)
    expected_id = None
    if path.is_dir():
        expected_id = path.name
        path = path / "manifest.json"
    with path.open() as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "run_id" not in payload:
        raise ValueError(f"{path} is not a run manifest (no run_id)")
    if expected_id is not None and payload["run_id"] != expected_id:
        # Run ids are content addresses; a directory holding somebody
        # else's manifest is corrupt, not merely misnamed.
        raise ValueError(
            f"{path} declares run_id {payload['run_id']!r} but lives "
            f"in {expected_id!r}"
        )
    check_schema_version(payload, MANIFEST_SCHEMA_VERSION, path)
    return payload


@dataclass(frozen=True)
class LoadedRun:
    """One run directory read back from disk.

    ``manifest`` is the validated ``manifest.json`` payload; the
    volatile sidecars (``timings.json``, ``fidelity.json``) load
    lazily-ish via :meth:`from_dir` and default to empty when absent —
    a partially written run directory is still loadable as long as the
    manifest itself is intact.
    """

    run_dir: Path
    manifest: Dict[str, object]
    timings: Dict[str, object] = field(default_factory=dict)
    fidelity: Dict[str, object] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        return str(self.manifest["run_id"])

    @classmethod
    def from_dir(cls, run_dir: Union[str, Path]) -> "LoadedRun":
        run_dir = Path(run_dir)
        manifest = load_manifest(run_dir)
        sidecars: Dict[str, Dict[str, object]] = {}
        for name in ("timings", "fidelity"):
            sidecar = run_dir / f"{name}.json"
            try:
                with sidecar.open() as fh:
                    loaded = json.load(fh)
                sidecars[name] = loaded if isinstance(loaded, dict) else {}
            except (OSError, json.JSONDecodeError):
                sidecars[name] = {}
        return cls(run_dir=run_dir, manifest=manifest, **sidecars)


def iter_run_manifests(
    root: Union[str, Path]
) -> Iterator[Tuple[Path, dict]]:
    """Yield ``(run_dir, manifest)`` for every ``run-*`` directory
    under ``root``, in sorted (deterministic) order.

    Corrupt or partial directories — unreadable JSON, missing
    ``manifest.json``, unknown schema versions — are skipped with a
    warning, never raised: one damaged run must not hide the rest of
    the tree.
    """
    root = Path(root)
    if not root.is_dir():
        return
    for run_dir in sorted(root.glob("run-*")):
        if not run_dir.is_dir():
            continue
        try:
            yield run_dir, load_manifest(run_dir)
        except (OSError, ValueError) as error:
            logger.warning("skipping run dir %s: %s", run_dir, error)
