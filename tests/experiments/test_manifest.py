"""Tests for the run manifest: ids, shape, determinism, layout."""

import json
import time

import pytest

from repro.analysis.wan import WanConfig
from repro.experiments import ExperimentContext, RunManifest
from repro.experiments.manifest import run_identifier
from repro.experiments.registry import get_experiment
from repro.world import WorldConfig


def _context(**kwargs):
    defaults = dict(
        world_config=WorldConfig(seed=7, num_domains=300),
        wan_config=WanConfig(rounds=2),
    )
    defaults.update(kwargs)
    return ExperimentContext(**defaults)


@pytest.fixture(scope="module")
def manifest_run():
    context = _context()
    specs = [get_experiment("table03"), get_experiment("table15")]
    runs = [(s, s.run(context), 0.1) for s in specs]
    return context, runs, RunManifest.from_run(context, runs)


class TestRunIdentifier:
    def test_deterministic(self):
        ids = ("table03", "table15")
        assert run_identifier(_context(), ids) == run_identifier(
            _context(), ids
        )

    def test_sensitive_to_config_and_subset(self):
        base = run_identifier(_context(), ("table03",))
        assert base != run_identifier(_context(), ("table04",))
        other_world = _context(
            world_config=WorldConfig(seed=8, num_domains=300)
        )
        assert base != run_identifier(other_world, ("table03",))

    def test_insensitive_to_workers(self):
        # Worker counts never change outputs, so parallel and
        # sequential runs share a run directory.
        sequential = _context()
        parallel = _context(
            wan_config=WanConfig(rounds=2, workers=4), workers=4
        )
        assert run_identifier(sequential, ("table03",)) == (
            run_identifier(parallel, ("table03",))
        )

    def test_format(self):
        run_id = run_identifier(_context(), ("table03",))
        assert run_id.startswith("run-")
        assert len(run_id) == len("run-") + 12


class TestRunManifest:
    def test_shape(self, manifest_run):
        _, runs, manifest = manifest_run
        payload = manifest.as_dict()
        assert payload["config"]["seed"] == 7
        assert payload["config"]["domains"] == 300
        assert payload["config"]["experiments"] == [
            "table03", "table15"
        ]
        assert payload["code_fingerprint"]
        assert payload["scenario"] is None
        assert len(payload["experiments"]) == 2
        entry = payload["experiments"][0]
        assert entry["id"] == "table03"
        assert entry["status"] in (
            "match", "drift", "missing", "divergent"
        )
        # Every key record carries the full scoring quadruple.
        for record in entry["keys"]:
            assert {"key", "paper", "measured", "verdict"} <= set(
                record
            )
        assert payload["fidelity"]["experiments"]
        # Wall-clock never reaches the manifest payload: timings live
        # in the timings.json sidecar, the manifest keeps only the
        # deterministic metrics snapshot.
        assert "telemetry" not in payload
        assert "elapsed_s" not in entry
        assert "counters" in payload["metrics"]
        assert "stages_s" in manifest.timings
        # Each experiment is charged its elapsed time less the stages
        # built inside its span: table03, the first to ask, built the
        # world and the dataset.
        stages = manifest.timings["stages_s"]
        experiments = manifest.timings["experiments_s"]
        assert experiments["table15"] == 0.1
        assert experiments["table03"] == pytest.approx(
            0.1 - stages["world_s"] - stages["dataset_s"], abs=2e-3
        )

    def test_timings_count_each_stage_once(self):
        # The first experiment builds the world, dataset and capture
        # inside its span; stages_s counts those builds, so the
        # experiments are charged only their self time.  Each of the
        # rounded values may be 0.5 ms high.
        started = time.perf_counter()
        context = ExperimentContext(
            WorldConfig(seed=7, num_domains=400), WanConfig(rounds=2)
        )
        runs = []
        for spec in (get_experiment("table01"), get_experiment("table03")):
            tick = time.perf_counter()
            result = spec.run(context)
            runs.append((spec, result, time.perf_counter() - tick))
        timings = RunManifest.from_run(context, runs).timings
        wall = time.perf_counter() - started
        counted = [
            *timings["experiments_s"].values(),
            *timings["stages_s"].values(),
        ]
        assert set(timings["stages_s"]) == {
            "world_s", "dataset_s", "capture_s",
        }
        assert sum(counted) <= wall + 0.0005 * len(counted)

    def test_json_serialisable(self, manifest_run):
        _, _, manifest = manifest_run
        json.dumps(manifest.as_dict())

    def test_write_layout(self, manifest_run, tmp_path):
        context, runs, manifest = manifest_run
        paths = manifest.write(
            tmp_path,
            results=[result for _, result, _ in runs],
            context=context,
        )
        run_dir = tmp_path / manifest.run_id
        assert paths["run_dir"] == run_dir
        for name in ("manifest.json", "timings.json", "summaries.txt",
                     "fidelity.txt", "fidelity.json"):
            assert (run_dir / name).exists()
        timings = json.loads((run_dir / "timings.json").read_text())
        assert "stages_s" in timings
        assert "experiments_s" in timings
        for name in ("subdomains.tsv", "nameservers.tsv",
                     "published_ranges.tsv"):
            assert (run_dir / "release" / name).exists()
        reread = json.loads((run_dir / "manifest.json").read_text())
        assert reread["run_id"] == manifest.run_id
        assert "table03" in (run_dir / "summaries.txt").read_text()
        assert "Fidelity vs the paper" in (
            (run_dir / "fidelity.txt").read_text()
        )

    def test_manifest_byte_identical_run_over_run(self, manifest_run):
        # The whole point of the timings.json split: two runs of the
        # same (seed, config, code) serialise byte-identical manifests,
        # wall-clock differences and all.
        context_a, _, manifest_a = manifest_run

        context_b = _context()
        specs = [get_experiment("table03"), get_experiment("table15")]
        runs_b = [(s, s.run(context_b), 0.7) for s in specs]
        manifest_b = RunManifest.from_run(context_b, runs_b)

        def serialised(manifest):
            return json.dumps(manifest.as_dict(), indent=2)

        assert serialised(manifest_a) == serialised(manifest_b)
        # The differing elapsed values landed in the sidecar instead.
        assert manifest_a.timings["experiments_s"] != (
            manifest_b.timings["experiments_s"]
        )

    def test_scenario_recorded_and_exempt(self):
        from repro.faults import resolve_scenario

        scenario = resolve_scenario("elb-outage")
        context = _context(scenario=scenario)
        exp = get_experiment("table03")
        runs = [(exp, exp.run(context), 0.1)]
        manifest = RunManifest.from_run(context, runs)
        payload = manifest.as_dict()
        assert payload["scenario"] == "elb-outage"
        assert payload["config"]["scenario"] == "elb-outage"
        assert payload["fidelity"]["status"] == "exempt"
        # The drilled run id differs from the healthy one.
        healthy = RunManifest.from_run(
            _context(),
            [(exp, exp.run(_context()), 0.1)],
        )
        assert manifest.run_id != healthy.run_id
