"""Integration tests for the epoch series runner and its reuse rules.

One module-scoped environment runs the same 3-epoch series twice
through one artifact cache — cold, then warm — plus a single-shot
context for the epoch-0 identity checks.  Everything the longitudinal
plane promises is asserted here: epoch 0 is the single-shot run,
untouched artifact kinds are served from cache at later epochs, a warm
resume is all hits (reported through the series obs counters), and
every deterministic output byte is identical cold vs warm and
sequential vs ``--workers N``.
"""

import json

import pytest

from repro.analysis.wan import WanAnalysis, WanConfig
from repro.artifacts import ArtifactStore
from repro.epochs import EPOCH_SECONDS, Epoch, resolve_epoch_plan, run_series
from repro.experiments import ExperimentContext, get_experiment
from repro.experiments.manifest import run_identifier
from repro.obs import Observability
from repro.sim import fork_pool_available
from repro.world import WorldConfig

SEED = 7
DOMAINS = 300
ROUNDS = 2
EPOCHS = 3
SPEC_IDS = ("table03", "figure09")  # a dataset consumer + a WAN consumer
PLAN = "steady-growth"


def _run(root, out_name, workers=0):
    store = ArtifactStore(root / "cache")
    obs = Observability.collecting()
    result = run_series(
        [get_experiment(spec_id) for spec_id in SPEC_IDS],
        WorldConfig(seed=SEED, num_domains=DOMAINS),
        WanConfig(rounds=ROUNDS, workers=workers),
        resolve_epoch_plan(PLAN),
        EPOCHS,
        workers=workers,
        artifact_store=store,
        obs=obs,
        out_dir=root / out_name,
    )
    return result, store, obs


@pytest.fixture(scope="module")
def series_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("series")
    cold, cold_store, cold_obs = _run(root, "cold")
    warm, warm_store, warm_obs = _run(root, "warm")
    return {
        "root": root,
        "cold": cold,
        "cold_obs": cold_obs,
        "warm": warm,
        "warm_obs": warm_obs,
    }


def _delta(result, index):
    return result.timings["cache_deltas"][str(index)]


class TestSeriesOutputs:
    def test_layout_and_series_json(self, series_env):
        cold = series_env["cold"]
        out = series_env["root"] / "cold"
        payload = json.loads(
            (out / cold.series_id / "series.json").read_text()
        )
        assert payload["series_id"] == cold.series_id
        assert payload["plan"]["name"] == PLAN
        assert payload["config"]["epochs"] == EPOCHS
        assert payload["config"]["experiments"] == list(SPEC_IDS)
        # Worker counts are environmental; they live only in the
        # timings sidecar, never in series.json.
        assert "workers" not in payload["config"]
        assert len(payload["epochs"]) == EPOCHS
        for index, link in enumerate(payload["epochs"]):
            assert link["index"] == index
            assert link["virtual_time_s"] == index * EPOCH_SECONDS
            assert (out / link["run_id"] / "manifest.json").exists()
            assert link["snapshot"]["epoch"] == index
        # Epoch 0 evolves nothing; later epochs record their steps
        # and per-step diffs.
        assert payload["epochs"][0]["steps"] == []
        assert payload["epochs"][1]["steps"]
        assert payload["epochs"][1]["diffs"]
        assert payload["epochs"][1]["fingerprints"]["dataset"]
        assert payload["epochs"][1]["fingerprints"]["wan"] is None
        trend_ids = {row["id"] for row in payload["trends"]}
        assert trend_ids == {
            "trend-cloud-share", "trend-provider-mix",
            "trend-consolidation",
        }

    def test_trend_tables_render(self, series_env):
        rendered = series_env["cold"].render_trends()
        assert "Cloud share over time" in rendered
        assert "Consolidation curve (per Bhattacherjee et al.)" in rendered
        trends_txt = (
            series_env["root"] / "cold"
            / series_env["cold"].series_id / "trends.txt"
        ).read_text()
        assert "Cloud share over time" in trends_txt

    def test_snapshots_track_the_timeline(self, series_env):
        snapshots = series_env["cold"].snapshots
        assert [s.epoch for s in snapshots] == list(range(EPOCHS))
        assert [s.virtual_time_s for s in snapshots] == [
            i * EPOCH_SECONDS for i in range(EPOCHS)
        ]
        clouds = [s.cloud_domains for s in snapshots]
        # steady-growth only adds cloud users.
        assert clouds[0] < clouds[1] < clouds[2]

    def test_only_epoch_zero_exports_the_release(self, series_env):
        cold = series_env["cold"]
        out = series_env["root"] / "cold"
        assert (out / cold.epochs[0].run_id / "release").is_dir()
        for run in cold.epochs[1:]:
            assert not (out / run.run_id / "release").exists()


class TestEpochZeroIdentity:
    def test_epoch_zero_run_id_is_the_single_shot_id(self, series_env):
        plain = ExperimentContext(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            WanConfig(rounds=ROUNDS),
        )
        assert series_env["cold"].epochs[0].run_id == run_identifier(
            plain, SPEC_IDS
        )

    def test_epoch_zero_keys_match_plain_context(self):
        config = WorldConfig(seed=SEED, num_domains=DOMAINS)
        wan = WanConfig(rounds=ROUNDS)
        plain = ExperimentContext(config, wan)
        zero = ExperimentContext(
            config, wan,
            epoch=Epoch(resolve_epoch_plan(PLAN), 0, config),
        )
        one = ExperimentContext(
            config, wan,
            epoch=Epoch(resolve_epoch_plan(PLAN), 1, config),
        )
        for kind in ("dataset", "capture", "wan"):
            assert zero._key(kind) == plain._key(kind)
        # A later epoch re-keys exactly the kinds its steps touched.
        assert one._key("dataset") != plain._key("dataset")
        assert one._key("capture") != plain._key("capture")
        assert one._key("wan") == plain._key("wan")

    def test_epoch_zero_manifest_has_no_epoch_block(self, series_env):
        cold = series_env["cold"]
        assert "epoch" not in cold.epochs[0].manifest.config
        assert cold.epochs[1].manifest.config["epoch"] == {
            "plan": PLAN, "index": 1,
        }


class TestIncrementalReuse:
    def test_cold_epochs_reuse_untouched_kinds(self, series_env):
        cold = series_env["cold"]
        assert _delta(cold, 0)["hits"] == 0
        for index in (1, 2):
            # The WAN matrices hit (no step affects them); the dataset
            # and the capture are never cached.
            assert _delta(cold, index) == {
                "hits": 1, "misses": 0, "stores": 0, "invalid": 0,
            }

    def test_warm_resume_is_all_hits(self, series_env):
        warm = series_env["warm"]
        for index in range(EPOCHS):
            assert _delta(warm, index) == {
                "hits": 1, "misses": 0, "stores": 0, "invalid": 0,
            }

    def test_warm_hits_reported_through_obs_counters(self, series_env):
        counters = (
            series_env["warm_obs"].metrics.volatile_snapshot()
            .get("counters", {})
        )
        total_hits = sum(
            value for name, value in counters.items()
            if name.startswith("artifact_cache_hits_total")
        )
        assert total_hits == EPOCHS
        per_epoch = {
            name: value for name, value in counters.items()
            if name.startswith("epoch_artifact_hits_total")
        }
        assert len(per_epoch) == EPOCHS
        assert all(value == 1 for value in per_epoch.values())
        assert not any(
            name.startswith("epoch_artifact_misses_total")
            for name in counters
        )

    def test_fidelity_scores_epoch_zero_only(self, series_env):
        cold = series_env["cold"]
        zero_verdicts = {
            v.verdict
            for result in cold.epochs[0].results
            for v in result.fidelity.verdicts
        }
        assert "exempt" not in zero_verdicts
        for run in cold.epochs[1:]:
            for result in run.results:
                assert result.fidelity.exempt
                assert all(
                    v.verdict == "exempt"
                    for v in result.fidelity.verdicts
                )


class TestByteIdentity:
    def _series_bytes(self, series_env, out_name, result):
        out = series_env["root"] / out_name
        files = {"series.json": None, "trends.txt": None}
        for name in files:
            files[name] = (out / result.series_id / name).read_bytes()
        for run in result.epochs:
            files[f"{run.run_id}/manifest.json"] = (
                out / run.run_id / "manifest.json"
            ).read_bytes()
        return files

    def test_cold_and_warm_series_are_byte_identical(self, series_env):
        cold = self._series_bytes(series_env, "cold", series_env["cold"])
        warm = self._series_bytes(series_env, "warm", series_env["warm"])
        assert cold == warm

    @pytest.mark.skipif(
        not fork_pool_available(),
        reason="forked worker pools unavailable on this platform",
    )
    def test_workers_series_is_byte_identical(self, series_env, tmp_path):
        sharded, _, _ = _run(tmp_path, "sharded", workers=2)
        assert sharded.series_id == series_env["cold"].series_id
        cold = self._series_bytes(series_env, "cold", series_env["cold"])
        other_root = {"root": tmp_path}
        other = self._series_bytes(other_root, "sharded", sharded)
        assert cold == other


def test_wan_matrices_invariant_across_epochs():
    """The ground truth behind the every-epoch WAN cache hit: an
    evolved world answers the WAN campaign identically (paths key on
    (provider, region); no step draws from the WAN streams)."""
    plan = resolve_epoch_plan(PLAN)
    config = WorldConfig(seed=11, num_domains=250)
    first = WanAnalysis(
        Epoch(plan, 0, config).build_world(), WanConfig(rounds=2)
    )
    second = WanAnalysis(
        Epoch(plan, 1, config).build_world(), WanConfig(rounds=2)
    )
    first._measure()
    second._measure()
    assert first._latency == second._latency
    assert first._throughput == second._throughput
