"""The content-addressed artifact cache: keys, store, and context use.

The cache may only ever be a pure accelerator: a warm hit has to hand
back exactly what a cold build would have produced, a key has to change
whenever the build inputs (configs or code) change, and anything
corrupt on disk has to be rejected, deleted, and rebuilt.
"""

import pickle

import pytest

from repro.analysis.wan import WanConfig
from repro.artifacts import (
    ArtifactStore,
    artifact_key,
    canonical,
    code_fingerprint,
)
from repro.columnar.tables import _COLUMN_DTYPES, _POOL_NAMES
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import RunManifest
from repro.experiments.registry import get_experiment
from repro.faults import resolve_scenario
from repro.obs import Observability, Tracer
from repro.world import WorldConfig


class TestCanonical:
    def test_dataclass_encoding_in_field_order(self):
        config = WanConfig(rounds=3)
        text = canonical(config)
        assert text.startswith("WanConfig(")
        assert "rounds=3" in text

    def test_dict_key_order_irrelevant(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_distinguishes_equal_but_distinct_primitives(self):
        # 1 == 1.0, but a world seeded with either is NOT the same
        # build; the repr fallback keeps them apart.
        assert canonical(1) != canonical(1.0)
        assert canonical("1") != canonical(1)

    def test_nested_structures(self):
        value = {"outer": [WanConfig(rounds=2), (1, 2)], "s": {3, 1}}
        assert canonical(value) == canonical(
            {"s": {1, 3}, "outer": [WanConfig(rounds=2), (1, 2)]}
        )


class TestArtifactKey:
    def test_stable_for_identical_inputs(self):
        a = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        b = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        assert a == b

    def test_config_change_changes_key(self):
        a = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        b = artifact_key("dataset", {"world": WorldConfig(seed=8)})
        assert a != b

    def test_kind_change_changes_key(self):
        components = {"world": WorldConfig(seed=7)}
        assert artifact_key("dataset", components) != artifact_key(
            "capture", components
        )

    def test_code_version_changes_key(self):
        components = {"world": WorldConfig(seed=7)}
        a = artifact_key("dataset", components, code="deadbeef")
        b = artifact_key("dataset", components, code="cafef00d")
        assert a != b
        # The default code argument is the real package fingerprint.
        assert artifact_key("dataset", components) == artifact_key(
            "dataset", components, code=code_fingerprint()
        )


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = {"rows": [1, 2, 3], "label": "x"}
        store.store("dataset", "k" * 64, artifact)
        loaded = store.load("dataset", "k" * 64)
        assert loaded == artifact
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 0, "stores": 1, "invalid": 0,
        }

    def test_absent_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("dataset", "absent") is None
        assert store.stats.misses == 1
        assert store.stats.invalid == 0

    def test_corrupt_payload_rejected_and_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("dataset", "key1", [1, 2, 3])
        raw = path.read_bytes()
        path.write_bytes(raw[:-2] + b"!!")  # flip payload bytes
        assert store.load("dataset", "key1") is None
        assert not path.exists()
        assert store.stats.invalid == 1
        assert store.stats.misses == 1

    def test_missing_header_rejected_and_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("dataset", "key2")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps([1, 2, 3]))  # headerless file
        assert store.load("dataset", "key2") is None
        assert not path.exists()
        assert store.stats.invalid == 1

    def test_rebuild_after_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("dataset", "key3", "original")
        path.write_bytes(b"garbage")
        assert store.load("dataset", "key3") is None
        store.store("dataset", "key3", "rebuilt")
        assert store.load("dataset", "key3") == "rebuilt"


TINY = WorldConfig(seed=21, num_domains=200)
WAN = WanConfig(rounds=3)


def _run_pipeline(context):
    dataset = context.dataset
    trace = context.trace
    wan = context.wan
    wan._measure()
    return (
        sorted((r.fqdn, tuple(sorted(str(a) for a in r.addresses)))
               for r in dataset.records),
        (len(trace.flows), sum(f.total_bytes for f in trace.flows)),
        sorted(wan._latency.items()),
        sorted(wan._throughput.items()),
    )


class TestContextCaching:
    # Only the WAN matrices are cached: theirs is the one hit that
    # skips a build (the §5 campaign).  The dataset and the capture
    # always build against the context's world.

    def test_cold_run_stores_only_the_wan_matrices(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _run_pipeline(ExperimentContext(TINY, WAN, artifact_store=store))
        assert [path.name for path in tmp_path.iterdir()] == ["wan"]
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 1, "stores": 1, "invalid": 0,
        }

    def test_warm_run_matches_cold_with_one_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = ExperimentContext(TINY, WAN, artifact_store=store)
        cold_out = _run_pipeline(cold)

        warm_store = ArtifactStore(tmp_path)
        warm = ExperimentContext(TINY, WAN, artifact_store=warm_store)
        warm_out = _run_pipeline(warm)
        assert warm_out == cold_out
        assert warm_store.stats.as_dict() == {
            "hits": 1, "misses": 0, "stores": 0, "invalid": 0,
        }

    def test_cached_outputs_match_uncached_pipeline(self, tmp_path):
        uncached = _run_pipeline(ExperimentContext(TINY, WAN))
        store = ArtifactStore(tmp_path)
        cached = _run_pipeline(
            ExperimentContext(TINY, WAN, artifact_store=store)
        )
        assert cached == uncached

    def test_worker_count_shares_wan_entries(self, tmp_path):
        # Parallel campaigns are bit-identical, so keys exclude worker
        # counts: a sequential run's matrices serve a parallel context,
        # which, reading only them, never builds a world.
        store = ArtifactStore(tmp_path)
        expected = _run_pipeline(
            ExperimentContext(TINY, WAN, artifact_store=store)
        )
        parallel_store = ArtifactStore(tmp_path)
        parallel = ExperimentContext(
            TINY,
            WanConfig(rounds=3, workers=2),
            workers=2,
            artifact_store=parallel_store,
        )
        parallel.wan._measure()
        assert sorted(parallel.wan._latency.items()) == expected[2]
        assert sorted(parallel.wan._throughput.items()) == expected[3]
        assert parallel_store.stats.misses == 0
        assert parallel._world is None

    def test_cache_hits_replay_world_side_effects(self, tmp_path):
        # The WAN campaign mutates the world (the fleet and the
        # jitter/noise stream draws).  A consumer that reads world
        # state directly after a hit served before the world existed
        # must see exactly the state a cold run's call sequence leaves.
        def world_state(ctx):
            ctx.wan.region_average("us-east-1")
            ctx.dataset
            world = ctx.world
            return (
                world.latency._jitter_rng.getstate(),
                world.throughput._noise_rng.getstate(),
                sorted(world.dns.dynamic_query_counts().items()),
                len(world.ec2.all_instances()),
            )

        store = ArtifactStore(tmp_path)
        cold = world_state(ExperimentContext(TINY, WAN, artifact_store=store))
        warm_store = ArtifactStore(tmp_path)
        warm_ctx = ExperimentContext(TINY, WAN, artifact_store=warm_store)
        warm = world_state(warm_ctx)
        assert warm_store.stats.hits == 1 and warm_store.stats.misses == 0
        assert warm == cold

    @pytest.mark.parametrize(
        "scenario", [None, "ec2.us-east-1-outage"],
        ids=["healthy", "outage"],
    )
    def test_manifest_bytes_hold_across_cache_states(
        self, tmp_path, scenario
    ):
        # A hit skips the campaign, so its deterministic counters
        # (probes, and under an outage retries, losses and blocked
        # probes) travel with the matrices, whether or not the run
        # that stored them collected metrics (an epoch series does
        # not).
        def manifest_bytes(store, name, obs=None):
            context = ExperimentContext(
                WorldConfig(seed=7, num_domains=400), WAN,
                artifact_store=store, obs=obs,
                scenario=(
                    resolve_scenario(scenario) if scenario else None
                ),
            )
            specs = [get_experiment(i) for i in ("table03", "figure09")]
            runs = [(spec, spec.run(context), 0.0) for spec in specs]
            manifest = RunManifest.from_run(context, runs)
            return manifest.write(tmp_path / name)["manifest"].read_bytes()

        uncached = manifest_bytes(None, "uncached")
        cold = manifest_bytes(ArtifactStore(tmp_path / "store"), "cold")
        warm_store = ArtifactStore(tmp_path / "store")
        warm = manifest_bytes(warm_store, "warm")
        manifest_bytes(
            ArtifactStore(tmp_path / "quiet"), "quiet",
            obs=Observability(tracer=Tracer()),
        )
        after_quiet = manifest_bytes(
            ArtifactStore(tmp_path / "quiet"), "after-quiet"
        )
        assert b'probes_total{kind=\\"tcp-ping\\"}' in uncached
        assert cold == uncached
        assert warm == uncached
        assert after_quiet == uncached
        assert warm_store.stats.hits == 1

    def test_config_change_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _run_pipeline(ExperimentContext(TINY, WAN, artifact_store=store))
        other_store = ArtifactStore(tmp_path)
        other = ExperimentContext(
            WorldConfig(seed=22, num_domains=200),
            WAN,
            artifact_store=other_store,
        )
        other.wan._measure()
        assert other_store.stats.hits == 0
        assert other_store.stats.misses == 1


class TestBuildOrder:
    @pytest.mark.parametrize(
        "deferred", [False, True], ids=["batch", "deferred"]
    )
    def test_trace_first_matches_dataset_first_without_a_store(
        self, deferred
    ):
        # The capture resolves its traffic domains through live DNS, so
        # it depends on the dataset build's side effects: the context
        # runs that build first whichever product is asked for first,
        # with or without a store, in either world mode.
        config = WorldConfig(seed=7, num_domains=400)
        dataset_first = ExperimentContext(
            config, WAN, defer_tenants=deferred
        )
        dataset_first.dataset
        expected = dataset_first.trace.flow_table()
        trace_first = ExperimentContext(config, WAN, defer_tenants=deferred)
        table = trace_first.trace.flow_table()
        assert len(table) == len(expected) > 0
        for name, _ in _COLUMN_DTYPES:
            column, reference = getattr(table, name), getattr(expected, name)
            assert column.dtype == reference.dtype, name
            assert column.tolist() == reference.tolist(), name
        for name in _POOL_NAMES:
            assert getattr(table, name) == getattr(expected, name), name
