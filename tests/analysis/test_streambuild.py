"""The chunked, constant-memory dataset build must be bit-identical to
the batch build — records, NS addresses, rotation counters, resolver
query counts, traffic domains, and the downstream capture — across
worker counts and chunk sizes, while actually releasing tenant state.
Also covers the conditions a deferred world builds under: forkable
ones (outage drills, live event sinks) release tenants, the in-process
ones (partial range coverage, no fork) deploy everything first, and
both match the batch world.  Last, the same parity through
``ExperimentContext(defer_tenants=True)``, which shares an artifact
store with a batch context and refuses the epoch a deferred world
cannot serve."""

import os

import pytest

from repro.analysis import dataset as dataset_module
from repro.analysis import shards
from repro.analysis.dataset import DatasetBuilder
from repro.analysis.wan import WanConfig
from repro.artifacts import ArtifactStore
from repro.columnar.tables import _COLUMN_DTYPES, _POOL_NAMES
from repro.epochs import Epoch, resolve_epoch_plan
from repro.experiments.context import ExperimentContext
from repro.faults.scenarios import OutageScenario
from repro.obs import Observability
from repro.world import World, WorldConfig

SEED = 7
DOMAINS = 400

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chunk workers need os.fork"
)


def _record_key(record):
    return (
        record.fqdn, record.domain, record.rank,
        tuple(sorted(a.value for a in record.addresses)),
        tuple(sorted(record.cnames)),
        tuple(sorted(record.ns_names)),
        record.lookups,
    )


def _dataset_view(dataset):
    return {
        "records": [_record_key(r) for r in dataset.records],
        "cloudfront": [_record_key(r) for r in dataset.cloudfront_records],
        "ns": {
            name: (address.value if address is not None else None)
            for name, address in dataset.ns_addresses.items()
        },
        "total": dataset.total_discovered_subdomains,
        "other_cdn": dataset.other_cdn_subdomains,
    }


def _chunked_build(workers, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "CHUNK_SIZE", chunk)
        world = World(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            defer_tenants=True,
        )
        dataset = DatasetBuilder(world).build(workers)
    return world, dataset


@pytest.fixture(scope="module")
def batch():
    world = World(WorldConfig(seed=SEED, num_domains=DOMAINS))
    dataset = DatasetBuilder(world).build(0)
    return world, dataset


@pytest.fixture(
    scope="module",
    params=[(1, 80), (2, 80), (2, 73)],  # 73: chunk does not divide 400
    ids=["w1-c80", "w2-c80", "w2-c73-nondivisor"],
)
def chunked(request):
    if not hasattr(os, "fork"):
        pytest.skip("chunk workers need os.fork")
    workers, chunk = request.param
    return _chunked_build(workers, chunk)


@needs_fork
class TestChunkedEqualsBatch:

    def test_dataset_identical(self, batch, chunked):
        _, batch_dataset = batch
        _, dataset = chunked
        assert _dataset_view(dataset) == _dataset_view(batch_dataset)

    def test_discovered_restriction_is_consistent(self, batch, chunked):
        _, batch_dataset = batch
        _, dataset = chunked
        # Every build trims the map the same way, in rank order, to
        # the domains an analysis can join on.
        assert list(dataset.discovered.items()) == list(
            batch_dataset.discovered.items()
        )
        needed = {r.domain for r in dataset.records}
        needed.update(r.domain for r in dataset.cloudfront_records)
        needed.update(dataset.other_cdn_subdomains)
        assert needed == set(dataset.discovered)

    def test_world_state_identical(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        assert (
            world.dns.dynamic_query_counts()
            == batch_world.dns.dynamic_query_counts()
        )
        assert {
            name: r.query_count for name, r in world._resolvers.items()
        } == {
            name: r.query_count
            for name, r in batch_world._resolvers.items()
        }
        batch_describe = batch_world.describe()
        describe = world.describe()
        for key, value in batch_describe.items():
            if key == "dns_zones":  # released tenants, by design
                continue
            assert describe.get(key) == value, key

    def test_traffic_domains_identical(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        # The batch world records traffic lazily — consume its stream
        # once here; the chunked world recorded during release.
        if not hasattr(batch_world, "_pinned_traffic"):
            batch_world._pinned_traffic = batch_world.traffic_domains()
        assert world.traffic_domains() == batch_world._pinned_traffic

    def test_tenant_state_released(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        assert len(world.dns.zones()) < len(batch_world.dns.zones()) / 2
        assert not world.deployer.deployed


@needs_fork
class TestChunkedCapture:
    def test_capture_matches_batch_world(self):
        # Fresh worlds: capture parity needs the dataset built first on
        # both sides (the sequential pipeline order), and the batch
        # traffic stream must be consumed exactly once per world.  The
        # chunked world has released its tenants, so its capture digs
        # the zones it kept.
        batch_world = World(WorldConfig(seed=SEED, num_domains=DOMAINS))
        DatasetBuilder(batch_world).build(0)
        batch_table = batch_world.capture_trace().flow_table()
        world, _ = _chunked_build(2, 80)
        assert not world.deployer.deployed
        table = world.capture_trace().flow_table()
        assert len(table) == len(batch_table) > 0
        for name, _ in _COLUMN_DTYPES:
            column, batch_column = (
                getattr(table, name), getattr(batch_table, name)
            )
            assert column.dtype == batch_column.dtype, name
            assert column.tolist() == batch_column.tolist(), name
        for name in _POOL_NAMES:
            assert getattr(table, name) == getattr(batch_table, name), name
        # The capture's DNS side effects: shared-rotation counters and
        # every resolver's query count.
        assert (
            world.dns.dynamic_query_counts()
            == batch_world.dns.dynamic_query_counts()
        )
        assert {
            name: r.query_count for name, r in world._resolvers.items()
        } == {
            name: r.query_count
            for name, r in batch_world._resolvers.items()
        }


#: Build conditions a deferred world must hold batch parity under, and
#: whether the build forks (and so releases tenants) under each.
CONDITIONS = {
    "scenario": True,
    "sink": True,
    "range-0.5": False,
    "no-fork": False,
}


def _condition_build(condition, deferred, workers, chunk):
    obs = Observability.collecting(events=condition == "sink")
    builder_kwargs = {}
    if condition == "scenario":
        builder_kwargs["scenario"] = OutageScenario(name="drill")
    elif condition == "range-0.5":
        builder_kwargs["range_coverage"] = 0.5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "CHUNK_SIZE", chunk)
        world = World(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            defer_tenants=deferred,
        )
        dataset = DatasetBuilder(world, obs=obs, **builder_kwargs).build(
            workers
        )
    view = {
        "dataset": _dataset_view(dataset),
        "counters": world.dns.dynamic_query_counts(),
        "queries": {
            name: r.query_count for name, r in world._resolvers.items()
        },
        "metrics": obs.metrics.deterministic_snapshot(),
        "traffic": world.traffic_domains(),
        "events": obs.events.to_ndjson(),
    }
    return world, view


class TestDeferredBuildConditions:
    @pytest.mark.parametrize(
        "workers,chunk", [(0, 80), (2, 73)], ids=["w0", "w2"]
    )
    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_matches_batch(self, monkeypatch, condition, workers, chunk):
        forks = CONDITIONS[condition]
        if forks and not hasattr(os, "fork"):
            pytest.skip("chunk workers need os.fork")
        if condition == "no-fork":
            monkeypatch.setattr(
                dataset_module, "fork_pool_available", lambda: False
            )
        _, batch_view = _condition_build(condition, False, workers, chunk)
        world, view = _condition_build(condition, True, workers, chunk)
        assert not world.pending_tenants
        assert (not world.deployer.deployed) == forks
        assert view == batch_view
        if condition == "sink":
            assert view["events"]


class TestDeferredWorldGuards:
    def test_traffic_requires_finalized_world(self):
        world = World(
            WorldConfig(seed=SEED, num_domains=150), defer_tenants=True
        )
        window = world.ensure_deployed_through(150)
        assert len(window) == 150
        world.release_window()
        with pytest.raises(RuntimeError):
            world.traffic_domains()
        with pytest.raises(RuntimeError):
            # A released window cannot be rebuilt in process.
            DatasetBuilder(world, range_coverage=0.5).build(0)
        world.finalize_tenants()
        assert world.traffic_domains() == world.traffic_domains()

    def test_released_world_cannot_be_measured_again(self):
        world = World(
            WorldConfig(seed=SEED, num_domains=150), defer_tenants=True
        )
        world.ensure_deployed_through(150)
        world.release_window()
        world.finalize_tenants()
        # Its released zones are gone: a second build would be wrong.
        for workers in (0, 2):
            with pytest.raises(RuntimeError):
                DatasetBuilder(world).build(workers)

    def test_finalized_world_rejects_more_deploys(self):
        world = World(WorldConfig(seed=SEED, num_domains=150))
        with pytest.raises(RuntimeError):
            world.ensure_deployed_through(10)


def _flow_columns(table):
    columns = {
        name: (getattr(table, name).dtype, getattr(table, name).tolist())
        for name, _ in _COLUMN_DTYPES
    }
    columns.update((name, getattr(table, name)) for name in _POOL_NAMES)
    return columns


def _context_view(context):
    """Every product the six bench digests cover, in bench order: the
    dataset, both WAN matrices, the capture, then the traceroute
    sweep."""
    dataset = context.dataset
    wan = context.wan
    wan._measure()
    table = context.trace.flow_table()
    return {
        "records": [_record_key(r) for r in dataset.records],
        "ns": _dataset_view(dataset)["ns"],
        "latency": sorted(wan._latency.items()),
        "throughput": sorted(wan._throughput.items()),
        "flows": _flow_columns(table),
        "isp": wan.isp_diversity(),
    }


def _context(deferred, workers, store=None):
    return ExperimentContext(
        WorldConfig(seed=SEED, num_domains=DOMAINS),
        WanConfig(rounds=2, workers=workers), workers=workers,
        artifact_store=store, defer_tenants=deferred,
    )


@pytest.fixture(scope="module")
def batch_context_view():
    return _context_view(_context(False, 0))


class TestDeferredContext:
    @pytest.mark.parametrize(
        "workers,chunk", [(0, 80), (2, 73)], ids=["w0-c80", "w2-c73"]
    )
    def test_matches_batch_context(
        self, monkeypatch, batch_context_view, workers, chunk
    ):
        if not hasattr(os, "fork"):
            pytest.skip("chunk workers need os.fork")
        monkeypatch.setattr(shards, "CHUNK_SIZE", chunk)
        context = _context(True, workers)
        view = _context_view(context)
        assert not context.world.deployer.deployed
        assert len(view["flows"]["dst_value"][1]) > 0
        assert view == batch_context_view

    def test_world_comes_with_its_dataset(self, monkeypatch):
        # A deferred world has no tenants until its dataset build, so
        # the context never hands it out without one.
        monkeypatch.setattr(shards, "CHUNK_SIZE", 80)
        context = ExperimentContext(
            WorldConfig(seed=SEED, num_domains=150), defer_tenants=True
        )
        world = context.world
        assert not world.pending_tenants
        assert context._dataset is not None
        assert context.dataset is context._dataset
        assert world.traffic_domains()

    def test_shares_an_artifact_store_across_modes(
        self, monkeypatch, tmp_path, batch_context_view
    ):
        # Both modes measure the same WAN matrices, so a store either
        # one fills serves the other warm: nothing missed, nothing
        # changed.
        if not hasattr(os, "fork"):
            pytest.skip("chunk workers need os.fork")
        monkeypatch.setattr(shards, "CHUNK_SIZE", 80)
        for cold_deferred in (False, True):
            root = tmp_path / ("deferred" if cold_deferred else "batch")
            cold = _context(cold_deferred, 0, ArtifactStore(root))
            assert _context_view(cold) == batch_context_view
            store = ArtifactStore(root)
            warm = _context(not cold_deferred, 0, store)
            assert _context_view(warm) == batch_context_view
            assert store.stats.misses == 0 and store.stats.hits == 1

    def test_wan_hit_before_the_world_replays_after_its_dataset(
        self, monkeypatch, tmp_path
    ):
        # A cold campaign gets a deferred world only once its dataset
        # build is done, so a hit served before the world exists must
        # replay the campaign's side effects after that build too.
        if not hasattr(os, "fork"):
            pytest.skip("chunk workers need os.fork")
        monkeypatch.setattr(shards, "CHUNK_SIZE", 80)

        def wan_first_view(store):
            context = _context(True, 0, store)
            context.wan._measure()
            world = context.world
            return (
                world.latency._jitter_rng.getstate(),
                len(world.ec2.all_instances()),
                _context_view(context),
            )

        cold = wan_first_view(ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        assert wan_first_view(store) == cold
        assert store.stats.hits == 1

    def test_refuses_an_epoch(self):
        config = WorldConfig(seed=SEED, num_domains=150)
        epoch = Epoch(resolve_epoch_plan("steady-growth"), 1, config)
        with pytest.raises(ValueError, match="epoch"):
            ExperimentContext(config, epoch=epoch, defer_tenants=True)
