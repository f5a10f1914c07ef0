"""The chunked, constant-memory dataset build must be bit-identical to
the batch build — records, NS addresses, rotation counters, resolver
query counts, traffic domains, and the downstream capture — across
worker counts and chunk sizes, while actually releasing tenant state.
Also covers the conditions a deferred world builds under: forkable
ones (outage drills, live event sinks) release tenants, the in-process
ones (partial range coverage, no fork) deploy everything first, and
both match the batch world."""

import os

import pytest

from repro import flags
from repro.analysis import dataset as dataset_module
from repro.analysis.dataset import DatasetBuilder
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
    previous = flags.set_chunk_size(chunk)
    try:
        world = World(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            defer_tenants=True,
        )
        dataset = DatasetBuilder(world).build(workers)
    finally:
        flags.set_chunk_size(previous)
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
        # Restricted, but every kept entry matches the batch map and
        # every domain an analysis can join on is present.
        for domain, subs in dataset.discovered.items():
            assert batch_dataset.discovered.get(domain) == subs
        needed = {r.domain for r in dataset.records}
        needed.update(r.domain for r in dataset.cloudfront_records)
        needed.update(dataset.other_cdn_subdomains)
        assert needed <= set(dataset.discovered)

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
        # traffic stream must be consumed exactly once per world.
        batch_world = World(WorldConfig(seed=SEED, num_domains=DOMAINS))
        DatasetBuilder(batch_world).build(0)
        batch_summary = batch_world.capture_summary()
        world, _ = _chunked_build(2, 80)
        summary = world.capture_summary()
        assert (len(summary), summary.total_bytes()) == (
            len(batch_summary), batch_summary.total_bytes()
        )
        assert summary.cloud_shares() == batch_summary.cloud_shares()
        assert (
            summary.domains.items() == batch_summary.domains.items()
        )


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
    previous = flags.set_chunk_size(chunk)
    try:
        world = World(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            defer_tenants=deferred,
        )
        dataset = DatasetBuilder(world, obs=obs, **builder_kwargs).build(
            workers
        )
    finally:
        flags.set_chunk_size(previous)
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


class TestChunkSizeFlag:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flags.set_chunk_size(0)

    def test_override_and_default(self):
        previous = flags.set_chunk_size(123)
        try:
            assert flags.streaming_chunk_size() == 123
        finally:
            flags.set_chunk_size(previous)
        assert flags.streaming_chunk_size() == flags.DEFAULT_CHUNK_SIZE
