"""Integration tests for the Alexa-subdomains dataset builder."""

import pytest

from repro.analysis.dataset import DatasetBuilder
from repro.world import World, WorldConfig


@pytest.fixture(scope="module")
def enumeration():
    """Every ranked domain's enumerated subdomains.  The dataset keeps
    only the domains an analysis joins on, so the enumeration
    properties are checked on the builder's first step, run on a
    fresh world (enumerating digs, and the session world is shared)."""
    world = World(WorldConfig(seed=7, num_domains=1500))
    discovered, _ = DatasetBuilder(world).discover_subdomains()
    return world, discovered


class TestDatasetBuild:
    def test_records_have_addresses(self, dataset):
        assert len(dataset) > 0
        for record in dataset.records:
            assert record.addresses
            assert record.lookups > 0

    def test_every_record_is_cloud_using(self, world, dataset):
        ec2 = world.ec2.published_range_set()
        azure = world.azure.published_range_set()
        for record in dataset.records:
            assert any(
                a in ec2 or a in azure for a in record.addresses
            )

    def test_records_belong_to_their_domains(self, dataset):
        for record in dataset.records:
            assert record.fqdn.endswith("." + record.domain)

    def test_by_domain_index_consistent(self, dataset):
        total = sum(len(v) for v in dataset.by_domain.values())
        assert total == len(dataset.records)

    def test_by_fqdn_index(self, dataset):
        record = dataset.records[0]
        assert dataset.by_fqdn[record.fqdn] is record

    def test_ranks_match_alexa(self, world, dataset):
        for record in dataset.records[:100]:
            assert record.rank == world.alexa.rank_of(record.domain)

    def test_discovery_covers_all_domains(self, enumeration):
        world, discovered = enumeration
        assert list(discovered) == world.alexa.domains()

    def test_discovery_is_lower_bound(self, enumeration):
        # AXFR-refusing domains with hidden labels must not be fully
        # discovered; verify at least one hidden label escaped.
        world, found = enumeration
        missed = 0
        for plan in world.plans:
            if plan.axfr_allowed:
                continue
            discovered = set(found[plan.domain])
            actual = {s.fqdn for s in plan.subdomains}
            missed += len(actual - discovered)
        assert missed > 0

    def test_axfr_domains_fully_discovered(self, enumeration):
        world, found = enumeration
        for plan in world.plans:
            if not plan.axfr_allowed:
                continue
            discovered = set(found[plan.domain])
            for sub in plan.subdomains:
                assert sub.fqdn in discovered

    def test_ns_survey_resolves_most_servers(self, dataset):
        assert dataset.ns_addresses
        resolved = [
            a for a in dataset.ns_addresses.values() if a is not None
        ]
        assert len(resolved) / len(dataset.ns_addresses) > 0.9

    def test_cloudfront_records_separate(self, world, dataset):
        cf = world.cloudfront.published_range_set()
        for record in dataset.cloudfront_records:
            assert any(a in cf for a in record.addresses)
        cloud_fqdns = {r.fqdn for r in dataset.records}
        cf_fqdns = {r.fqdn for r in dataset.cloudfront_records}
        assert not cloud_fqdns & cf_fqdns

    def test_cloudfront_records_excluded_from_indexes(self, dataset):
        # The CloudFront side channel must never leak into the joins
        # the EC2/Azure analyses run on.
        assert dataset.cloudfront_records
        for record in dataset.cloudfront_records:
            assert dataset.by_fqdn.get(record.fqdn) is not record
            assert record not in dataset.by_domain.get(record.domain, [])

    def test_multi_vantage_collects_tm_regions(self, world, dataset):
        # Traffic Manager subdomains answer per-vantage; the dataset's
        # distributed lookups should therefore surface more than one
        # address for at least some of them.
        tm_records = [
            r for r in dataset.records
            if r.cname_contains("trafficmanager.net")
        ]
        if tm_records:
            assert any(len(r.addresses) > 1 for r in tm_records)


class TestRangeCoverage:
    def test_zero_coverage_rejected(self, world):
        with pytest.raises(ValueError):
            DatasetBuilder(world, range_coverage=0.0)

    def test_above_one_rejected(self, world):
        with pytest.raises(ValueError):
            DatasetBuilder(world, range_coverage=1.0001)

    def test_negative_rejected(self, world):
        with pytest.raises(ValueError):
            DatasetBuilder(world, range_coverage=-0.5)

    def test_tiny_coverage_keeps_at_least_one_block(self, world):
        # ``int(len * coverage)`` would round down to zero blocks — the
        # builder must clamp to one so classification stays defined.
        builder = DatasetBuilder(world, range_coverage=1e-9)
        assert len(builder._cloud_membership) >= 1

    def test_partial_coverage_is_a_subset(self):
        # Fresh worlds: building twice on one world would advance its
        # rotation counters between the two runs.
        config = WorldConfig(seed=21, num_domains=200)
        full = {
            r.fqdn for r in DatasetBuilder(World(config)).build().records
        }
        partial = {
            r.fqdn
            for r in DatasetBuilder(
                World(config), range_coverage=0.5
            ).build().records
        }
        assert partial <= full
        assert len(partial) < len(full)


class TestSmallWorlds:
    def test_single_dns_vantage_builds(self):
        world = World(
            WorldConfig(seed=21, num_domains=120, num_dns_vantages=1)
        )
        dataset = DatasetBuilder(world).build()
        assert len(dataset) > 0
        for record in dataset.records:
            # One vantage means one lookup per fqdn — no distributed
            # disagreement is possible.
            assert record.lookups == 1

    def test_fewer_vantages_than_survey_slots(self):
        # The NS survey asks for up to 10 survey vantages; worlds with
        # fewer must still complete it.
        world = World(
            WorldConfig(seed=21, num_domains=120, num_dns_vantages=3)
        )
        dataset = DatasetBuilder(world).build()
        assert dataset.ns_addresses
