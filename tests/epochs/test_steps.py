"""Unit tests for the composable epoch steps."""

import pytest

from repro.dns.records import RRType
from repro.dns.resolver import StubResolver
from repro.epochs.steps import (
    AFFECT_KINDS,
    STEP_TYPES,
    CloudAdoption,
    DualProviderAdoption,
    MigrationToAzure,
    MigrationToEc2,
    RegionExpansion,
    TenantChurn,
)
from repro.sim import derive_rng
from repro.world import World, WorldConfig

SEED = 29


@pytest.fixture()
def world():
    return World(WorldConfig(seed=SEED, num_domains=800))


def _rng(*labels):
    return derive_rng(SEED, "epoch", *labels)


class TestStepContract:
    def test_every_step_declares_identity_and_affects(self):
        names = set()
        for step_type in STEP_TYPES:
            step = step_type(count=3)
            assert step.name and step.name not in names
            names.add(step.name)
            assert step.affects
            assert step.affects <= set(AFFECT_KINDS)

    def test_no_bundled_step_touches_wan(self):
        # WAN paths key on (provider, region) and the default probe
        # policy never draws instance-keyed lanes, so no step
        # invalidates the WAN matrices — the basis of the series
        # runner's every-epoch WAN cache hit.
        for step_type in STEP_TYPES:
            assert "wan" not in step_type(count=1).affects

    def test_spec_is_canonical_and_count_sensitive(self):
        assert CloudAdoption(count=3).spec() == CloudAdoption(count=3).spec()
        assert CloudAdoption(count=3).spec() != CloudAdoption(count=4).spec()
        assert (
            CloudAdoption(count=3).spec()
            != RegionExpansion(count=3).spec()
        )

    def test_steps_are_frozen_values(self):
        step = CloudAdoption(count=2)
        with pytest.raises(AttributeError):
            step.count = 5


class TestApply:
    def test_cloud_adoption_records_full_diff(self, world):
        before = sum(1 for p in world.plans if p.is_cloud_using)
        diff = CloudAdoption(count=6).apply(world, _rng("1", "0", "adopt"))
        after = sum(1 for p in world.plans if p.is_cloud_using)
        assert diff.changed
        assert diff.step == "cloud-adoption"
        assert len(diff.domains) == 6
        assert len(diff.subdomains) == 6
        assert diff.instances_launched == 6
        assert after == before + 6
        assert diff.regions  # sorted, deduplicated
        assert list(diff.regions) == sorted(set(diff.regions))

    def test_apply_is_deterministic_across_worlds(self):
        diffs = []
        for _ in range(2):
            world = World(WorldConfig(seed=SEED, num_domains=500))
            diff = CloudAdoption(count=5).apply(world, _rng("1", "0", "x"))
            diffs.append(diff.as_dict())
        assert diffs[0] == diffs[1]

    def test_migration_to_azure_rehomes_records(self, world):
        diff = MigrationToAzure(count=3).apply(world, _rng("1", "1", "az"))
        assert len(diff.subdomains) == 3
        azure = world.azure.published_range_set()
        moved = [
            s for p in world.plans for s in p.cloud_subdomains()
            if s.fqdn in diff.subdomains
        ]
        assert len(moved) == 3
        for sub in moved:
            assert sub.provider == "azure"
            assert sub.frontend == "cs_direct"
        for domain, fqdn in zip(diff.domains, diff.subdomains):
            zone = world.dns.get_zone(domain)
            answers = [r.value for r in zone.lookup(fqdn, RRType.A)]
            assert answers
            assert all(a in azure for a in answers)

    def test_dual_provider_accretes_second_answer(self, world):
        diff = DualProviderAdoption(count=3).apply(
            world, _rng("1", "2", "dual")
        )
        assert len(diff.subdomains) == 3
        azure = world.azure.published_range_set()
        ec2 = world.ec2.published_range_set()
        for domain, fqdn in zip(diff.domains, diff.subdomains):
            zone = world.dns.get_zone(domain)
            answers = [r.value for r in zone.lookup(fqdn, RRType.A)]
            # The EC2 answer stays; an Azure answer joins it.
            assert any(a in ec2 for a in answers)
            assert any(a in azure for a in answers)

    def test_tenant_churn_reverts_plans(self, world):
        diff = TenantChurn(count=4).apply(world, _rng("1", "3", "churn"))
        assert len(diff.tenants) == 4
        assert diff.instances_launched == 0
        churned = [
            p for p in world.plans if p.domain in diff.domains
        ]
        assert len(churned) == 4
        for plan in churned:
            assert not plan.is_cloud_using
            assert plan.category == "none"
            assert not list(plan.cloud_subdomains())
        # The withdrawn names no longer resolve out of the zone.
        for plan in churned:
            zone = world.dns.get_zone(plan.domain)
            for fqdn in diff.subdomains:
                if fqdn.endswith("." + plan.domain):
                    assert not zone.lookup(fqdn, RRType.A)

    def test_adopted_subdomains_resolve_into_ec2(self, world):
        diff = CloudAdoption(count=5).apply(world, _rng("1", "0", "adopt"))
        assert len(diff.subdomains) == 5
        resolver = StubResolver(world.dns)
        ec2 = world.ec2.published_range_set()
        for fqdn in diff.subdomains:
            response = resolver.dig(fqdn)
            assert any(a in ec2 for a in response.addresses)

    def test_expanded_front_end_gets_a_second_region(self, world):
        diff = RegionExpansion(count=5).apply(
            world, _rng("1", "1", "expand")
        )
        assert len(diff.subdomains) == 5
        expanded = [
            s for p in world.plans for s in p.cloud_subdomains()
            if s.fqdn in diff.subdomains
        ]
        assert len(expanded) == 5
        for sub in expanded:
            assert sub.frontend == "vm"
            assert len(sub.regions) == 2
            assert sub.regions[0] != sub.regions[1]

    def test_migrated_subdomains_stop_answering_from_azure(self, world):
        diff = MigrationToEc2(count=2).apply(
            world, _rng("1", "2", "migrate")
        )
        assert len(diff.subdomains) == 2
        resolver = StubResolver(world.dns)
        azure = world.azure.published_range_set()
        ec2 = world.ec2.published_range_set()
        for fqdn in diff.subdomains:
            response = resolver.dig(fqdn, fresh=True)
            assert response.addresses
            assert all(a not in azure for a in response.addresses)
            assert all(a in ec2 for a in response.addresses)

    def test_migration_to_ec2_count_clamps_to_candidates(self):
        world = World(WorldConfig(seed=11, num_domains=200))
        available = sum(
            1 for p in world.plans for s in p.cloud_subdomains()
            if s.provider == "azure"
            and s.frontend in ("cs_direct", "cs_cname")
        )
        diff = MigrationToEc2(count=10_000).apply(
            world, _rng("1", "0", "clamp")
        )
        assert len(diff.subdomains) == available
