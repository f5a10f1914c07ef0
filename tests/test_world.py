"""World assembly tests: determinism, scaling, wiring, and the
capture's traffic domains."""

import os

import pytest

from repro.analysis.dataset import DatasetBuilder
from repro.epochs import Epoch, resolve_epoch_plan
from repro.world import World, WorldConfig


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = World(WorldConfig(seed=3, num_domains=300))
        b = World(WorldConfig(seed=3, num_domains=300))
        assert a.alexa.domains() == b.alexa.domains()
        assert len(a.ec2.instances) == len(b.ec2.instances)
        a_subs = [
            s.fqdn for p in a.plans for s in p.subdomains
        ]
        b_subs = [
            s.fqdn for p in b.plans for s in p.subdomains
        ]
        assert a_subs == b_subs

    def test_different_seeds_differ(self):
        a = World(WorldConfig(seed=3, num_domains=300))
        b = World(WorldConfig(seed=4, num_domains=300))
        assert a.alexa.domains() != b.alexa.domains()


class TestConfigValidation:
    def test_rejects_zero_domains(self):
        with pytest.raises(ValueError):
            WorldConfig(num_domains=0)

    def test_rejects_zero_vantages(self):
        with pytest.raises(ValueError):
            WorldConfig(num_dns_vantages=0)

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            WorldConfig(capture_visibility=1.5)


class TestScaling:
    def test_larger_world_has_more_of_everything(self):
        small = World(WorldConfig(seed=5, num_domains=200))
        large = World(WorldConfig(seed=5, num_domains=800))
        assert len(large.plans) > len(small.plans)
        assert len(large.ec2.instances) > len(small.ec2.instances)


class TestWiring:
    def test_published_ranges_cover_three_providers(self, world):
        ranges = world.published_ranges()
        assert set(ranges) == {"ec2", "azure", "cloudfront"}

    def test_resolver_per_vantage_cached(self, world):
        vantage = world.dns_vantages()[0]
        assert world.resolver_for(vantage) is world.resolver_for(vantage)

    def test_plan_lookup(self, world):
        plan = world.plans[0]
        assert world.plan_for(plan.domain) is plan
        assert world.plan_for("no-such-domain.test") is None

    def test_capture_trace_cached(self, world):
        assert world.capture_trace() is world.capture_trace()

    def test_traffic_domains_include_capture_notables(self, world):
        domains = {td.domain for td in world.traffic_domains()}
        assert "dropbox.com" in domains
        assert "atdmt.com" in domains

    def test_capture_only_plans_deployed(self, world):
        for plan in world.capture_only_plans[:20]:
            assert world.dns.get_zone(plan.domain) is not None

    def test_notables_planted(self, world):
        plan = world.plan_for("pinterest.com")
        assert plan is not None
        assert plan.notable is not None

    def test_describe_counts_consistent(self, world):
        info = world.describe()
        assert info["alexa_domains"] == world.config.num_domains
        assert 0 < info["cloud_using_domains"] < info["alexa_domains"]
        assert info["elb_physical"] <= info["ec2_instances"]
        assert info["dns_zones"] >= info["alexa_domains"]


def _traffic_world(kind):
    config = WorldConfig(seed=7, num_domains=400)
    if kind == "batch":
        return World(config)
    if kind == "epoch-1":
        epoch = Epoch(resolve_epoch_plan("steady-growth"), 1, config)
        return epoch.build_world()
    world = World(config, defer_tenants=True)
    if kind == "in-process-deferred":
        # Partial range coverage keeps the build in process.
        DatasetBuilder(world, range_coverage=0.5).build(0)
    else:
        if not hasattr(os, "fork"):
            pytest.skip("chunk workers need os.fork")
        DatasetBuilder(world).build(0)
        assert not world.deployer.deployed
    return world


class TestTrafficDomains:
    @pytest.mark.parametrize(
        "kind", ["batch", "in-process-deferred", "released", "epoch-1"]
    )
    def test_decided_once(self, kind):
        # Each world decides its traffic list once: repeated calls, and
        # calls after the capture that used it, return the same list.
        world = _traffic_world(kind)
        first = world.traffic_domains()
        assert first
        assert world.traffic_domains() == first
        world.capture_trace()
        assert world.traffic_domains() == first
