"""Tests for the deployment-plan generator."""

import pytest

from repro.sim import StreamRegistry
from repro.workload.alexa import AlexaRanking
from repro.workload.mixtures import Mixtures
from repro.workload.notable import notable_by_domain
from repro.workload.plans import PlanGenerator


@pytest.fixture(scope="module")
def plans():
    streams = StreamRegistry(13)
    alexa = AlexaRanking(4000, streams.stream("alexa"))
    generator = PlanGenerator(Mixtures(), streams, alexa)
    return [generator.plan_site(site) for site in alexa], generator


class TestPopulation:
    def test_every_domain_planned(self, plans):
        plan_list, _ = plans
        assert len(plan_list) == 4000

    def test_cloud_rate_near_four_percent(self, plans):
        plan_list, _ = plans
        cloud = sum(1 for p in plan_list if p.is_cloud_using)
        assert 0.025 < cloud / len(plan_list) < 0.075

    def test_rank_skew(self, plans):
        plan_list, _ = plans
        top = sum(
            1 for p in plan_list
            if p.is_cloud_using and p.rank is not None and p.rank <= 1000
        )
        bottom = sum(
            1 for p in plan_list
            if p.is_cloud_using and p.rank is not None and p.rank > 3000
        )
        assert top > bottom

    def test_ec2_dominates(self, plans):
        plan_list, _ = plans
        ec2 = sum(
            1 for p in plan_list if p.category.startswith("ec2")
        )
        azure = sum(
            1 for p in plan_list if p.category.startswith("azure")
        )
        assert ec2 > 5 * azure


class TestSubdomainPlans:
    def test_cloud_subdomains_have_frontends(self, plans):
        plan_list, _ = plans
        for plan in plan_list:
            for sub in plan.cloud_subdomains():
                assert sub.frontend is not None
                assert sub.provider in ("ec2", "azure")
                assert sub.regions

    def test_single_region_frontends_respect_constraint(self, plans):
        plan_list, _ = plans
        for plan in plan_list:
            for sub in plan.cloud_subdomains():
                if sub.frontend in ("elb", "beanstalk", "heroku",
                                    "cs_cname"):
                    assert len(sub.regions) == 1

    def test_tm_subdomains_multi_region(self, plans):
        plan_list, _ = plans
        tm_subs = [
            sub for plan in plan_list
            for sub in plan.cloud_subdomains()
            if sub.frontend == "tm"
        ]
        for sub in tm_subs:
            assert len(sub.regions) >= 2

    def test_zone_indices_parallel_regions(self, plans):
        plan_list, _ = plans
        for plan in plan_list:
            for sub in plan.cloud_subdomains():
                assert len(sub.zone_indices) == len(sub.regions)

    def test_vm_counts_cover_zone_spread(self, plans):
        plan_list, _ = plans
        for plan in plan_list:
            for sub in plan.cloud_subdomains():
                if sub.frontend in ("vm", "other_cname"):
                    assert sub.n_vms >= max(
                        len(z) for z in sub.zone_indices
                    )

    def test_azure_subdomains_single_zone(self, plans):
        plan_list, _ = plans
        for plan in plan_list:
            for sub in plan.cloud_subdomains():
                if sub.provider == "azure":
                    assert all(z == (0,) for z in sub.zone_indices)

    def test_fqdns_belong_to_domain(self, plans):
        plan_list, _ = plans
        for plan in plan_list[:500]:
            for sub in plan.subdomains:
                assert sub.fqdn.endswith("." + plan.domain)


class TestNotablePlans:
    def test_notable_plan_matches_spec(self, plans):
        plan_list, _ = plans
        plan = next(p for p in plan_list if p.domain == "pinterest.com")
        spec = notable_by_domain("pinterest.com")
        assert len(plan.cloud_subdomains()) == spec.cloud_subdomains
        assert len(plan.subdomains) <= spec.total_subdomains

    def test_offlist_plan_is_cloud_using(self, plans):
        _, generator = plans
        plan = generator.plan_offlist_cloud_domain("offlist-test.net")
        assert plan.is_cloud_using
        assert plan.rank is None
        assert plan.cloud_subdomains()
