"""Unit and statistical tests for the calibration mixtures."""

import random

import pytest

from repro.workload.mixtures import Mixtures, PowerLawSampler, sample_discrete


class TestPowerLawSampler:
    def test_bounds(self):
        sampler = PowerLawSampler(alpha=1.5, n_max=100)
        rng = random.Random(1)
        for _ in range(1000):
            assert 1 <= sampler.sample(rng) <= 100

    def test_skew(self):
        sampler = PowerLawSampler(alpha=2.0, n_max=1000)
        rng = random.Random(2)
        samples = [sampler.sample(rng) for _ in range(5000)]
        assert samples.count(1) > samples.count(2) > samples.count(10)

    def test_mean_matches_analytic(self):
        sampler = PowerLawSampler(alpha=2.0, n_max=50)
        rng = random.Random(3)
        empirical = sum(sampler.sample(rng) for _ in range(30000)) / 30000
        assert empirical == pytest.approx(sampler.mean(), rel=0.05)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            PowerLawSampler(alpha=1.0, n_max=0)


class TestSampleDiscrete:
    def test_respects_weights(self):
        rng = random.Random(4)
        counts = {"a": 0, "b": 0}
        for _ in range(2000):
            counts[sample_discrete(rng, {"a": 0.9, "b": 0.1})] += 1
        assert counts["a"] > counts["b"] * 4


#: Every ``{key: weight}`` table a plan draw reads through the chooser.
CHOOSER_TABLES = (
    "domain_category", "ec2_frontend", "azure_frontend",
    "elb_physical_weights", "dns_hosting", "ns_count_weights",
    "ec2_region_weights", "azure_region_weights",
    "ec2_subdomain_region_count", "azure_subdomain_region_count",
    "zone_count_weights", "customer_country_weights",
)


class TestCompiledTables:
    @pytest.mark.parametrize("name", CHOOSER_TABLES)
    def test_chooser_draws_equal_sample_discrete(self, name):
        # The uncompiled draw over the same keys, stringified the way
        # the int-keyed tables used to be drawn.
        m = Mixtures()
        table = getattr(m, name)
        as_text = {str(k): v for k, v in table.items()}
        compiled, reference = random.Random(5), random.Random(5)
        chooser = m.chooser(name)
        for _ in range(500):
            key = chooser.choose(compiled)
            assert str(key) == sample_discrete(reference, as_text)
            assert type(key) is type(next(iter(table)))
        assert compiled.getstate() == reference.getstate()

    def test_chooser_recompiles_a_rebound_table(self):
        m = Mixtures()
        first = m.chooser("dns_hosting")
        assert m.chooser("dns_hosting") is first
        m.dns_hosting = {"route53": 1.0}
        assert m.chooser("dns_hosting").choose(random.Random(1)) == "route53"

    def test_sequence_tables_match_choices(self):
        m = Mixtures()
        compiled, reference = random.Random(9), random.Random(9)
        counts = list(range(1, len(m.frontend_vm_weights) + 1))
        for _ in range(300):
            assert m.sample_frontend_vms(compiled) == reference.choices(
                counts, weights=m.frontend_vm_weights, k=1
            )[0]
        zones = m.zone_weights["us-east-1"]
        for _ in range(300):
            assert m.pick_zones(compiled, "us-east-1", 1) == [
                reference.choices(range(len(zones)), weights=zones, k=1)[0]
            ]


class TestMixtures:
    def test_frontend_mixture_sums_to_one(self):
        m = Mixtures()
        assert sum(m.ec2_frontend.values()) == pytest.approx(1.0, abs=0.01)
        assert sum(m.azure_frontend.values()) == pytest.approx(1.0, abs=0.01)

    def test_zone_weights_cover_all_ec2_regions(self):
        from repro.cloud.ec2 import EC2_REGION_SPECS
        m = Mixtures()
        for spec in EC2_REGION_SPECS:
            weights = m.zone_weights[spec.name]
            assert len(weights) == spec.num_zones

    def test_pick_zones_distinct_and_bounded(self):
        m = Mixtures()
        rng = random.Random(5)
        for _ in range(100):
            zones = m.pick_zones(rng, "us-east-1", 2)
            assert len(zones) == 2
            assert len(set(zones)) == 2
            assert all(0 <= z <= 2 for z in zones)

    def test_pick_zones_caps_at_region_size(self):
        m = Mixtures()
        rng = random.Random(6)
        zones = m.pick_zones(rng, "us-west-1", 5)
        assert len(zones) == 2

    def test_pick_zones_skewed(self):
        m = Mixtures()
        rng = random.Random(7)
        from collections import Counter
        counter = Counter()
        for _ in range(3000):
            counter[m.pick_zones(rng, "us-east-1", 1)[0]] += 1
        # us-east-1 weights (0.48, 0.18, 0.34): zone 0 most popular,
        # zone 1 least.
        assert counter[0] > counter[2] > counter[1]

    def test_sample_zone_count_respects_max(self):
        m = Mixtures()
        rng = random.Random(8)
        for _ in range(200):
            assert m.sample_zone_count(rng, 2) <= 2

    def test_sample_frontend_vms_minimum(self):
        m = Mixtures()
        rng = random.Random(9)
        for _ in range(100):
            assert m.sample_frontend_vms(rng, minimum=3) >= 3

    def test_vm_count_distribution_shape(self):
        m = Mixtures()
        rng = random.Random(10)
        samples = [m.sample_frontend_vms(rng) for _ in range(5000)]
        two_or_fewer = sum(1 for s in samples if s <= 2) / len(samples)
        assert 0.70 < two_or_fewer < 0.90

    def test_region_weights_us_east_dominant(self):
        m = Mixtures()
        assert m.ec2_region_weights["us-east-1"] == max(
            m.ec2_region_weights.values()
        )

    def test_power_law_sampler_cached(self):
        m = Mixtures()
        a = m.power_law("x", 1.5, 10)
        b = m.power_law("x", 1.5, 10)
        assert a is b
        c = m.power_law("x", 1.6, 10)
        assert c is not a
