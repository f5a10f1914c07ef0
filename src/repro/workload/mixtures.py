"""Calibration constants for the synthetic population.

Every constant is annotated with the paper statistic it targets.  The
generator *samples* deployments from these mixtures; the measurement
pipeline then re-derives the statistics from DNS/probing observations,
so agreement with the paper is an end-to-end check of the pipeline, not
a tautology.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sampling import WeightedChooser


def sample_discrete(rng: random.Random, table: Dict[str, float]) -> str:
    """Sample a key from a {value: weight} table.

    Compiles the table on every call; a fixed :class:`Mixtures` table
    draws through :meth:`Mixtures.chooser` instead, bit-identically.
    """
    keys = list(table)
    weights = list(table.values())
    return rng.choices(keys, weights=weights, k=1)[0]


class PowerLawSampler:
    """Samples integers in [1, n_max] with P(n) ∝ n^-alpha.

    Precomputes the CDF once; sampling is a bisect.
    """

    def __init__(self, alpha: float, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.alpha = alpha
        self.n_max = n_max
        weights = [n ** (-alpha) for n in range(1, n_max + 1)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random()) + 1

    def mean(self) -> float:
        prev = 0.0
        total = 0.0
        for n, cum in enumerate(self._cdf, start=1):
            total += n * (cum - prev)
            prev = cum
        return total


@dataclass
class Mixtures:
    """All population-level mixture parameters, paper-calibrated."""

    # ------------------------------------------------------------------
    # §3.2 — who is cloud-using.
    # ------------------------------------------------------------------
    #: P(domain uses EC2/Azure) per rank quartile.  Overall ≈4%; 42.3%
    #: of cloud-using domains fall in the top 250K and 16.2% in the
    #: bottom 250K.
    cloud_rate_by_quartile: Tuple[float, ...] = (0.068, 0.037, 0.030, 0.026)

    #: Domain-level provider mix over cloud-using domains (Table 3):
    #: EC2-only 8.1%, EC2+Other 86.1%, Azure-only 0.5%, Azure+Other
    #: 4.6%, EC2+Azure 0.7%.
    domain_category: Dict[str, float] = field(
        default_factory=lambda: {
            "ec2_only": 0.081,
            "ec2_other": 0.861,
            "azure_only": 0.005,
            "azure_other": 0.046,
            "ec2_azure": 0.007,
        }
    )

    #: Fraction of cloud subdomains that are hybrid — resolve to both a
    #: cloud IP and an external IP (Table 3: 3.0% EC2+Other subdomains).
    hybrid_subdomain_fraction: float = 0.030

    #: Cloud-subdomain count per domain: discrete power laws.  The EC2
    #: tail is heavy (713K subdomains over 40K domains, mean ≈ 17.7);
    #: Azure domains are small (6.6K over 2.3K, mean ≈ 2.8).
    ec2_subdomain_alpha: float = 1.55
    ec2_subdomain_max: int = 600
    azure_subdomain_alpha: float = 2.2
    azure_subdomain_max: int = 60

    #: Additional non-cloud subdomains for ``*_other`` category domains.
    other_subdomain_alpha: float = 1.8
    other_subdomain_max: int = 200

    #: Subdomain count for non-cloud-using domains (they still exist in
    #: DNS and are enumerated).
    noncloud_subdomain_alpha: float = 2.4
    noncloud_subdomain_max: int = 40

    #: Fraction of zones that permit AXFR (~80K of 1M domains).
    axfr_allowed_fraction: float = 0.08

    # ------------------------------------------------------------------
    # §4.1 — front-end deployment patterns.
    # ------------------------------------------------------------------
    #: Front-end mixture over EC2-using subdomains (Table 7): VM 71.5%,
    #: ELB 3.8% (standalone), Beanstalk <0.1%, Heroku w/ ELB 0.3%,
    #: Heroku 8.2%, other CNAMEs 16.3%.
    ec2_frontend: Dict[str, float] = field(
        default_factory=lambda: {
            "vm": 0.715,
            "elb": 0.036,
            "beanstalk": 0.0004,
            "heroku_elb": 0.0026,
            "heroku": 0.082,
            "other_cname": 0.163,
        }
    )

    #: Feature use is *domain-correlated*: Heroku's 58K subdomains sit
    #: in just 1.3K domains (mass-hosted apps), ELB is used by 26% of
    #: EC2 domains, Beanstalk by 0.5%, Azure TM by 2.2%.  A domain
    #: first rolls which features it uses at all; per-subdomain front
    #: ends are then drawn from the domain-conditional mixture.
    heroku_domain_fraction: float = 0.16
    heroku_sub_prob: float = 0.85
    heroku_elb_sub_prob: float = 0.03
    elb_domain_fraction: float = 0.26
    elb_sub_prob: float = 0.15
    beanstalk_domain_fraction: float = 0.006
    beanstalk_sub_prob: float = 0.30
    tm_domain_fraction: float = 0.022
    tm_sub_prob: float = 0.55

    #: Front-end mixture over Azure-using subdomains (§4.1): direct IP
    #: 17%, cloudapp CNAME ≈53%, Traffic Manager 1.5%, other 28.5%.
    azure_frontend: Dict[str, float] = field(
        default_factory=lambda: {
            "cs_direct": 0.17,
            "cs_cname": 0.53,
            "tm": 0.015,
            "other_cname": 0.285,
        }
    )

    #: Front-end VM count per VM-front subdomain (Figure 4a: ~half use
    #: 2, 15% use 3+), conditional weights by index 1..6.
    frontend_vm_weights: Tuple[float, ...] = (0.17, 0.575, 0.18, 0.05, 0.02, 0.005)

    #: Probability a domain is a "single-zone shop" (all of its
    #: subdomains keep their front ends in one zone), by domain size.
    #: Small domains rarely bother with zone redundancy — this is what
    #: makes 70% of domains single-zone (Figure 8b) while only a third
    #: of *subdomains* are (Figure 8a: subdomain mass sits in large,
    #: zone-spread domains).
    single_zone_domain_small: float = 0.80    # <= 2 cloud subdomains
    single_zone_domain_medium: float = 0.42   # 3-10
    single_zone_domain_large: float = 0.08    # > 10

    #: Physical ELB instances per ELB-using subdomain (Figure 4b: 95%
    #: have ≤5; a handful have dozens).
    elb_physical_weights: Dict[int, float] = field(
        default_factory=lambda: {
            1: 0.30, 2: 0.36, 3: 0.17, 4: 0.09, 5: 0.045,
            6: 0.02, 8: 0.008, 10: 0.004, 20: 0.002, 58: 0.0008,
            90: 0.0004,
        }
    )

    #: Probability that a CloudFront distribution fronts a given
    #: EC2-using *domain* (Table 7: 5,988 of 38K domains ≈ 15%).
    cloudfront_domain_fraction: float = 0.155
    #: Probability of a non-CloudFront CDN on an EC2 domain (163.com,
    #: hao123.com style).
    other_cdn_domain_fraction: float = 0.05
    #: Probability an Azure-using domain uses the Azure CDN (54/2.3K).
    azure_cdn_domain_fraction: float = 0.023

    # ------------------------------------------------------------------
    # §4.1 — DNS hosting for cloud-using domains.
    # ------------------------------------------------------------------
    #: Where a domain's authoritative servers live.  Calibrated to the
    #: server-level split 2,062 CloudFront(route53) / 1,239 EC2 VM / 22
    #: Azure / 19,788 outside.
    dns_hosting: Dict[str, float] = field(
        default_factory=lambda: {
            "route53": 0.055,
            "ec2_vm": 0.020,
            "azure_vm": 0.002,
            "external_provider": 0.56,
            "self_hosted_external": 0.363,
        }
    )

    #: Name servers per domain (Figure 5: ~80% of subdomains use 3-10).
    ns_count_weights: Dict[int, float] = field(
        default_factory=lambda: {
            2: 0.18, 3: 0.16, 4: 0.28, 5: 0.12, 6: 0.10,
            7: 0.06, 8: 0.05, 10: 0.03, 12: 0.02,
        }
    )

    # ------------------------------------------------------------------
    # §4.2 — regions.
    # ------------------------------------------------------------------
    #: Home-region weights for EC2 deployments (Table 9 subdomain
    #: counts): us-east-1 dominates at ~74%.
    ec2_region_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "us-east-1": 0.655,
            "eu-west-1": 0.205,
            "us-west-1": 0.060,
            "ap-southeast-1": 0.029,
            "ap-northeast-1": 0.024,
            "us-west-2": 0.022,
            "sa-east-1": 0.021,
            "ap-southeast-2": 0.001,
        }
    )

    #: Home-region weights for Azure (Table 9): a much flatter spread,
    #: with US South / US North most used.
    azure_region_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "us-east": 0.10,
            "us-west": 0.07,
            "us-north": 0.25,
            "us-south": 0.17,
            "eu-west": 0.13,
            "eu-north": 0.15,
            "ap-southeast": 0.07,
            "ap-east": 0.06,
        }
    )

    #: P(subdomain uses 1/2/3 regions).  97% of EC2-using and 92% of
    #: Azure-using subdomains are single-region.
    ec2_subdomain_region_count: Dict[int, float] = field(
        default_factory=lambda: {1: 0.97, 2: 0.025, 3: 0.005}
    )
    azure_subdomain_region_count: Dict[int, float] = field(
        default_factory=lambda: {1: 0.92, 2: 0.065, 3: 0.015}
    )

    #: Probability a subdomain re-uses its domain's home region rather
    #: than drawing a fresh region (keeps domains regionally coherent,
    #: Table 10).
    home_region_affinity: float = 0.85

    # ------------------------------------------------------------------
    # §4.3 — availability zones (EC2 only).
    # ------------------------------------------------------------------
    #: P(subdomain's front ends span 1/2/3 zones) (Figure 8a: 33.2% /
    #: 44.5% / 22.3%), before capping by the region's zone count.
    zone_count_weights: Dict[int, float] = field(
        default_factory=lambda: {1: 0.332, 2: 0.445, 3: 0.223}
    )

    #: Within-region zone popularity (Table 14's skew).  Keys are
    #: region names; values are per-physical-zone weights.
    zone_weights: Dict[str, Tuple[float, ...]] = field(
        default_factory=lambda: {
            "us-east-1": (0.48, 0.18, 0.34),
            "us-west-1": (0.47, 0.53),
            "us-west-2": (0.44, 0.32, 0.24),
            "eu-west-1": (0.32, 0.27, 0.41),
            "ap-northeast-1": (0.60, 0.40),
            "ap-southeast-1": (0.37, 0.63),
            "ap-southeast-2": (0.50, 0.50),
            "sa-east-1": (0.62, 0.38),
        }
    )

    # ------------------------------------------------------------------
    # §4.2 — customer geography.
    # ------------------------------------------------------------------
    #: Marginal customer-country distribution over domains.
    customer_country_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "US": 0.42, "IN": 0.06, "BR": 0.05, "JP": 0.06, "GB": 0.05,
            "DE": 0.05, "CN": 0.05, "FR": 0.04, "RU": 0.04, "CA": 0.03,
            "IT": 0.03, "ES": 0.02, "KR": 0.03, "AU": 0.02, "NL": 0.02,
            "MX": 0.02, "SG": 0.01,
        }
    )
    #: Probability a domain's customer country is drawn *near* its
    #: hosting region (same country) instead of from the marginal —
    #: tunes the 47%-mismatch / 32%-different-continent result.
    customer_home_bias: float = 0.38
    #: Fraction of domains whose customer country Alexa can identify
    #: (the paper resolved 75% of subdomains).
    customer_identified_fraction: float = 0.75

    # ------------------------------------------------------------------
    # Derived samplers (built lazily).
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self._samplers: Dict[str, PowerLawSampler] = {}
        self._choosers: Dict[object, Tuple[object, WeightedChooser]] = {}

    def chooser(self, name: str) -> WeightedChooser:
        """The compiled draw over the weight table field ``name``.

        A draw is bit-identical to :func:`sample_discrete` over the same
        table (one ``random()`` call, the same bisect), and returns the
        table's key itself, so int-keyed tables yield ints.  The table
        is compiled on first use and again whenever the field is
        rebound; tables are fixed once drawn from, so change one by
        assigning a new mapping, never by editing it in place.
        """
        return self._compiled(name, getattr(self, name))

    def _compiled(self, key, table, population=None) -> WeightedChooser:
        """The chooser cached under ``key``, recompiled when ``table``
        is a new object.  ``table`` is a ``{key: weight}`` mapping, or a
        weight sequence over ``population``."""
        cached = self._choosers.get(key)
        if cached is None or cached[0] is not table:
            if population is None:
                population, weights = list(table), list(table.values())
            else:
                weights = table
            cached = (table, WeightedChooser(population, weights))
            self._choosers[key] = cached
        return cached[1]

    def power_law(self, name: str, alpha: float, n_max: int) -> PowerLawSampler:
        sampler = self._samplers.get(name)
        if sampler is None or sampler.alpha != alpha or sampler.n_max != n_max:
            sampler = PowerLawSampler(alpha, n_max)
            self._samplers[name] = sampler
        return sampler

    def sample_ec2_subdomain_count(self, rng: random.Random) -> int:
        return self.power_law(
            "ec2_subs", self.ec2_subdomain_alpha, self.ec2_subdomain_max
        ).sample(rng)

    def sample_azure_subdomain_count(self, rng: random.Random) -> int:
        return self.power_law(
            "azure_subs", self.azure_subdomain_alpha, self.azure_subdomain_max
        ).sample(rng)

    def sample_other_subdomain_count(self, rng: random.Random) -> int:
        return self.power_law(
            "other_subs", self.other_subdomain_alpha, self.other_subdomain_max
        ).sample(rng)

    def sample_noncloud_subdomain_count(self, rng: random.Random) -> int:
        return self.power_law(
            "noncloud_subs",
            self.noncloud_subdomain_alpha,
            self.noncloud_subdomain_max,
        ).sample(rng)

    def sample_frontend_vms(self, rng: random.Random, minimum: int = 1) -> int:
        weights = self.frontend_vm_weights
        chooser = self._compiled(
            "frontend_vms", weights, range(1, len(weights) + 1)
        )
        while True:
            n = chooser.choose(rng)
            if n >= minimum:
                return n

    def sample_elb_physical(self, rng: random.Random) -> int:
        return self.chooser("elb_physical_weights").choose(rng)

    def sample_zone_count(self, rng: random.Random, max_zones: int) -> int:
        chooser = self.chooser("zone_count_weights")
        while True:
            k = chooser.choose(rng)
            if k <= max_zones:
                return k

    def pick_zones(
        self, rng: random.Random, region_name: str, count: int
    ) -> List[int]:
        """``count`` distinct physical zones in a region, skew-weighted."""
        weights = self.zone_weights.get(region_name, (1.0,))
        chooser = self._compiled(
            ("zones", region_name), weights, range(len(weights))
        )
        count = min(count, len(chooser.population))
        chosen: List[int] = []
        while len(chosen) < count:
            pick = chooser.choose(rng)
            if pick not in chosen:
                chosen.append(pick)
        return sorted(chosen)
