"""Deployment plans: the sampled ground truth for every domain.

A :class:`DomainPlan` says everything about how one domain is deployed
— provider mix, subdomain front ends, regions, physical zones, DNS
hosting.  Plans are pure data: :class:`repro.workload.deploy.Deployer`
turns them into cloud resources and DNS zones.  Keeping the two phases
separate makes plans unit-testable against the mixtures and gives
validation tests a ground-truth object to compare pipeline output with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim import StreamRegistry
from repro.workload.alexa import AlexaRanking
from repro.workload.mixtures import Mixtures, sample_discrete
from repro.workload.names import SubdomainLabelFactory
from repro.workload.notable import NotableSpec, notable_by_domain

#: Front ends that cannot span multiple regions in DNS (a name can have
#: only one CNAME, and these are single-region constructs).
_SINGLE_REGION_FRONTENDS = {
    "elb", "beanstalk", "heroku", "heroku_elb",
    "cs_cname", "cloudfront", "azure_cdn", "other_cdn",
}


@dataclass(slots=True)
class SubdomainPlan:
    """Ground truth for one subdomain."""

    fqdn: str
    kind: str  # 'cloud' | 'external' | 'hybrid'
    provider: Optional[str] = None  # 'ec2' | 'azure' | None
    frontend: Optional[str] = None
    regions: Tuple[str, ...] = ()
    #: Physical zone indices used in each region (parallel to regions).
    zone_indices: Tuple[Tuple[int, ...], ...] = ()
    n_vms: int = 0
    elb_physical: int = 0

    @property
    def num_zones(self) -> int:
        return sum(len(z) for z in self.zone_indices)


@dataclass(slots=True)
class DomainPlan:
    """Ground truth for one domain."""

    domain: str
    rank: Optional[int]
    category: str  # 'none' | 'ec2_only' | 'ec2_other' | ...
    axfr_allowed: bool
    dns_hosting: str
    ns_count: int
    customer_country: Optional[str]
    home_region_ec2: Optional[str] = None
    home_region_azure: Optional[str] = None
    subdomains: List[SubdomainPlan] = field(default_factory=list)
    notable: Optional[NotableSpec] = None

    @property
    def is_cloud_using(self) -> bool:
        return self.category != "none"

    def cloud_subdomains(self) -> List[SubdomainPlan]:
        return [s for s in self.subdomains if s.kind in ("cloud", "hybrid")]


class PlanGenerator:
    """Samples a :class:`DomainPlan` for every Alexa domain."""

    def __init__(
        self,
        mixtures: Mixtures,
        streams: StreamRegistry,
        alexa: AlexaRanking,
    ):
        self.mixtures = mixtures
        self.alexa = alexa
        self.rng = streams.stream("plans")
        self.labels = SubdomainLabelFactory(streams.stream("plans", "labels"))

    # -- public API -------------------------------------------------------

    def plan_site(self, site) -> DomainPlan:
        """The plan for one ranked site, notables included.

        Sampling consumes the shared ``plans`` stream, so callers must
        visit sites in rank order — :meth:`World.ensure_deployed_through`
        does, one rank window at a time, so any split into windows
        yields the same plans.
        """
        notable = notable_by_domain(site.domain)
        if notable is not None:
            return self._plan_notable(site.rank, notable)
        return self._plan_sampled(site.rank, site.domain)

    def plan_capture_only_domain(self, spec: NotableSpec) -> DomainPlan:
        """A plan for a notable seen only in the capture (no Alexa rank)."""
        return self._plan_notable(None, spec)

    def plan_offlist_cloud_domain(self, domain: str) -> DomainPlan:
        """A cloud-using domain outside the Alexa list (the capture saw
        ~6.7K such domains beyond the top 1M)."""
        return self._plan_cloud(None, domain)

    # -- shared helpers ------------------------------------------------------

    def _draw(self, table: str):
        """One ``plans``-stream draw from a fixed mixture table."""
        return self.mixtures.chooser(table).choose(self.rng)

    def _sample_dns(self) -> Tuple[str, int]:
        hosting = self._draw("dns_hosting")
        ns_count = self._draw("ns_count_weights")
        return hosting, ns_count

    def _customer_country(self, home_region: Optional[str]) -> Optional[str]:
        if self.rng.random() >= self.mixtures.customer_identified_fraction:
            return None
        if (
            home_region is not None
            and self.rng.random() < self.mixtures.customer_home_bias
        ):
            country = _REGION_COUNTRY.get(home_region)
            if country is not None:
                return country
        return self._draw("customer_country_weights")

    def _pick_regions(
        self, provider: str, home: str, count: int
    ) -> List[str]:
        chooser = self.mixtures.chooser(
            "ec2_region_weights" if provider == "ec2"
            else "azure_region_weights"
        )
        regions = [home]
        while len(regions) < count:
            pick = chooser.choose(self.rng)
            if pick not in regions:
                regions.append(pick)
        return regions

    def _zone_plan(
        self,
        provider: str,
        regions: Sequence[str],
        frontend: str,
        max_spread: Optional[int] = None,
        force_spread: bool = False,
    ) -> Tuple[Tuple[int, ...], ...]:
        """Physical zones per region for a subdomain's front ends.

        With ``force_spread`` the front ends use exactly
        ``max_spread`` zones (capped by the region); otherwise the
        count is drawn from the Figure 8a mixture.
        """
        if provider != "ec2":
            return tuple((0,) for _ in regions)
        per_region = []
        for region_name in regions:
            max_zones = len(
                self.mixtures.zone_weights.get(region_name, (1.0,))
            )
            if max_spread is not None:
                max_zones = min(max_zones, max_spread)
            if force_spread:
                count = max_zones
            elif frontend in ("heroku", "heroku_elb", "beanstalk"):
                # Platform-managed placement: spread over 1-2 zones.
                count = self.rng.choice((1, 2))
                count = min(count, max_zones)
            else:
                count = self.mixtures.sample_zone_count(self.rng, max_zones)
            per_region.append(
                tuple(self.mixtures.pick_zones(self.rng, region_name, count))
            )
        return tuple(per_region)

    # -- sampled domains --------------------------------------------------------

    def _plan_sampled(self, rank: int, domain: str) -> DomainPlan:
        quartile = self.alexa.quartile_of(rank)
        cloud_rate = self.mixtures.cloud_rate_by_quartile[quartile]
        if self.rng.random() >= cloud_rate:
            return self._plan_noncloud(rank, domain)
        return self._plan_cloud(rank, domain)

    def _plan_cloud(self, rank: Optional[int], domain: str) -> DomainPlan:
        category = self._draw("domain_category")
        uses_ec2 = category in ("ec2_only", "ec2_other", "ec2_azure")
        uses_azure = category in ("azure_only", "azure_other", "ec2_azure")
        home_ec2 = self._draw("ec2_region_weights") if uses_ec2 else None
        home_azure = (
            self._draw("azure_region_weights") if uses_azure else None
        )
        hosting, ns_count = self._sample_dns()
        plan = DomainPlan(
            domain=domain,
            rank=rank,
            category=category,
            axfr_allowed=(
                self.rng.random() < self.mixtures.axfr_allowed_fraction
            ),
            dns_hosting=hosting,
            ns_count=ns_count,
            customer_country=self._customer_country(home_ec2 or home_azure),
            home_region_ec2=home_ec2,
            home_region_azure=home_azure,
        )
        n_cloud = 0
        if uses_ec2:
            n_cloud += self.mixtures.sample_ec2_subdomain_count(self.rng)
        if uses_azure:
            n_cloud += self.mixtures.sample_azure_subdomain_count(self.rng)
        n_external = 0
        if category.endswith("_other") or category == "ec2_azure":
            n_external = self.mixtures.sample_other_subdomain_count(self.rng)
        labels = self.labels.labels_for_domain(n_cloud + n_external)
        cloud_labels = labels[:n_cloud]
        external_labels = labels[n_cloud:]
        ec2_share = 0
        if uses_ec2 and uses_azure:
            # EC2+Azure domains are rare; split their subdomains.
            ec2_share = max(1, n_cloud - max(1, n_cloud // 3))
        elif uses_ec2:
            ec2_share = n_cloud
        single_zone_domain = self._is_single_zone_domain(n_cloud)
        features = self._domain_features(n_cloud)
        for i, label in enumerate(cloud_labels):
            provider = "ec2" if i < ec2_share else "azure"
            home = home_ec2 if provider == "ec2" else home_azure
            plan.subdomains.append(
                self._plan_cloud_subdomain(
                    domain, label, provider, home,
                    single_zone=single_zone_domain,
                    features=features,
                )
            )
        for label in external_labels:
            plan.subdomains.append(
                SubdomainPlan(fqdn=f"{label}.{domain}", kind="external")
            )
        self._maybe_add_cdn_subdomains(plan, uses_ec2, uses_azure)
        return plan

    def _plan_noncloud(self, rank: int, domain: str) -> DomainPlan:
        hosting, ns_count = self._sample_dns()
        # Non-cloud domains never use Route53/EC2-hosted DNS in our
        # model (the paper only surveys DNS of cloud-using subdomains,
        # so this simplification is invisible to the pipeline).
        if hosting in ("route53", "ec2_vm", "azure_vm"):
            hosting = "external_provider"
        plan = DomainPlan(
            domain=domain,
            rank=rank,
            category="none",
            axfr_allowed=(
                self.rng.random() < self.mixtures.axfr_allowed_fraction
            ),
            dns_hosting=hosting,
            ns_count=ns_count,
            customer_country=self._customer_country(None),
        )
        count = self.mixtures.sample_noncloud_subdomain_count(self.rng)
        for label in self.labels.labels_for_domain(count):
            plan.subdomains.append(
                SubdomainPlan(fqdn=f"{label}.{domain}", kind="external")
            )
        return plan

    def _is_single_zone_domain(self, n_cloud_subdomains: int) -> bool:
        if n_cloud_subdomains <= 2:
            p = self.mixtures.single_zone_domain_small
        elif n_cloud_subdomains <= 10:
            p = self.mixtures.single_zone_domain_medium
        else:
            p = self.mixtures.single_zone_domain_large
        return self.rng.random() < p

    def _domain_features(self, n_cloud_subdomains: int) -> Dict[str, bool]:
        """Which value-added features this domain uses at all.

        Heroku shops are small-to-medium app domains; the heavy-tailed
        mass hosters (hundreds of subdomains) run their own VMs, so
        capping Heroku to modest domains keeps its subdomain share near
        the paper's 8% instead of exploding whenever a mass hoster
        rolls Heroku.
        """
        m = self.mixtures
        heroku_eligible = n_cloud_subdomains <= 60
        return {
            "heroku": heroku_eligible
            and self.rng.random() < m.heroku_domain_fraction,
            "elb": self.rng.random() < m.elb_domain_fraction,
            "beanstalk": self.rng.random() < m.beanstalk_domain_fraction,
            "tm": self.rng.random() < m.tm_domain_fraction,
        }

    def _sample_frontend(
        self, provider: str, features: Optional[Dict[str, bool]]
    ) -> str:
        """Domain-conditional front-end choice for one subdomain."""
        m = self.mixtures
        if features is None:
            return self._draw(
                "ec2_frontend" if provider == "ec2" else "azure_frontend"
            )
        roll = self.rng.random()
        if provider == "ec2":
            if features["heroku"]:
                if roll < m.heroku_sub_prob:
                    return "heroku"
                if roll < m.heroku_sub_prob + m.heroku_elb_sub_prob:
                    return "heroku_elb"
            elif features["beanstalk"] and roll < m.beanstalk_sub_prob:
                return "beanstalk"
            elif features["elb"] and roll < m.elb_sub_prob:
                return "elb"
            # The rest split between plain VM fronts and unrecognized
            # CNAMEs in the marginal ratio.
            vm_weight = m.ec2_frontend["vm"]
            other_weight = m.ec2_frontend["other_cname"]
            if self.rng.random() < vm_weight / (vm_weight + other_weight):
                return "vm"
            return "other_cname"
        if features["tm"] and roll < m.tm_sub_prob:
            return "tm"
        remaining = {
            k: v for k, v in m.azure_frontend.items() if k != "tm"
        }
        return sample_discrete(self.rng, remaining)

    def _plan_cloud_subdomain(
        self,
        domain: str,
        label: str,
        provider: str,
        home_region: str,
        single_zone: bool = False,
        features: Optional[Dict[str, bool]] = None,
    ) -> SubdomainPlan:
        frontend = self._sample_frontend(provider, features)
        region_count = self._draw(
            "ec2_subdomain_region_count" if provider == "ec2"
            else "azure_subdomain_region_count"
        )
        if frontend in _SINGLE_REGION_FRONTENDS:
            region_count = 1
        if frontend == "tm":
            region_count = max(2, region_count)
        if self.rng.random() < self.mixtures.home_region_affinity:
            first = home_region
        else:
            first = self._draw(
                "ec2_region_weights" if provider == "ec2"
                else "azure_region_weights"
            )
        regions = self._pick_regions(provider, first, region_count)
        n_vms = 0
        elb_physical = 0
        if frontend in ("vm", "other_cname"):
            # Sample the VM count first (Figure 4a's distribution);
            # tenants running k front-end VMs overwhelmingly spread
            # them one per zone (that is what multiple front ends are
            # *for*), so the zone count follows the VM count with a
            # small collapse probability — jointly reproducing
            # Figures 4a and 8a.
            n_vms = self.mixtures.sample_frontend_vms(self.rng)
            spread = n_vms
            if single_zone:
                spread = 1
            elif n_vms > 1 and self.rng.random() < 0.12:
                spread = n_vms - 1
            zone_indices = self._zone_plan(
                provider, regions, frontend, max_spread=spread,
                force_spread=True,
            )
        elif single_zone and frontend in ("elb", "beanstalk"):
            zone_indices = self._zone_plan(
                provider, regions, frontend, max_spread=1,
                force_spread=True,
            )
        else:
            zone_indices = self._zone_plan(provider, regions, frontend)
        max_span = max(len(z) for z in zone_indices)
        if frontend in ("elb", "beanstalk", "heroku_elb"):
            elb_physical = max(
                max_span, self.mixtures.sample_elb_physical(self.rng)
            )
        kind = "cloud"
        if (
            provider == "ec2"
            and frontend == "vm"
            and self.rng.random() < self.mixtures.hybrid_subdomain_fraction
        ):
            kind = "hybrid"
        return SubdomainPlan(
            fqdn=f"{label}.{domain}",
            kind=kind,
            provider=provider,
            frontend=frontend,
            regions=tuple(regions),
            zone_indices=zone_indices,
            n_vms=n_vms,
            elb_physical=elb_physical,
        )

    def _maybe_add_cdn_subdomains(
        self, plan: DomainPlan, uses_ec2: bool, uses_azure: bool
    ) -> None:
        if uses_ec2:
            if self.rng.random() < self.mixtures.cloudfront_domain_fraction:
                plan.subdomains.append(SubdomainPlan(
                    fqdn=f"cdn.{plan.domain}", kind="cloud",
                    provider="ec2", frontend="cloudfront",
                    regions=(plan.home_region_ec2,),
                    zone_indices=((0,),),
                ))
            elif self.rng.random() < self.mixtures.other_cdn_domain_fraction:
                plan.subdomains.append(SubdomainPlan(
                    fqdn=f"static.{plan.domain}", kind="external",
                    provider=None, frontend="other_cdn",
                ))
        if uses_azure and (
            self.rng.random() < self.mixtures.azure_cdn_domain_fraction
        ):
            plan.subdomains.append(SubdomainPlan(
                fqdn=f"cdn.{plan.domain}", kind="cloud",
                provider="azure", frontend="azure_cdn",
                regions=(plan.home_region_azure,),
                zone_indices=((0,),),
            ))

    # -- notable domains ------------------------------------------------------

    def _plan_notable(
        self, rank: Optional[int], spec: NotableSpec
    ) -> DomainPlan:
        category = (
            "ec2_other" if spec.provider == "ec2" else "azure_other"
        )
        hosting, ns_count = self._sample_dns()
        home = spec.subs[0].regions[0] if spec.subs else None
        plan = DomainPlan(
            domain=spec.domain,
            rank=rank,
            category=category,
            axfr_allowed=False,
            dns_hosting=hosting,
            ns_count=ns_count,
            customer_country=spec.customer_country,
            home_region_ec2=home if spec.provider == "ec2" else None,
            home_region_azure=home if spec.provider == "azure" else None,
            notable=spec,
        )
        n_external = max(0, spec.total_subdomains - len(spec.subs))
        labels = self.labels.labels_for_domain(
            len(spec.subs) + n_external
        )
        label_iter = iter(labels)
        used = set()
        for sub in spec.subs:
            label = sub.label
            if label is None or label in used:
                label = next(label_iter)
                while label in used:
                    label = next(label_iter)
            used.add(label)
            zone_indices = tuple(
                tuple(self.mixtures.pick_zones(
                    self.rng, region_name, sub.zones
                )) if spec.provider == "ec2" else (0,)
                for region_name in sub.regions
            )
            plan.subdomains.append(SubdomainPlan(
                fqdn=f"{label}.{spec.domain}",
                kind="cloud",
                provider=spec.provider,
                frontend=sub.frontend,
                regions=sub.regions,
                zone_indices=zone_indices,
                n_vms=max(sub.n_vms, max(len(z) for z in zone_indices)),
                elb_physical=sub.elb_physical,
            ))
        for label in label_iter:
            if label in used:
                continue
            used.add(label)
            plan.subdomains.append(
                SubdomainPlan(fqdn=f"{label}.{spec.domain}", kind="external")
            )
            if len(plan.subdomains) >= spec.total_subdomains:
                break
        return plan


#: Country most associated with each cloud region (for the customer
#: home-bias draw).
_REGION_COUNTRY: Dict[str, str] = {
    "us-east-1": "US", "us-west-1": "US", "us-west-2": "US",
    "eu-west-1": "GB", "ap-southeast-1": "SG", "ap-northeast-1": "JP",
    "sa-east-1": "BR", "ap-southeast-2": "AU",
    "us-east": "US", "us-west": "US", "us-north": "US", "us-south": "US",
    "eu-west": "GB", "eu-north": "NL", "ap-southeast": "SG",
    "ap-east": "CN",
}
