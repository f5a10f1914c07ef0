"""World assembly: one seed in, the entire simulated universe out.

:class:`World` wires the substrates together in dependency order —
DNS, EC2/Azure and their value-added services, the Alexa ranking, the
sampled deployment plans, their materialization, the wide-area models,
and (lazily) the packet capture.  Everything is a deterministic
function of :class:`WorldConfig`.

Ground truth (the plans) is exposed for *validation only*; the
measurement pipeline in :mod:`repro.analysis` works exclusively from
external observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture.generator import (
    CaptureConfig,
    CaptureGenerator,
    TrafficDomain,
)
from repro.capture.flow import Trace
from repro.cloud.azure import AzureCloud
from repro.cloud.cdn import AzureCDN, CloudFront
from repro.cloud.ec2 import EC2Cloud
from repro.cloud.elb import ELBFleet
from repro.cloud.paas import BeanstalkPlatform, HerokuPlatform
from repro.cloud.route53 import Route53
from repro.dns.infrastructure import DnsInfrastructure
from repro.dns.resolver import StubResolver
from repro.internet.latency import LatencyModel
from repro.internet.routing import RoutingModel
from repro.internet.throughput import ThroughputModel
from repro.internet.vantage import CAMPUS_VANTAGE, VantagePoint, planetlab_sites
from repro.net.prefixset import PrefixSet
from repro.probing.directory import EndpointDirectory
from repro.probing.httpget import HttpDownloader
from repro.probing.ping import Prober
from repro.sim import Clock, StreamRegistry
from repro.workload.alexa import AlexaRanking
from repro.workload.customers import CustomerModel
from repro.workload.deploy import DeployedDomain, Deployer
from repro.workload.mixtures import Mixtures
from repro.workload.notable import capture_notables
from repro.workload.plans import DomainPlan, PlanGenerator


@dataclass
class WorldConfig:
    """Scale and seed knobs for one simulated universe."""

    seed: int = 7
    #: Alexa list size (the paper's 1M, scaled down; percentages in the
    #: analyses are scale-free).
    num_domains: int = 20_000
    #: Vantage points used for distributed DNS lookups when building
    #: the Alexa subdomains dataset (the paper used 200).
    num_dns_vantages: int = 24
    #: Vantage points for latency/throughput probing (the paper's 80).
    num_probe_vantages: int = 40
    #: Vantage points used as traceroute destinations (the paper's 200).
    num_traceroute_vantages: int = 60
    #: Fraction of Alexa cloud-using domains that show up in the campus
    #: capture, and how many capture-only domains to add per Alexa one.
    capture_visibility: float = 0.5
    capture_extra_ratio: float = 0.97
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    mixtures: Mixtures = field(default_factory=Mixtures)

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ValueError(
                f"num_domains must be positive: {self.num_domains}"
            )
        for name in (
            "num_dns_vantages", "num_probe_vantages",
            "num_traceroute_vantages",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.capture_visibility <= 1.0:
            raise ValueError(
                f"capture_visibility must be a fraction: "
                f"{self.capture_visibility}"
            )


class World:
    """The fully built simulation.

    Every world deploys its tenant population through one routine:
    :meth:`ensure_deployed_through` plans and deploys the ranked sites
    in rank order, and :meth:`finalize_tenants` deploys the
    capture-only tail and builds the WAN substrate.  By default the
    constructor runs both through :meth:`deploy_tenants`.  With
    ``defer_tenants=True`` only the substrate — clouds, DNS, the
    ranking, the plan and deploy machinery — is built up front, and the
    dataset build deploys the tenants: in forked chunk groups, releasing
    each with :meth:`release_window`
    (:func:`repro.analysis.shards.build_forked`), or in process through
    :meth:`deploy_tenants`, releasing none.  Every RNG substream is
    consumed in the same within-stream order every way, so the worlds
    are bit-identical.
    """

    def __init__(
        self, config: Optional[WorldConfig] = None,
        defer_tenants: bool = False,
    ):
        self.config = config or WorldConfig()
        self.streams = StreamRegistry(self.config.seed)
        self.clock = Clock()
        self.dns = DnsInfrastructure()
        # Clouds and their value-added services.
        self.ec2 = EC2Cloud(self.streams, self.dns)
        self.azure = AzureCloud(self.streams, self.dns)
        self.elb_fleet = ELBFleet(self.ec2)
        self.cloudfront = CloudFront(self.streams, self.dns)
        self.route53 = Route53(self.cloudfront, self.dns)
        self.heroku = HerokuPlatform(self.ec2, self.elb_fleet)
        self.beanstalk = BeanstalkPlatform(self.ec2, self.elb_fleet)
        self.azure_cdn = AzureCDN(self.azure)
        # Tenant population.
        self.alexa = AlexaRanking(
            self.config.num_domains, self.streams.stream("alexa")
        )
        self.plan_generator = PlanGenerator(
            self.config.mixtures, self.streams, self.alexa
        )
        self._finalized = False
        self._released_tenants = False
        self._next_rank = 0
        self._deploy_window: List[DeployedDomain] = []
        self._n_cloud_plans = 0
        self._n_cloud_subdomains = 0
        self._customer_country: Dict[str, Optional[str]] = {}
        self._traffic: List[TrafficDomain] = []
        self._traffic_seen: set = set()
        self._traffic_decided = False
        self.plans: List[DomainPlan] = []
        self.capture_only_plans: List[DomainPlan] = []
        self.deployer = Deployer(
            streams=self.streams,
            dns=self.dns,
            ec2=self.ec2,
            azure=self.azure,
            elb_fleet=self.elb_fleet,
            beanstalk=self.beanstalk,
            heroku=self.heroku,
            cloudfront=self.cloudfront,
            azure_cdn=self.azure_cdn,
            route53=self.route53,
        )
        self.deployed: List[DeployedDomain] = []
        self.customers: Optional[CustomerModel] = None
        self.providers: Dict[str, object] = {
            "ec2": self.ec2,
            "azure": self.azure,
        }
        self.latency: Optional[LatencyModel] = None
        self.routing: Optional[RoutingModel] = None
        self.throughput: Optional[ThroughputModel] = None
        self.directory: Optional[EndpointDirectory] = None
        self.prober: Optional[Prober] = None
        self.downloader: Optional[HttpDownloader] = None
        self._capture_trace: Optional[Trace] = None
        self._resolvers: Dict[str, StubResolver] = {}
        if not defer_tenants:
            self.deploy_tenants()

    def _build_wan_substrate(self) -> None:
        self.latency = LatencyModel(self.streams, self.providers)
        self.routing = RoutingModel(self.streams, self.providers)
        self.throughput = ThroughputModel(self.streams, self.latency)
        self.directory = EndpointDirectory([self.ec2, self.azure])
        self.prober = Prober(self.latency, self.directory)
        self.downloader = HttpDownloader(self.throughput)

    def _offlist_cloud_plans(self, n_alexa_cloud: int) -> List[DomainPlan]:
        """Cloud-using domains the capture sees but the Alexa list does
        not (roughly one per visible Alexa cloud domain in the paper:
        6,702 of 13,604)."""
        from repro.workload.names import DomainNameFactory

        count = int(
            n_alexa_cloud
            * self.config.capture_visibility
            * self.config.capture_extra_ratio
        )
        factory = DomainNameFactory(self.streams.stream("capture", "names"))
        for domain in self.alexa.domains():
            factory.reserve(domain)
        return [
            self.plan_generator.plan_offlist_cloud_domain(factory.fresh())
            for _ in range(count)
        ]

    # -- the tenant population ------------------------------------------------

    @property
    def pending_tenants(self) -> bool:
        """True until :meth:`finalize_tenants` has run: for a deferred
        world, until its dataset build."""
        return not self._finalized

    def deploy_tenants(self) -> None:
        """Deploy every tenant in rank order and finalize, releasing
        none: what construction does for a batch world, and an
        in-process dataset build for a deferred one."""
        self.ensure_deployed_through(len(self.alexa.sites))
        self.finalize_tenants()

    def ensure_deployed_through(self, hi_rank: int) -> List[DeployedDomain]:
        """Plan and deploy ranked sites up to (excluding) ``hi_rank``.

        The new sites are planned, then deployed, each strictly in rank
        order, so the ``plans`` and ``deploy`` streams advance the same
        way however the ranks are split into windows.  (Planning the
        whole window first keeps each phase's working set hot:
        interleaving the two per site built a 6,000-domain world about
        7% slower on a 2-vCPU Xeon host.)  Returns the un-released
        deploy window.
        """
        if not self.pending_tenants:
            raise RuntimeError(
                "ensure_deployed_through needs an un-finalized world"
            )
        sites = self.alexa.sites[self._next_rank:hi_rank]
        plans = [self.plan_generator.plan_site(site) for site in sites]
        for plan in plans:
            if plan.is_cloud_using:
                self._n_cloud_plans += 1
                self._n_cloud_subdomains += len(plan.cloud_subdomains())
            self._deploy_window.append(self.deployer.deploy_domain(plan))
            self._customer_country[plan.domain] = plan.customer_country
        self._next_rank += len(sites)
        return self._deploy_window

    def _add_traffic_domain(self, plan: DomainPlan, rng) -> bool:
        """Decide whether the capture sees one domain, and if so append
        its view to the traffic list; returns the decision.

        A notable with a capture share gets six hostnames and its byte
        share; a capture-only domain, or one that wins its
        ``capture/domains`` draw (``rng``) against
        ``capture_visibility``, gets four.  A domain already chosen is
        skipped.  A releasing build (for which the answer is the zone's
        retention decision) and :meth:`traffic_domains` both call this
        once per domain *in deploy order*, so both consume the same
        draws.
        """
        if not plan.is_cloud_using or plan.domain in self._traffic_seen:
            return False
        cloud_subs = plan.cloud_subdomains()
        if not cloud_subs:
            return False
        provider = "azure" if plan.category.startswith("azure") else "ec2"
        notable = plan.notable
        capture_only = plan.rank is None and notable is None
        if notable is not None and notable.capture_share > 0:
            self._traffic.append(TrafficDomain(
                domain=plan.domain,
                provider=provider,
                hostnames=[s.fqdn for s in cloud_subs[:6]],
                byte_share=notable.capture_share,
                https_fraction=notable.https_fraction,
                storage_profile=notable.https_fraction > 0.8,
            ))
        elif capture_only or rng.random() < self.config.capture_visibility:
            self._traffic.append(TrafficDomain(
                domain=plan.domain,
                provider=provider,
                hostnames=[s.fqdn for s in cloud_subs[:4]],
            ))
        else:
            return False
        self._traffic_seen.add(plan.domain)
        return True

    def release_window(self) -> int:
        """Decide capture retention for the deploy window and release
        the rest.

        Retained domains (the capture's traffic domains) keep their
        zone and name-server registrations; everything else gives back
        its zone, its per-domain name servers, and the deployer's
        bookkeeping — the terms that grow linearly with rank.  Cloud
        instances and value-added services always stay: the WAN
        campaigns probe them.  Returns the number of zones released.
        """
        released = 0
        window_domains = []
        for deployed in self._deploy_window:
            domain = deployed.plan.domain
            window_domains.append(domain)
            keep = self._add_traffic_domain(
                deployed.plan, self.streams.stream("capture", "domains")
            )
            if keep or deployed.plan.notable is not None:
                # Notables can share a zone with cloud service
                # infrastructure (msecnd.net is the Azure CDN's zone);
                # they are few, so retain them unconditionally.
                continue
            if self.dns.release_zone(domain):
                released += 1
            suffix = "." + domain
            for server in deployed.nameservers:
                if server.hostname.endswith(suffix):
                    self.dns.unregister_nameserver(server.hostname)
        self.deployer.release_domains(window_domains)
        self._deploy_window = []
        self._released_tenants = True
        return released

    def finalize_tenants(self) -> None:
        """Deploy the capture-only tail and build the WAN substrate.

        A world that released nothing then exposes every ``plans`` and
        ``deployed`` entry; a releasing build has decided the capture's
        traffic domains (:meth:`traffic_domains`) as it released, and
        decides the tail's here.
        """
        if self._finalized:
            raise RuntimeError("tenants already finalized")
        if self._next_rank < len(self.alexa.sites):
            raise RuntimeError(
                "finalize_tenants before all ranked sites deployed"
            )
        if self._released_tenants and self._deploy_window:
            raise RuntimeError("release_window the last chunk first")
        self.capture_only_plans = [
            self.plan_generator.plan_capture_only_domain(spec)
            for spec in capture_notables()
            if not spec.in_alexa or spec.rank > self.config.num_domains
        ]
        self.capture_only_plans.extend(
            self._offlist_cloud_plans(self._n_cloud_plans)
        )
        tail = self.deployer.deploy_all(self.capture_only_plans)
        if self._released_tenants:
            for deployed in tail:
                self._add_traffic_domain(
                    deployed.plan, self.streams.stream("capture", "domains")
                )
            # Capture-only zones stay (the capture digs them); only the
            # deployer's per-domain bookkeeping is reclaimed.
            self.deployer.release_domains(
                [d.plan.domain for d in tail]
            )
        else:
            self.plans = [d.plan for d in self._deploy_window]
            self.deployed = self._deploy_window + tail
            self._deploy_window = []
        for plan in self.capture_only_plans:
            self._customer_country[plan.domain] = plan.customer_country
        self.customers = CustomerModel(self._customer_country)
        self._build_wan_substrate()
        self._finalized = True

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict[str, int]:
        """Headline counts of the built world (ground truth side)."""
        if self._released_tenants:
            n_cloud = self._n_cloud_plans
            n_cloud_subs = self._n_cloud_subdomains
        else:
            cloud_plans = [p for p in self.plans if p.is_cloud_using]
            n_cloud = len(cloud_plans)
            n_cloud_subs = sum(
                len(p.cloud_subdomains()) for p in cloud_plans
            )
        return {
            "alexa_domains": len(self.alexa),
            "cloud_using_domains": n_cloud,
            "cloud_subdomains_planned": n_cloud_subs,
            "capture_only_domains": len(self.capture_only_plans),
            "ec2_instances": len(self.ec2.instances),
            "azure_instances": len(self.azure.instances),
            "azure_cloud_services": len(self.azure.cloud_services),
            "elb_logical": len(self.elb_fleet.all_load_balancers()),
            "elb_physical": len(self.elb_fleet.physical_proxies()),
            "heroku_apps": len(self.heroku.apps),
            "cloudfront_distributions": len(
                self.cloudfront.distributions
            ),
            "dns_zones": len(self.dns.zones()),
        }

    # -- published ranges ----------------------------------------------------

    def published_ranges(self) -> Dict[str, PrefixSet]:
        """Published cloud IP ranges by provider, plus CloudFront's."""
        return {
            "ec2": self.ec2.published_range_set(),
            "azure": self.azure.published_range_set(),
            "cloudfront": self.cloudfront.published_range_set(),
        }

    # -- vantage points -------------------------------------------------------

    def dns_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_dns_vantages)

    def probe_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_probe_vantages)

    def traceroute_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_traceroute_vantages)

    def resolver_for(self, vantage: VantagePoint) -> StubResolver:
        """The vantage point's local caching resolver (one per node)."""
        resolver = self._resolvers.get(vantage.name)
        if resolver is None:
            resolver = StubResolver(self.dns, self.clock, vantage)
            self._resolvers[vantage.name] = resolver
        return resolver

    # -- ground truth (validation only) ------------------------------------------

    def plan_for(self, domain: str) -> Optional[DomainPlan]:
        deployed = self.deployer.deployed.get(domain)
        return deployed.plan if deployed else None

    # -- the packet capture -----------------------------------------------------

    def capture_trace(self) -> Trace:
        """The week-long campus capture (generated once, cached)."""
        if self._capture_trace is None:
            generator = CaptureGenerator(
                streams=self.streams,
                resolver=self.resolver_for(CAMPUS_VANTAGE),
                cloud_ranges={
                    "ec2": self.ec2.published_range_set(),
                    "azure": self.azure.published_range_set(),
                },
                config=self.config.capture,
            )
            # Consumes the ``capture/background`` stream.
            generator.set_background_targets(self._background_targets())
            self._capture_trace = generator.generate(self.traffic_domains())
        return self._capture_trace

    def _background_targets(self):
        rng = self.streams.stream("capture", "background")
        targets = {}
        for provider_name, provider in self.providers.items():
            instances = [
                inst for inst in provider.all_instances()
                if inst.public_ip is not None
            ]
            sample = rng.sample(instances, k=min(200, len(instances)))
            targets[provider_name] = [inst.public_ip for inst in sample]
        return targets

    def traffic_domains(self) -> List[TrafficDomain]:
        """The domains the campus population talks to.

        All capture notables (Table 5), a sampled slice of the other
        Alexa cloud-using domains, and the capture-only tail, decided
        once per world.  A releasing build decides each domain as it
        releases it, and holds none of them in ``deployed`` afterwards;
        a world that released nothing decides on the first call rather
        than at construction, because epoch steps change plans in
        between.
        """
        if not self._finalized:
            raise RuntimeError("traffic_domains before finalize_tenants")
        if not self._traffic_decided:
            rng = self.streams.stream("capture", "domains")
            for deployed in self.deployed:
                self._add_traffic_domain(deployed.plan, rng)
            self._traffic_decided = True
        return list(self._traffic)
