"""Materializing deployment plans into cloud resources and DNS.

The deployer is the only component that touches ground truth *and* the
world's mutable state: it launches instances, creates ELBs / PaaS apps /
Cloud Services / CDN endpoints, builds each domain's DNS zone, and
wires up name-server hosting.  Everything the measurement pipeline later
sees flows from what is created here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cloud.azure import AzureCloud, ServiceKind
from repro.cloud.base import Instance, InstanceRole, InstanceType
from repro.cloud.cdn import AzureCDN, CloudFront
from repro.cloud.ec2 import EC2Cloud
from repro.cloud.elb import ELBFleet
from repro.cloud.paas import BeanstalkPlatform, HerokuPlatform
from repro.cloud.route53 import Route53
from repro.dns.infrastructure import DnsInfrastructure, NameServer
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import Zone
from repro.net.ipv4 import IPv4Address, IPv4Network
from repro.sampling import WeightedChooser
from repro.sim import StreamRegistry
from repro.workload.plans import DomainPlan, SubdomainPlan

#: Pool the external (non-cloud) Internet hands out hosting IPs from.
#: Sized for the paper tier: 1M domains consume ~8M cursor steps, and
#: widening the prefix keeps every address the narrower pool ever
#: issued (same base, same offsets) so smaller tiers are unchanged.
_EXTERNAL_POOL = IPv4Network.parse("93.0.0.0/8")
#: Number of shared third-party hosting zones ('other_cname' targets).
_NUM_HOST_PARTNERS = 20
#: Number of non-CloudFront CDN operators.
_NUM_OTHER_CDNS = 6
#: Number of external managed-DNS providers.
_NUM_DNS_PROVIDERS = 40
#: Cloud Service kinds behind Azure front ends.
_CS_KINDS = WeightedChooser(
    (ServiceKind.SINGLE_VM, ServiceKind.VM_GROUP, ServiceKind.PAAS),
    (0.45, 0.25, 0.30),
)
#: Traffic Manager routing policies.
_TM_POLICIES = WeightedChooser(
    (
        AzureCloud.POLICY_PERFORMANCE,
        AzureCloud.POLICY_FAILOVER,
        AzureCloud.POLICY_ROUND_ROBIN,
    ),
    (0.5, 0.25, 0.25),
)


class ExternalAddressPool:
    """Allocates non-cloud hosting addresses, with shared-hosting reuse."""

    def __init__(self, rng, reuse_probability: float = 0.3):
        self.rng = rng
        self.reuse_probability = reuse_probability
        self._cursor = 10
        self._issued: List[IPv4Address] = []

    def allocate(self) -> IPv4Address:
        if self._issued and self.rng.random() < self.reuse_probability:
            return self.rng.choice(self._issued)
        address = _EXTERNAL_POOL.address_at(self._cursor)
        self._cursor += self.rng.randint(1, 5)
        if self._cursor >= _EXTERNAL_POOL.num_addresses:
            raise RuntimeError("external address pool exhausted")
        self._issued.append(address)
        return address

    def allocate_fresh(self) -> IPv4Address:
        address = _EXTERNAL_POOL.address_at(self._cursor)
        self._cursor += self.rng.randint(1, 5)
        self._issued.append(address)
        return address


@dataclass
class DeployedDomain:
    """Bookkeeping for one materialized domain."""

    plan: DomainPlan
    zone: Zone
    nameservers: List[NameServer] = field(default_factory=list)
    instances: List[Instance] = field(default_factory=list)


class Deployer:
    """Builds the world's tenant state from plans."""

    def __init__(
        self,
        streams: StreamRegistry,
        dns: DnsInfrastructure,
        ec2: EC2Cloud,
        azure: AzureCloud,
        elb_fleet: ELBFleet,
        beanstalk: BeanstalkPlatform,
        heroku: HerokuPlatform,
        cloudfront: CloudFront,
        azure_cdn: AzureCDN,
        route53: Route53,
    ):
        self.streams = streams
        self.dns = dns
        self.ec2 = ec2
        self.azure = azure
        self.elb_fleet = elb_fleet
        self.beanstalk = beanstalk
        self.heroku = heroku
        self.cloudfront = cloudfront
        self.azure_cdn = azure_cdn
        self.route53 = route53
        self.rng = streams.stream("deploy")
        self.external_pool = ExternalAddressPool(
            streams.stream("deploy", "external")
        )
        self.deployed: Dict[str, DeployedDomain] = {}
        self._partner_counter = itertools.count(1)
        #: Front-end pools: subdomains of one domain share front-end
        #: VMs / Cloud Services heavily (the paper found 505K VM-front
        #: subdomains over just 28K instances).
        self._vm_pools: Dict[Tuple[str, str], List[Instance]] = {}
        self._vm_pool_caps: Dict[str, int] = {}
        self._cs_pools: Dict[Tuple[str, str], List] = {}
        self._host_partners = self._build_host_partners()
        self._other_cdns = self._build_other_cdns()
        self._dns_providers = self._build_dns_providers()

    # -- shared third parties -----------------------------------------------

    def _build_host_partners(self) -> List[Zone]:
        zones = []
        for i in range(1, _NUM_HOST_PARTNERS + 1):
            zone = Zone(f"hostpartner{i}.net")
            self.dns.add_zone(zone)
            zones.append(zone)
        return zones

    def _build_other_cdns(self) -> List[Tuple[Zone, List[IPv4Address]]]:
        cdns = []
        for i in range(1, _NUM_OTHER_CDNS + 1):
            zone = Zone(f"othercdn{i}.net")
            self.dns.add_zone(zone)
            edges = [
                self.external_pool.allocate_fresh() for _ in range(6)
            ]
            cdns.append((zone, edges))
        return cdns

    def _build_dns_providers(self) -> List[List[NameServer]]:
        providers = []
        for i in range(1, _NUM_DNS_PROVIDERS + 1):
            zone = Zone(f"dnsprovider{i}.com")
            self.dns.add_zone(zone)
            servers = []
            for j in range(1, self.rng.randint(2, 8) + 1):
                hostname = f"ns{j}.dnsprovider{i}.com"
                address = self.external_pool.allocate_fresh()
                zone.add(ResourceRecord(hostname, RRType.A, address, ttl=3600))
                server = NameServer(hostname=hostname, address=address)
                self.dns.register_nameserver(server)
                servers.append(server)
            providers.append(servers)
        return providers

    # -- top level --------------------------------------------------------------

    def deploy_all(self, plans: List[DomainPlan]) -> List[DeployedDomain]:
        return [self.deploy_domain(plan) for plan in plans]

    def release_domains(self, domains) -> None:
        """Drop per-domain bookkeeping once a chunked build is done
        measuring the domains.

        Launched instances and value-added services stay — the WAN
        campaigns probe them and the capture's background traffic
        targets them — only the deployer's own indexes (the deployed
        map, front-end VM / Cloud Service pools and their caps) are
        reclaimed.  One batch pass, so releasing a whole rank chunk
        costs one scan of the pool tables, not one per domain.
        """
        dropped = set(domains)
        if not dropped:
            return
        for domain in dropped:
            self.deployed.pop(domain, None)
            self._vm_pool_caps.pop(domain, None)
        self._vm_pools = {
            key: pool for key, pool in self._vm_pools.items()
            if key[0] not in dropped
        }
        self._cs_pools = {
            key: pool for key, pool in self._cs_pools.items()
            if key[0] not in dropped
        }

    def deploy_domain(self, plan: DomainPlan) -> DeployedDomain:
        # A notable domain can coincide with a service zone the clouds
        # already own (msecnd.net is the Azure CDN); extend that zone.
        zone = self.dns.get_zone(plan.domain)
        if zone is None:
            zone = Zone(plan.domain, axfr_allowed=plan.axfr_allowed)
            self.dns.add_zone(zone)
        deployed = DeployedDomain(plan=plan, zone=zone)
        self.deployed[plan.domain] = deployed
        zone.add(ResourceRecord(
            plan.domain, RRType.A, self.external_pool.allocate(), ttl=3600
        ))
        self._wire_nameservers(deployed)
        for sub in plan.subdomains:
            self._deploy_subdomain(deployed, sub)
        return deployed

    # -- name servers ---------------------------------------------------------------

    def _wire_nameservers(self, deployed: DeployedDomain) -> None:
        plan = deployed.plan
        servers: List[NameServer] = []
        if plan.dns_hosting == "route53":
            servers = self.route53.create_delegation(count=4)
        elif plan.dns_hosting == "ec2_vm":
            region = plan.home_region_ec2 or "us-east-1"
            for i in range(1, min(plan.ns_count, 4) + 1):
                instance = self.ec2.launch_instance(
                    account_id=f"acct-{plan.domain}",
                    region_name=region,
                    itype=InstanceType.M1_SMALL,
                    role=InstanceRole.NAME_SERVER,
                    rng=self.rng,
                )
                deployed.instances.append(instance)
                hostname = f"ns{i}.{plan.domain}"
                deployed.zone.add(ResourceRecord(
                    hostname, RRType.A, instance.public_ip, ttl=3600
                ))
                server = NameServer(
                    hostname=hostname, address=instance.public_ip
                )
                self.dns.register_nameserver(server)
                servers.append(server)
        elif plan.dns_hosting == "azure_vm":
            region = plan.home_region_azure or "us-north"
            for i in range(1, 3):
                service = self.azure.create_cloud_service(
                    region_name=region,
                    kind=ServiceKind.SINGLE_VM,
                    account_id=f"acct-{plan.domain}",
                )
                hostname = f"ns{i}.{plan.domain}"
                deployed.zone.add(ResourceRecord(
                    hostname, RRType.A, service.public_ip, ttl=3600
                ))
                server = NameServer(
                    hostname=hostname, address=service.public_ip
                )
                self.dns.register_nameserver(server)
                servers.append(server)
        elif plan.dns_hosting == "external_provider":
            provider = self.rng.choice(self._dns_providers)
            want = max(2, min(plan.ns_count, len(provider)))
            servers = provider[:want]
        else:  # self_hosted_external
            for i in range(1, min(plan.ns_count, 4) + 1):
                hostname = f"ns{i}.{plan.domain}"
                address = self.external_pool.allocate_fresh()
                deployed.zone.add(ResourceRecord(
                    hostname, RRType.A, address, ttl=3600
                ))
                server = NameServer(hostname=hostname, address=address)
                self.dns.register_nameserver(server)
                servers.append(server)
        # Pad with a secondary provider when the plan wants more
        # servers than the primary hosting offers (common in practice).
        if len(servers) < plan.ns_count:
            extra = self.rng.choice(self._dns_providers)
            for server in extra:
                if len(servers) >= plan.ns_count:
                    break
                if server not in servers:
                    servers.append(server)
        deployed.nameservers = servers
        for server in servers:
            deployed.zone.add(ResourceRecord(
                deployed.plan.domain, RRType.NS, server.hostname, ttl=3600
            ))

    # -- subdomains ---------------------------------------------------------------------

    def _deploy_subdomain(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        if sub.kind == "external" and sub.frontend == "other_cdn":
            self._deploy_other_cdn(deployed, sub)
            return
        if sub.kind == "external":
            deployed.zone.add(ResourceRecord(
                sub.fqdn, RRType.A, self.external_pool.allocate(), ttl=3600
            ))
            return
        handler = {
            "vm": self._deploy_vm,
            "elb": self._deploy_elb,
            "beanstalk": self._deploy_beanstalk,
            "heroku": self._deploy_heroku,
            "heroku_elb": self._deploy_heroku_elb,
            "other_cname": self._deploy_other_cname,
            "cs_direct": self._deploy_cs_direct,
            "cs_cname": self._deploy_cs_cname,
            "tm": self._deploy_tm,
            "cloudfront": self._deploy_cloudfront,
            "azure_cdn": self._deploy_azure_cdn,
            "other_cdn": self._deploy_other_cdn,
        }.get(sub.frontend)
        if handler is None:
            raise ValueError(f"unknown frontend {sub.frontend!r}")
        handler(deployed, sub)

    def _launch_front_vms(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> List[Instance]:
        """Front-end VMs across the subdomain's regions and zones.

        Subdomains of the same domain share a per-region VM pool: once
        the pool reaches the domain's cap, further subdomains reuse
        pooled instances (matching the planned zones where possible).
        Mass-hosting domains with hundreds of subdomains therefore run
        on a handful of front ends, as the paper observed.
        """
        domain = deployed.plan.domain
        account = f"acct-{domain}"
        cap = self._vm_pool_caps.get(domain)
        if cap is None:
            cap = self.rng.randint(3, 8)
            self._vm_pool_caps[domain] = cap
        instances: List[Instance] = []
        for region_name, zones in zip(sub.regions, sub.zone_indices):
            pool = self._vm_pools.setdefault((domain, region_name), [])
            chosen: List[Instance] = []
            for i in range(max(sub.n_vms, len(zones))):
                zone = zones[i % len(zones)]
                candidates = [
                    p for p in pool
                    if p.zone_index == zone and p not in chosen
                ]
                reuse = candidates and (
                    len(pool) >= cap or self.rng.random() < 0.5
                )
                if reuse:
                    chosen.append(self.rng.choice(candidates))
                    continue
                instance = self.ec2.launch_instance(
                    account_id=account,
                    region_name=region_name,
                    physical_zone=zone,
                    itype=InstanceType.M1_MEDIUM,
                    role=InstanceRole.WEB,
                    rng=self.rng,
                )
                if len(pool) < cap:
                    pool.append(instance)
                chosen.append(instance)
            instances.extend(chosen)
        deployed.instances.extend(instances)
        return instances

    def _deploy_vm(self, deployed: DeployedDomain, sub: SubdomainPlan) -> None:
        for instance in self._launch_front_vms(deployed, sub):
            deployed.zone.add(ResourceRecord(
                sub.fqdn, RRType.A, instance.public_ip, ttl=300
            ))
        if sub.kind == "hybrid":
            deployed.zone.add(ResourceRecord(
                sub.fqdn, RRType.A, self.external_pool.allocate(), ttl=300
            ))

    def _deploy_elb(self, deployed: DeployedDomain, sub: SubdomainPlan) -> None:
        region_name = sub.regions[0]
        elb = self.elb_fleet.create_load_balancer(
            region_name=region_name,
            zone_indices=list(sub.zone_indices[0]),
            total_proxies=sub.elb_physical,
        )
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, elb.cname, ttl=300
        ))

    def _deploy_beanstalk(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        cname = self.beanstalk.create_environment(
            region_name=sub.regions[0],
            zone_indices=list(sub.zone_indices[0]),
        )
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, cname, ttl=300
        ))

    def _deploy_heroku(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        cname = self.heroku.create_app(use_elb=False)
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, cname, ttl=300
        ))

    def _deploy_heroku_elb(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        cname = self.heroku.create_app(use_elb=True)
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, cname, ttl=300
        ))

    def _deploy_other_cname(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        """A CNAME the paper's filters don't recognize, still backed by
        cloud front ends (managed-hosting partners, white-label CDNs)."""
        partner = self.rng.choice(self._host_partners)
        target = f"w{next(self._partner_counter)}.{partner.origin}"
        if sub.provider == "ec2":
            for instance in self._launch_front_vms(deployed, sub):
                partner.add(ResourceRecord(
                    target, RRType.A, instance.public_ip, ttl=300
                ))
        else:
            service = self.azure.create_cloud_service(
                region_name=sub.regions[0],
                kind=ServiceKind.VM_GROUP,
                account_id=f"acct-{deployed.plan.domain}",
            )
            partner.add(ResourceRecord(
                target, RRType.A, service.public_ip, ttl=300
            ))
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, target, ttl=300
        ))

    def _cloud_service_for(self, domain: str, region_name: str):
        """A Cloud Service for one subdomain, shared within the domain
        (Azure's 4.5K CS-front subdomains mapped to just 790 services)."""
        pool = self._cs_pools.setdefault((domain, region_name), [])
        if pool and (len(pool) >= 2 or self.rng.random() < 0.6):
            return self.rng.choice(pool)
        service = self.azure.create_cloud_service(
            region_name=region_name,
            kind=self._cs_kind(),
            account_id=f"acct-{domain}",
        )
        if len(pool) < 2:
            pool.append(service)
        return service

    def _deploy_cs_direct(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        for region_name in sub.regions:
            service = self._cloud_service_for(
                deployed.plan.domain, region_name
            )
            deployed.zone.add(ResourceRecord(
                sub.fqdn, RRType.A, service.public_ip, ttl=300
            ))

    def _deploy_cs_cname(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        service = self._cloud_service_for(
            deployed.plan.domain, sub.regions[0]
        )
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, service.cname, ttl=300
        ))

    def _cs_kind(self) -> str:
        return _CS_KINDS.choose(self.rng)

    def _deploy_tm(self, deployed: DeployedDomain, sub: SubdomainPlan) -> None:
        services = [
            self.azure.create_cloud_service(
                region_name=region_name,
                kind=self._cs_kind(),
                account_id=f"acct-{deployed.plan.domain}",
            )
            for region_name in sub.regions
        ]
        policy = _TM_POLICIES.choose(self.rng)
        profile = self.azure.create_traffic_manager(services, policy=policy)
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, profile.cname, ttl=300
        ))

    def _deploy_cloudfront(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        cname = self.cloudfront.create_distribution()
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, cname, ttl=300
        ))

    def _deploy_azure_cdn(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        cname = self.azure_cdn.create_endpoint()
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, cname, ttl=300
        ))

    def _deploy_other_cdn(
        self, deployed: DeployedDomain, sub: SubdomainPlan
    ) -> None:
        zone, edges = self.rng.choice(self._other_cdns)
        target = f"c{next(self._partner_counter)}.{zone.origin}"
        if not zone.has_name(target):
            for edge in self.rng.sample(edges, k=2):
                zone.add(ResourceRecord(target, RRType.A, edge, ttl=300))
        deployed.zone.add(ResourceRecord(
            sub.fqdn, RRType.CNAME, target, ttl=300
        ))
