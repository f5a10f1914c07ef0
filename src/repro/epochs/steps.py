"""Composable, deterministic epoch steps.

Each :class:`EpochStep` is a frozen value object describing one kind of
world evolution (cloud adoption, region expansion, provider migration,
tenant churn).  Applying a step mutates a :class:`~repro.world.World`
in place using an explicitly passed RNG — the epoch timeline derives
one named stream per (epoch, position, step) so a plan's history is a
pure function of the world seed — and returns an :class:`EpochDiff`
recording exactly which domains, subdomains, regions, and tenants
changed.

The diff is what makes incremental reuse auditable: the series
manifest stores it verbatim, and the per-kind epoch fingerprints
(:meth:`repro.epochs.plan.Epoch.fingerprint`) are built from each
step's declared ``affects`` set.  ``series.json`` records all three;
the WAN fingerprint also joins the WAN matrices' artifact key, so
while no step touches them they keep their epoch-0 key and hit the
content-addressed store.

A step draws only from the RNG it is handed:
:meth:`repro.epochs.plan.Epoch.build_world` derives one stream per
(epoch, position, step), so no step's draws depend on which steps ran
before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, FrozenSet, List, Tuple

from repro.cloud.azure import ServiceKind
from repro.cloud.base import InstanceRole, InstanceType
from repro.dns.records import RRType, ResourceRecord
from repro.workload.mixtures import sample_discrete
from repro.workload.plans import SubdomainPlan

#: Pipeline products a step may change.  No current step affects
#: ``wan`` — WAN paths key on (provider, region) and the default probe
#: policy never draws the instance-keyed loss lanes — so the WAN
#: matrices cache-hit at every epoch (verified by
#: tests/epochs/test_series.py).
AFFECT_KINDS = ("dataset", "capture", "wan")


@dataclass(frozen=True)
class EpochDiff:
    """Exactly what one step changed, for the series manifest."""

    step: str
    domains: Tuple[str, ...] = ()
    subdomains: Tuple[str, ...] = ()
    regions: Tuple[str, ...] = ()
    tenants: Tuple[str, ...] = ()
    instances_launched: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.domains or self.subdomains or self.tenants)

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "domains": list(self.domains),
            "subdomains": list(self.subdomains),
            "regions": list(self.regions),
            "tenants": list(self.tenants),
            "instances_launched": self.instances_launched,
        }


@dataclass(frozen=True)
class EpochStep:
    """Base class: a deterministic world mutation between epochs."""

    count: int

    #: Stable step identity used in RNG stream labels and diffs.
    name: ClassVar[str] = "step"
    #: Which artifact kinds this step invalidates.
    affects: ClassVar[FrozenSet[str]] = frozenset()

    def spec(self) -> str:
        """Canonical encoding, the fingerprint ingredient."""
        from repro.artifacts.keys import canonical

        return canonical(self)

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        raise NotImplementedError


def _diff(
    step: "EpochStep",
    domains: List[str],
    subdomains: List[str],
    regions: List[str],
    tenants: List[str],
    launched: int,
) -> EpochDiff:
    return EpochDiff(
        step=step.name,
        domains=tuple(domains),
        subdomains=tuple(subdomains),
        regions=tuple(sorted(set(regions))),
        tenants=tuple(tenants),
        instances_launched=launched,
    )


@dataclass(frozen=True)
class CloudAdoption(EpochStep):
    """Previously cloud-free domains put one subdomain on EC2.

    Adoption in the wild: one app at a time, us-east first (the region
    draw follows the paper's Table 7 mixture).
    """

    name: ClassVar[str] = "cloud-adoption"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = [plan for plan in world.plans if not plan.is_cloud_using]
        domains: List[str] = []
        subdomains: List[str] = []
        regions: List[str] = []
        launched = 0
        for plan in rng.sample(candidates, k=min(self.count, len(candidates))):
            region = sample_discrete(
                rng, world.config.mixtures.ec2_region_weights
            )
            label = rng.choice(("app", "api", "beta", "cloud"))
            fqdn = f"{label}.{plan.domain}"
            zone = world.dns.get_zone(plan.domain)
            if zone is None or zone.has_name(fqdn):
                continue
            instance = world.ec2.launch_instance(
                account_id=f"acct-{plan.domain}",
                region_name=region,
                itype=InstanceType.M1_MEDIUM,
                role=InstanceRole.WEB,
                rng=rng,
            )
            zone.add(ResourceRecord(fqdn, RRType.A, instance.public_ip,
                                    ttl=300))
            plan.category = "ec2_other"
            plan.home_region_ec2 = region
            plan.subdomains.append(SubdomainPlan(
                fqdn=fqdn, kind="cloud", provider="ec2", frontend="vm",
                regions=(region,), zone_indices=((instance.zone_index,),),
                n_vms=1,
            ))
            domains.append(plan.domain)
            subdomains.append(fqdn)
            regions.append(region)
            launched += 1
        return _diff(self, domains, subdomains, regions, domains, launched)


@dataclass(frozen=True)
class RegionExpansion(EpochStep):
    """Single-region EC2 VM front ends add a replica region —
    the paper's own recommendation being taken up."""

    name: ClassVar[str] = "region-expansion"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = []
        for plan in world.plans:
            for sub in plan.cloud_subdomains():
                if (
                    sub.provider == "ec2"
                    and sub.frontend == "vm"
                    and len(sub.regions) == 1
                ):
                    candidates.append((plan, sub))
        domains: List[str] = []
        subdomains: List[str] = []
        regions: List[str] = []
        launched = 0
        for plan, sub in rng.sample(
            candidates, k=min(self.count, len(candidates))
        ):
            zone = world.dns.get_zone(plan.domain)
            if zone is None:
                continue
            current = sub.regions[0]
            options = [r for r in world.ec2.region_names() if r != current]
            region = rng.choice(options)
            instance = world.ec2.launch_instance(
                account_id=f"acct-{plan.domain}",
                region_name=region,
                itype=InstanceType.M1_MEDIUM,
                role=InstanceRole.WEB,
                rng=rng,
            )
            zone.add(ResourceRecord(
                sub.fqdn, RRType.A, instance.public_ip, ttl=300
            ))
            sub.regions = sub.regions + (region,)
            sub.zone_indices = sub.zone_indices + ((instance.zone_index,),)
            domains.append(plan.domain)
            subdomains.append(sub.fqdn)
            regions.append(region)
            launched += 1
        return _diff(self, domains, subdomains, regions, domains, launched)


@dataclass(frozen=True)
class MigrationToEc2(EpochStep):
    """Azure-hosted subdomains move to EC2 (records replaced rather
    than accreted — a true migration)."""

    name: ClassVar[str] = "migration-to-ec2"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = []
        for plan in world.plans:
            for sub in plan.cloud_subdomains():
                if sub.provider == "azure" and sub.frontend in (
                    "cs_direct", "cs_cname"
                ):
                    candidates.append((plan, sub))
        domains: List[str] = []
        subdomains: List[str] = []
        regions: List[str] = []
        launched = 0
        for plan, sub in rng.sample(
            candidates, k=min(self.count, len(candidates))
        ):
            zone = world.dns.get_zone(plan.domain)
            if zone is None:
                continue
            region = sample_discrete(
                rng, world.config.mixtures.ec2_region_weights
            )
            instance = world.ec2.launch_instance(
                account_id=f"acct-{plan.domain}",
                region_name=region,
                itype=InstanceType.M1_MEDIUM,
                role=InstanceRole.WEB,
                rng=rng,
            )
            zone.remove(sub.fqdn)
            zone.add(ResourceRecord(
                sub.fqdn, RRType.A, instance.public_ip, ttl=300
            ))
            sub.provider = "ec2"
            sub.frontend = "vm"
            sub.regions = (region,)
            sub.zone_indices = ((instance.zone_index,),)
            sub.n_vms = 1
            domains.append(plan.domain)
            subdomains.append(sub.fqdn)
            regions.append(region)
            launched += 1
        return _diff(self, domains, subdomains, regions, domains, launched)


@dataclass(frozen=True)
class MigrationToAzure(EpochStep):
    """EC2 VM subdomains move to an Azure cloud service (the reverse
    flow — by 2013 traffic ran both ways)."""

    name: ClassVar[str] = "migration-to-azure"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = []
        for plan in world.plans:
            for sub in plan.cloud_subdomains():
                if sub.provider == "ec2" and sub.frontend == "vm":
                    candidates.append((plan, sub))
        domains: List[str] = []
        subdomains: List[str] = []
        regions: List[str] = []
        launched = 0
        for plan, sub in rng.sample(
            candidates, k=min(self.count, len(candidates))
        ):
            zone = world.dns.get_zone(plan.domain)
            if zone is None:
                continue
            region = sample_discrete(
                rng, world.config.mixtures.azure_region_weights
            )
            service = world.azure.create_cloud_service(
                region_name=region,
                kind=ServiceKind.SINGLE_VM,
                account_id=f"acct-{plan.domain}",
            )
            zone.remove(sub.fqdn)
            zone.add(ResourceRecord(
                sub.fqdn, RRType.A, service.public_ip, ttl=300
            ))
            sub.provider = "azure"
            sub.frontend = "cs_direct"
            sub.regions = (region,)
            sub.zone_indices = ((0,),)
            sub.n_vms = 1
            domains.append(plan.domain)
            subdomains.append(sub.fqdn)
            regions.append(region)
            launched += 1
        return _diff(self, domains, subdomains, regions, domains, launched)


@dataclass(frozen=True)
class DualProviderAdoption(EpochStep):
    """Single-provider EC2 subdomains add an Azure answer on the same
    name — the "EC2 + Azure" category Table 3 counts separately."""

    name: ClassVar[str] = "dual-provider-adoption"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = []
        for plan in world.plans:
            for sub in plan.cloud_subdomains():
                if sub.provider == "ec2" and sub.frontend == "vm":
                    candidates.append((plan, sub))
        domains: List[str] = []
        subdomains: List[str] = []
        regions: List[str] = []
        launched = 0
        for plan, sub in rng.sample(
            candidates, k=min(self.count, len(candidates))
        ):
            zone = world.dns.get_zone(plan.domain)
            if zone is None:
                continue
            region = sample_discrete(
                rng, world.config.mixtures.azure_region_weights
            )
            service = world.azure.create_cloud_service(
                region_name=region,
                kind=ServiceKind.SINGLE_VM,
                account_id=f"acct-{plan.domain}",
            )
            zone.add(ResourceRecord(
                sub.fqdn, RRType.A, service.public_ip, ttl=300
            ))
            domains.append(plan.domain)
            subdomains.append(sub.fqdn)
            regions.append(region)
            launched += 1
        return _diff(self, domains, subdomains, regions, domains, launched)


@dataclass(frozen=True)
class TenantChurn(EpochStep):
    """Cloud-using domains leave the cloud entirely: their cloud
    records are withdrawn and the tenant's plans revert to external
    hosting.  Instances stay allocated (churned tenants rarely clean
    up), which keeps all earlier epochs' address plans stable."""

    name: ClassVar[str] = "tenant-churn"
    affects: ClassVar[FrozenSet[str]] = frozenset({"dataset", "capture"})

    def apply(self, world: Any, rng: Any) -> EpochDiff:
        candidates = [
            plan for plan in world.plans
            if plan.is_cloud_using and plan.notable is None
        ]
        domains: List[str] = []
        subdomains: List[str] = []
        for plan in rng.sample(candidates, k=min(self.count, len(candidates))):
            zone = world.dns.get_zone(plan.domain)
            if zone is None:
                continue
            for sub in plan.cloud_subdomains():
                zone.remove(sub.fqdn)
                sub.kind = "external"
                sub.provider = None
                sub.frontend = None
                sub.regions = ()
                sub.zone_indices = ()
                sub.n_vms = 0
                subdomains.append(sub.fqdn)
            plan.category = "none"
            plan.home_region_ec2 = None
            plan.home_region_azure = None
            domains.append(plan.domain)
        return _diff(self, domains, subdomains, [], domains, 0)


#: All concrete step classes, for registries and tests.
STEP_TYPES: Tuple[type, ...] = (
    CloudAdoption,
    RegionExpansion,
    MigrationToEc2,
    MigrationToAzure,
    DualProviderAdoption,
    TenantChurn,
)
