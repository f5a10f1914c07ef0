"""Availability-zone usage (§4.3): Tables 11-15 and Figures 7-8.

Collects every EC2 "physical instance" address from the Alexa dataset
(front-end VM IPs, physical ELB IPs, Heroku routing IPs), identifies
each one's zone with the combined cartography method, and aggregates
zone usage per subdomain and per domain.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataset import AlexaSubdomainsDataset
from repro.analysis.patterns import PatternAnalysis
from repro.cartography.combined import CombinedZoneIdentifier, CombinedResult
from repro.cartography.latency_method import (
    LatencyZoneIdentifier,
    PROBE_ACCOUNT,
)
from repro.cartography.proximity_method import ProximityZoneIdentifier
from repro.cloud.base import InstanceRole, InstanceType
from repro.net.ipv4 import IPv4Address
from repro.obs import NOOP, Observability
from repro.report.cdf import CDF
from repro.world import World


@dataclass
class CalibrationCell:
    """Table 11 cell: RTTs from the reference probe to one target."""

    instance_type: str
    zone_label: int
    min_ms: float
    median_ms: float


class ZoneAnalysis:
    """Runs cartography over the dataset's EC2 instance addresses."""

    def __init__(
        self,
        world: World,
        dataset: AlexaSubdomainsDataset,
        patterns: Optional[PatternAnalysis] = None,
        obs: Observability = NOOP,
    ):
        self.world = world
        self.dataset = dataset
        self.patterns = patterns or PatternAnalysis(world, dataset)
        self.obs = obs
        self.latency = LatencyZoneIdentifier(world.ec2, world.prober)
        self.proximity = ProximityZoneIdentifier(world.ec2)
        self.combined = CombinedZoneIdentifier(self.latency, self.proximity)
        self._region_results: Dict[str, CombinedResult] = {}
        self._targets: Optional[Dict[str, List[IPv4Address]]] = None
        self._subdomain_zones: Optional[
            Dict[str, FrozenSet[Tuple[str, int]]]
        ] = None

    # -- Table 11: the calibration experiment -------------------------------

    def rtt_calibration(
        self, region_name: str = "us-east-1"
    ) -> List[CalibrationCell]:
        """Same-zone vs cross-zone RTTs by instance type (Table 11)."""
        ec2 = self.world.ec2
        reference = ec2.launch_instance(
            account_id=PROBE_ACCOUNT,
            region_name=region_name,
            zone_label_pos=0,
            itype=InstanceType.T1_MICRO,
            role=InstanceRole.PROBE,
        )
        cells = []
        num_zones = ec2.region(region_name).num_zones
        for itype in (
            InstanceType.T1_MICRO,
            InstanceType.M1_MEDIUM,
            InstanceType.M1_XLARGE,
            InstanceType.M3_2XLARGE,
        ):
            for zone_label in range(num_zones):
                # A controlled experiment: several idle targets per
                # cell, keeping the best-behaved pair (a single noisy
                # co-tenant pair must not poison the calibration).
                best_min = best_median = None
                for _ in range(3):
                    target = ec2.launch_instance(
                        account_id=PROBE_ACCOUNT,
                        region_name=region_name,
                        zone_label_pos=zone_label,
                        itype=itype,
                        role=InstanceRole.PROBE,
                    )
                    result = self.world.prober.tcp_ping(
                        reference, target, count=10
                    )
                    if best_min is None or result.min_ms < best_min:
                        best_min = result.min_ms
                        best_median = result.median_ms
                cells.append(CalibrationCell(
                    instance_type=itype.label,
                    zone_label=zone_label,
                    min_ms=best_min,
                    median_ms=best_median,
                ))
        return cells

    # -- target collection -----------------------------------------------------

    def targets_by_region(self) -> Dict[str, List[IPv4Address]]:
        """Every physical EC2 instance address in the dataset, grouped
        by the region its published range places it in."""
        if self._targets is not None:
            return self._targets
        region_ranges = self.world.ec2.plan.prefix_set()
        addresses: Set[IPv4Address] = set()
        for pattern in self.patterns.patterns():
            addresses.update(pattern.front_vm_ips)
            addresses.update(pattern.elb_ips)
            addresses.update(pattern.heroku_ips)
        targets: Dict[str, List[IPv4Address]] = defaultdict(list)
        for address in addresses:
            region = region_ranges.lookup(address)
            if region is not None:
                targets[region].append(address)
        for bucket in targets.values():
            bucket.sort()
        self._targets = dict(targets)
        return self._targets

    def region_result(self, region_name: str) -> CombinedResult:
        result = self._region_results.get(region_name)
        if result is None:
            targets = self.targets_by_region().get(region_name, [])
            result = self.combined.identify_region(region_name, targets)
            self._region_results[region_name] = result
        return result

    # -- Table 12: latency-only estimates ------------------------------------------

    def latency_estimates(self, region_name: str) -> dict:
        targets = self.targets_by_region().get(region_name, [])
        estimates = self.latency.identify_all(region_name, targets)
        responded = [e for e in estimates if e.responded]
        zone_counter: Counter = Counter()
        unknown = 0
        for est in responded:
            if est.zone_label is None:
                unknown += 1
            else:
                zone_counter[est.zone_label] += 1
        return {
            "region": region_name,
            "targets": len(targets),
            "responded": len(responded),
            "zone_counts": dict(zone_counter),
            "unknown": unknown,
            "unknown_fraction": (
                unknown / len(responded) if responded else 0.0
            ),
        }

    # -- Table 13: accuracy ------------------------------------------------------------

    def accuracy_table(self) -> List[dict]:
        rows = []
        for region_name in sorted(self.targets_by_region()):
            result = self.region_result(region_name)
            acc = result.accuracy
            rows.append({
                "region": region_name,
                "count": acc.count,
                "match": acc.match,
                "unknown": acc.unknown,
                "mismatch": acc.mismatch,
                "error_rate": acc.error_rate,
            })
        return rows

    # -- zone usage per subdomain / domain --------------------------------------------------

    def identified_fraction(self) -> float:
        total = known = 0
        for region_name in self.targets_by_region():
            result = self.region_result(region_name)
            for zone in result.zones.values():
                total += 1
                if zone is not None:
                    known += 1
        return known / total if total else 0.0

    def _zone_of(self, region_name: str, address: IPv4Address):
        return self.region_result(region_name).zones.get(address)

    def subdomain_zones(self) -> Dict[str, FrozenSet[Tuple[str, int]]]:
        """fqdn → set of (region, zone label) its front ends span.

        Built once: the patterns and each region's identification are
        themselves memoized, so later builds could only repeat the
        first.  Every call gets its own dict.
        """
        if self._subdomain_zones is None:
            with self.obs.tracer.span("subdomain-zones", category="view"):
                self._subdomain_zones = self._build_subdomain_zones()
        return dict(self._subdomain_zones)

    def _build_subdomain_zones(
        self,
    ) -> Dict[str, FrozenSet[Tuple[str, int]]]:
        region_ranges = self.world.ec2.plan.prefix_set()
        result: Dict[str, FrozenSet[Tuple[str, int]]] = {}
        for pattern in self.patterns.patterns():
            addresses = (
                pattern.front_vm_ips | pattern.elb_ips | pattern.heroku_ips
            )
            if not addresses:
                continue
            zones: Set[Tuple[str, int]] = set()
            for address in addresses:
                region = region_ranges.lookup(address)
                if region is None:
                    continue
                zone = self._zone_of(region, address)
                if zone is not None:
                    zones.add((region, zone))
            if zones:
                result[pattern.fqdn] = frozenset(zones)
        return result

    def zones_per_subdomain_cdf(self) -> CDF:
        return CDF([
            len(zones) for zones in self.subdomain_zones().values()
        ])

    def zones_per_domain_cdf(self) -> CDF:
        per_domain: Dict[str, List[int]] = defaultdict(list)
        fqdn_domain = {
            p.fqdn: p.domain for p in self.patterns.patterns()
        }
        for fqdn, zones in self.subdomain_zones().items():
            per_domain[fqdn_domain[fqdn]].append(len(zones))
        return CDF([
            sum(counts) / len(counts) for counts in per_domain.values()
        ])

    def multi_region_zone_fraction(self) -> float:
        """Of subdomains using 2+ zones, the share whose zones span
        more than one region (the paper's 3.1%)."""
        multi = cross = 0
        for zones in self.subdomain_zones().values():
            if len(zones) < 2:
                continue
            multi += 1
            if len({region for region, _ in zones}) > 1:
                cross += 1
        return cross / multi if multi else 0.0

    # -- Table 14 ---------------------------------------------------------------------------

    def zone_usage_table(self) -> Dict[str, Dict[int, dict]]:
        """region → zone label → {domains, subdomains}."""
        fqdn_domain = {
            p.fqdn: p.domain for p in self.patterns.patterns()
        }
        result: Dict[str, Dict[int, dict]] = defaultdict(
            lambda: defaultdict(lambda: {"domains": set(), "subdomains": 0})
        )
        for fqdn, zones in self.subdomain_zones().items():
            for region, zone in zones:
                entry = result[region][zone]
                entry["domains"].add(fqdn_domain[fqdn])
                entry["subdomains"] += 1
        return {
            region: {
                zone: {
                    "domains": len(data["domains"]),
                    "subdomains": data["subdomains"],
                }
                for zone, data in zones.items()
            }
            for region, zones in result.items()
        }

    # -- Table 15 ---------------------------------------------------------------------------

    def top_domain_zones(self, count: int = 10) -> List[dict]:
        top = self.patterns.clouduse.top_cloud_domains("ec2", count)
        subdomain_zones = self.subdomain_zones()
        fqdn_domain = {
            p.fqdn: p.domain for p in self.patterns.patterns()
        }
        by_domain: Dict[str, List[Set]] = defaultdict(list)
        for fqdn, zones in subdomain_zones.items():
            by_domain[fqdn_domain[fqdn]].append(zones)
        rows = []
        for entry in top:
            domain = entry["domain"]
            zone_sets = by_domain.get(domain, [])
            all_zones: Set = set()
            k_counter: Counter = Counter()
            for zones in zone_sets:
                all_zones.update(zones)
                k_counter[min(len(zones), 3)] += 1
            rows.append({
                "rank": entry["rank"],
                "domain": domain,
                "cloud_subdomains": entry["cloud_subdomains"],
                "total_zones": len(all_zones),
                "k1": k_counter.get(1, 0),
                "k2": k_counter.get(2, 0),
                "k3": k_counter.get(3, 0),
            })
        return rows

    # -- Figure 7 ----------------------------------------------------------------------------

    def proximity_scatter(
        self, region_name: str = "us-east-1"
    ) -> List[Tuple[int, int]]:
        """(internal IP as int, merged zone label) sample points."""
        return [
            (ip.value, label)
            for ip, label in self.proximity.sample_points(region_name)
        ]

    # -- ground-truth scoring (validation only) --------------------------------------------------

    def ground_truth_accuracy(self) -> dict:
        """Fraction of combined identifications that match the world's
        actual zone placement (never available to a real measurement)."""
        total = correct = 0
        for region_name in self.targets_by_region():
            result = self.region_result(region_name)
            for address, label in result.zones.items():
                if label is None:
                    continue
                actual = self.world.ec2.zone_of_instance_ip(address)
                if actual is None:
                    continue
                total += 1
                predicted = self.combined.label_to_physical(
                    region_name, label
                )
                if predicted == actual:
                    correct += 1
        return {
            "scored": total,
            "correct": correct,
            "accuracy": correct / total if total else 0.0,
        }
