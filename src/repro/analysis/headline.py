"""Regenerating the paper's abstract, number by number.

The abstract makes five quantitative claims.  This module re-derives
every one of them from a world's measured datasets and renders the
abstract with the reproduction's own numbers — the most compact
summary of how close the reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.clouduse import CloudUseAnalysis
from repro.analysis.patterns import PatternAnalysis
from repro.analysis.regions import RegionAnalysis
from repro.analysis.wan import WanAnalysis
from repro.world import World

ABSTRACT_TEMPLATE = """\
Our results show that: {cloud_share:.1f}% of the Alexa top {alexa:,}
use EC2/Azure; there exist several common deployment patterns for
cloud-using web service front ends ({vm_share:.0f}% of EC2-using
subdomains front with plain VMs); and services can significantly
improve their wide-area performance and failure tolerance by making
better use of existing regional diversity: {single_region:.0f}% of
EC2-using subdomains sit in one region today, while expanding to
three regions would cut average client latency by
{k3_gain:.0f}%.  Driving these analyses are several datasets,
including one with {dns_subdomains:,} cloud-using subdomains measured
over DNS and a packet capture from a large university network.
"""


@dataclass
class HeadlineNumbers:
    """The abstract's five claims, measured."""

    alexa_size: int
    cloud_share_pct: float        # paper: 4%
    vm_front_share_pct: float     # paper: 71.5%
    single_region_pct: float      # paper: 97%
    k3_latency_gain_pct: float    # paper: 33%
    dns_subdomains: int           # paper: 713,910

    def render_abstract(self) -> str:
        return ABSTRACT_TEMPLATE.format(
            cloud_share=self.cloud_share_pct,
            alexa=self.alexa_size,
            vm_share=self.vm_front_share_pct,
            single_region=self.single_region_pct,
            k3_gain=self.k3_latency_gain_pct,
            dns_subdomains=self.dns_subdomains,
        )


def measure_headline(
    world: World,
    clouduse: CloudUseAnalysis,
    patterns: PatternAnalysis,
    regions: RegionAnalysis,
    wan: Optional[WanAnalysis] = None,
) -> HeadlineNumbers:
    """Re-derive the abstract's numbers from measured data.

    Takes the analyses a run already holds, so their memoized patterns
    and region usages are reused rather than derived again.
    """
    report = clouduse.report()
    summary = patterns.feature_summary()
    k3_gain = 0.0
    if wan is not None:
        frontier = wan.optimal_k_regions("latency")
        k3_gain = 100.0 * wan.improvement_at_k(frontier, 3)
    ec2_subs = report.ec2_total_subdomains or 1
    return HeadlineNumbers(
        alexa_size=len(world.alexa),
        cloud_share_pct=100.0 * report.total_domains / len(world.alexa),
        vm_front_share_pct=(
            100.0 * summary["vm"]["subdomains"] / ec2_subs
        ),
        single_region_pct=(
            100.0 * regions.single_region_fraction("ec2")
        ),
        k3_latency_gain_pct=k3_gain,
        dns_subdomains=report.total_subdomains,
    )
