"""Capture-side traffic analysis (§3.1 and §3.3).

Thin orchestration over :class:`repro.capture.BroAnalyzer`, shaping its
aggregates into the paper's tables: per-cloud shares (Table 1),
protocol mix with percentage columns (Table 2), top domains by volume
(Table 5), content types with mean/max object sizes (Table 6), and the
Figure 3 flow-count/size CDFs.  Every table reads the analyzer's one
aggregate of :attr:`TrafficAnalysis.trace`, built on the first query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture.analyzer import BroAnalyzer
from repro.capture.flow import Trace
from repro.obs import NOOP, Observability
from repro.report.cdf import CDF
from repro.world import World

PROTOCOL_ORDER = (
    "ICMP", "HTTP (TCP)", "HTTPS (TCP)", "DNS (UDP)",
    "Other (TCP)", "Other (UDP)",
)


@dataclass
class TrafficReport:
    """All §3 capture statistics in one bundle."""

    #: provider → (byte %, flow %) of the capture total (Table 1).
    cloud_shares: Dict[str, tuple] = field(default_factory=dict)
    #: scope ('ec2'|'azure'|'overall') → protocol → (byte %, flow %)
    #: relative to the scope's totals (Table 2).
    protocol_mix: Dict[str, Dict[str, tuple]] = field(default_factory=dict)
    #: provider → ranked rows (Table 5).
    top_domains: Dict[str, List[dict]] = field(default_factory=dict)
    #: Table 6 rows.
    content_types: List[dict] = field(default_factory=list)
    #: unique cloud-using domains seen in the capture, per provider.
    unique_domains: Dict[str, int] = field(default_factory=dict)


class TrafficAnalysis:
    """Runs the capture analyses."""

    def __init__(
        self,
        world: World,
        trace: Optional[Trace] = None,
        obs: Observability = NOOP,
    ):
        self.world = world
        self.trace = trace if trace is not None else world.capture_trace()
        self.analyzer = BroAnalyzer(
            {
                "ec2": world.ec2.published_range_set(),
                "azure": world.azure.published_range_set(),
            },
            obs=obs,
        )

    # -- Tables 1, 2 -----------------------------------------------------------

    def table1(self) -> Dict[str, tuple]:
        shares = self.analyzer.cloud_shares(self.trace)
        total_bytes = sum(s.bytes for s in shares.values()) or 1
        total_flows = sum(s.flows for s in shares.values()) or 1
        return {
            provider: (
                100.0 * stats.bytes / total_bytes,
                100.0 * stats.flows / total_flows,
            )
            for provider, stats in shares.items()
        }

    def table2(self) -> Dict[str, Dict[str, tuple]]:
        breakdown = self.analyzer.protocol_breakdown(self.trace)
        result: Dict[str, Dict[str, tuple]] = {}
        for scope, protocols in breakdown.items():
            scope_bytes = sum(s.bytes for s in protocols.values()) or 1
            scope_flows = sum(s.flows for s in protocols.values()) or 1
            result[scope] = {
                label: (
                    100.0 * protocols[label].bytes / scope_bytes,
                    100.0 * protocols[label].flows / scope_flows,
                )
                for label in PROTOCOL_ORDER
                if label in protocols
            }
        return result

    # -- Table 5 ------------------------------------------------------------------

    def table5(self, count: int = 15) -> Dict[str, List[dict]]:
        httpx_bytes = self._total_httpx_bytes()
        result: Dict[str, List[dict]] = {}
        for provider in ("ec2", "azure"):
            rows = []
            for entry in self.analyzer.top_domains_by_volume(
                self.trace, provider, count
            ):
                rows.append({
                    "domain": entry.domain,
                    "rank": self.world.alexa.rank_of(entry.domain),
                    "bytes": entry.total_bytes,
                    "percent_of_httpx": (
                        100.0 * entry.total_bytes / httpx_bytes
                    ),
                })
            result[provider] = rows
        return result

    def _total_httpx_bytes(self) -> int:
        breakdown = self.analyzer.protocol_breakdown(self.trace)
        overall = breakdown["overall"]
        total = 0
        for label in ("HTTP (TCP)", "HTTPS (TCP)"):
            if label in overall:
                total += overall[label].bytes
        return total or 1

    def unique_cloud_domains(self) -> Dict[str, int]:
        domains = self.analyzer.domain_traffic(self.trace)
        counts = {"ec2": 0, "azure": 0}
        for entry in domains.values():
            counts[entry.provider] = counts.get(entry.provider, 0) + 1
        counts["total"] = sum(counts.values())
        return counts

    # -- Table 6 -------------------------------------------------------------------

    def table6(self, count: int = 10) -> List[dict]:
        rows = []
        for stats in self.analyzer.content_types(self.trace)[:count]:
            rows.append({
                "content_type": stats.content_type,
                "bytes": stats.bytes,
                "mean_bytes": stats.mean_bytes,
                "max_bytes": stats.max_bytes,
            })
        return rows

    # -- Figure 3 ---------------------------------------------------------------------

    def flow_count_cdf(self, provider: str, protocol: str) -> CDF:
        return CDF(self.analyzer.flow_count_distribution(
            self.trace, provider, protocol
        ))

    def flow_size_cdf(self, provider: str, protocol: str) -> CDF:
        return CDF(self.analyzer.flow_size_distribution(
            self.trace, provider, protocol
        ))

    def flow_duration_cdf(self, provider: str, protocol: str) -> CDF:
        return CDF(self.analyzer.flow_duration_distribution(
            self.trace, provider, protocol
        ))

    def report(self) -> TrafficReport:
        return TrafficReport(
            cloud_shares=self.table1(),
            protocol_mix=self.table2(),
            top_domains=self.table5(),
            content_types=self.table6(),
            unique_domains=self.unique_cloud_domains(),
        )
