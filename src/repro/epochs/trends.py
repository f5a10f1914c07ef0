"""Cross-epoch trend experiments: what a revisit study would publish.

The series runner summarizes every epoch into a :class:`Snapshot`
(:func:`take_world_snapshot`); the trend experiments here turn that
snapshot sequence into the longitudinal tables the paper's closing
section calls for — cloud share over time, provider mix, and the
regional consolidation curve (per Bhattacherjee et al., "Measuring and
exploiting the cloud consolidation of the Web").

They are ordinary :class:`~repro.experiments.spec.ExperimentSpec`\\ s,
but measured against a :class:`TrendContext` (the snapshot sequence)
rather than an :class:`~repro.experiments.context.ExperimentContext`,
so they live in their own registry (:func:`trend_specs`) instead of
the per-epoch experiment registry.  Every expectation is an ``info``
band: the paper ran once in 2013 and has no trend numbers to score
against — the trends are recorded in ``series.json`` but never gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.clouduse import CloudUseAnalysis
from repro.analysis.dataset import AlexaSubdomainsDataset
from repro.analysis.regions import RegionAnalysis
from repro.experiments.spec import ExperimentSpec, Measurement, expect, info
from repro.obs import NOOP, Observability
from repro.report import TextTable, ascii_series, fmt_num, fmt_share
from repro.world import World


@dataclass
class Snapshot:
    """One measurement epoch's summary (derived fields only).

    A snapshot never holds the epoch's dataset (tens of MB at paper
    scale), so a long series stays constant-memory.
    """

    label: str
    #: Simulation virtual time (seconds since the simulation epoch) at
    #: which the snapshot was taken — deterministic, unlike wall clock.
    virtual_time_s: float
    cloud_domains: int
    cloud_subdomains: int
    ec2_share: float
    azure_share: float
    multi_region_fraction: float
    #: Epoch index on a timeline (0 for ad-hoc snapshots).
    epoch: int = 0
    region_subdomains: Dict[str, int] = field(default_factory=dict)
    #: Domain counts per Table 3 category ("EC2 only", "EC2 + Azure", ...).
    provider_domains: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Deterministic summary for series manifests."""
        return {
            "label": self.label,
            "epoch": self.epoch,
            "virtual_time_s": self.virtual_time_s,
            "cloud_domains": self.cloud_domains,
            "cloud_subdomains": self.cloud_subdomains,
            "ec2_share": round(self.ec2_share, 6),
            "azure_share": round(self.azure_share, 6),
            "multi_region_fraction": round(self.multi_region_fraction, 6),
            "region_subdomains": dict(sorted(
                self.region_subdomains.items()
            )),
            "provider_domains": dict(self.provider_domains),
        }


def take_world_snapshot(
    world: World,
    dataset: AlexaSubdomainsDataset,
    label: str,
    epoch: int = 0,
) -> Snapshot:
    """Summarize one (world, dataset) pair into a :class:`Snapshot`.

    The series runner passes the context's dataset, so the snapshot
    reuses the epoch's own build.
    """
    clouduse = CloudUseAnalysis(world, dataset)
    regions = RegionAnalysis(world, dataset)
    report = clouduse.report()
    region_counts = {
        f"{p}.{r}": v["subdomains"]
        for (p, r), v in regions.region_counts().items()
    }
    multi = 1.0 - regions.single_region_fraction("ec2")
    total = report.total_domains
    return Snapshot(
        label=label,
        virtual_time_s=world.clock.now,
        epoch=epoch,
        cloud_domains=total,
        cloud_subdomains=report.total_subdomains,
        ec2_share=report.ec2_total_domains / total if total else 0.0,
        azure_share=report.azure_total_domains / total if total else 0.0,
        multi_region_fraction=multi,
        region_subdomains=region_counts,
        provider_domains=dict(report.domain_counts),
    )


class TrendContext:
    """What a trend experiment measures: one series' snapshots.

    Duck-types the context attributes :meth:`ExperimentSpec.run`
    reads — ``obs``, ``scenario``, ``epoch`` — so trend specs run
    through the exact same spec machinery as the per-epoch experiments.
    """

    def __init__(
        self,
        snapshots: Sequence[Snapshot],
        num_domains: int,
        obs: Observability = NOOP,
    ):
        if not snapshots:
            raise ValueError("a trend needs at least one snapshot")
        self.snapshots = list(snapshots)
        #: Total crawled population, the denominator for cloud share
        #: (snapshots only count cloud-using domains).
        self.num_domains = num_domains
        self.obs = obs
        self.scenario = None
        self.epoch = None


def _epoch_label(snapshot: Snapshot) -> str:
    days = snapshot.virtual_time_s / 86400.0
    return f"{snapshot.epoch} (+{fmt_num(days)}d)"


def _cloud_share(context: TrendContext) -> Measurement:
    table = TextTable(
        ["Epoch", "Cloud domains", "Cloud subdomains", "Share of crawl %"],
        title="Cloud share over time",
    )
    shares: List[float] = []
    for snapshot in context.snapshots:
        share = snapshot.cloud_domains / max(context.num_domains, 1)
        shares.append(share)
        table.add_row([
            _epoch_label(snapshot),
            snapshot.cloud_domains,
            snapshot.cloud_subdomains,
            fmt_share(share),
        ])
    plot = ascii_series(
        [("cloud share", [100.0 * s for s in shares])], height=8
    )
    first, last = context.snapshots[0], context.snapshots[-1]
    measured = {
        "epochs": len(context.snapshots),
        "cloud_share_first_pct": 100.0 * shares[0],
        "cloud_share_last_pct": 100.0 * shares[-1],
        "cloud_domains_added": last.cloud_domains - first.cloud_domains,
    }
    return Measurement(
        rendered=table.render() + "\n\n" + plot, measured=measured
    )


def _provider_mix(context: TrendContext) -> Measurement:
    table = TextTable(
        ["Epoch", "EC2 %", "Azure %", "EC2 + Azure %"],
        title="Provider mix among cloud-using domains",
    )
    ec2: List[float] = []
    azure: List[float] = []
    dual: List[float] = []
    for snapshot in context.snapshots:
        total = max(snapshot.cloud_domains, 1)
        dual_count = snapshot.provider_domains.get("EC2 + Azure", 0)
        ec2.append(snapshot.ec2_share)
        azure.append(snapshot.azure_share)
        dual.append(dual_count / total)
        table.add_row([
            _epoch_label(snapshot),
            fmt_share(snapshot.ec2_share),
            fmt_share(snapshot.azure_share),
            fmt_share(dual_count / total),
        ])
    measured = {
        "ec2_share_first_pct": 100.0 * ec2[0],
        "ec2_share_last_pct": 100.0 * ec2[-1],
        "azure_share_last_pct": 100.0 * azure[-1],
        "dual_share_last_pct": 100.0 * dual[-1],
    }
    return Measurement(rendered=table.render(), measured=measured)


def _region_shares(snapshot: Snapshot) -> Tuple[float, float]:
    """(top-1, top-3) region shares of cloud subdomains."""
    counts = sorted(snapshot.region_subdomains.values(), reverse=True)
    total = sum(counts)
    if not total:
        return 0.0, 0.0
    return counts[0] / total, sum(counts[:3]) / total


def _consolidation(context: TrendContext) -> Measurement:
    table = TextTable(
        ["Epoch", "Top region %", "Top-3 regions %", "Multi-region %"],
        title="Consolidation curve (per Bhattacherjee et al.)",
    )
    top1: List[float] = []
    top3: List[float] = []
    for snapshot in context.snapshots:
        one, three = _region_shares(snapshot)
        top1.append(one)
        top3.append(three)
        table.add_row([
            _epoch_label(snapshot),
            fmt_share(one),
            fmt_share(three),
            fmt_share(snapshot.multi_region_fraction),
        ])
    first, last = context.snapshots[0], context.snapshots[-1]
    measured = {
        "top_region_share_first_pct": 100.0 * top1[0],
        "top_region_share_last_pct": 100.0 * top1[-1],
        "top3_region_share_last_pct": 100.0 * top3[-1],
        "multi_region_last_pct": 100.0 * last.multi_region_fraction,
        "multi_region_change_pct": 100.0 * (
            last.multi_region_fraction - first.multi_region_fraction
        ),
    }
    return Measurement(rendered=table.render(), measured=measured)


_TREND_SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        experiment_id="trend-cloud-share",
        title="Cloud share over time",
        headline="Trend: cloud-using share of the crawl per epoch",
        paper_section="§6 (outlook)",
        measure=_cloud_share,
        expectations=(
            expect("epochs", None, info()),
            expect("cloud_share_first_pct", None, info()),
            expect("cloud_share_last_pct", None, info()),
            expect("cloud_domains_added", None, info()),
        ),
    ),
    ExperimentSpec(
        experiment_id="trend-provider-mix",
        title="Provider mix over time",
        headline="Trend: EC2 / Azure / dual-provider mix per epoch",
        paper_section="§6 (outlook)",
        measure=_provider_mix,
        expectations=(
            expect("ec2_share_first_pct", None, info()),
            expect("ec2_share_last_pct", None, info()),
            expect("azure_share_last_pct", None, info()),
            expect("dual_share_last_pct", None, info()),
        ),
    ),
    ExperimentSpec(
        experiment_id="trend-consolidation",
        title="Consolidation curve",
        headline="Trend: regional consolidation of cloud subdomains",
        paper_section="§6 (outlook)",
        measure=_consolidation,
        expectations=(
            expect("top_region_share_first_pct", None, info()),
            expect("top_region_share_last_pct", None, info()),
            expect("top3_region_share_last_pct", None, info()),
            expect("multi_region_last_pct", None, info()),
            expect("multi_region_change_pct", None, info()),
        ),
    ),
)


def trend_specs() -> Tuple[ExperimentSpec, ...]:
    """The cross-epoch trend experiments, in render order."""
    return _TREND_SPECS


def run_trends(
    snapshots: Sequence[Snapshot],
    num_domains: int,
    obs: Observability = NOOP,
) -> List[Dict[str, object]]:
    """Run every trend spec over ``snapshots``; returns manifest rows."""
    context = TrendContext(snapshots, num_domains, obs=obs)
    rows: List[Dict[str, object]] = []
    for spec in trend_specs():
        result = spec.run(context)
        rows.append({
            "id": spec.experiment_id,
            "title": spec.headline,
            "measured": result.measured,
            "rendered": result.rendered,
        })
    return rows
