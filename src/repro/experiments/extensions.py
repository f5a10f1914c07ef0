"""Extension experiments: claims the paper states but does not run.

These are not reproductions of printed tables/figures; they execute
the paper's availability hypotheticals (§4.2/§4.3), its routing
proposals (§5.1), its compression implication (§3.3), and regenerate
the abstract's headline numbers.  The paper's stated claims — bounds
and qualitative statements more often than point values — live in the
:data:`EXTENSION_EXPERIMENTS` specs.
"""

from __future__ import annotations

from repro.analysis.availability import AvailabilityAnalysis
from repro.analysis.compression import CompressionAnalysis
from repro.analysis.headline import measure_headline
from repro.analysis.scheduling import RequestScheduler
from repro.experiments.context import ExperimentContext
from repro.experiments.spec import (
    Measurement,
    absolute,
    at_least,
    at_most,
    exact,
    expect,
    info,
    spec,
)
from repro.faults import region_outage, service_outage
from repro.report.format import fmt_mb, fmt_ms, fmt_share
from repro.report.table import TextTable


def run_ext_outages(ctx: ExperimentContext) -> Measurement:
    availability = AvailabilityAnalysis(
        ctx.world, ctx.dataset, ctx.patterns, ctx.zones
    )
    table = TextTable(
        ["Scenario", "Dark", "Degraded", "% of ranking hit"],
        title="Outage drills over the measured deployments",
    )
    us_east = availability.evaluate(region_outage("ec2", "us-east-1"))
    table.add_row([
        us_east.scenario_name, us_east.unavailable, us_east.degraded,
        fmt_share(us_east.alexa_share_hit),
    ])
    zone_reports = availability.zone_blast_radius("us-east-1")
    for zone, report in sorted(zone_reports.items()):
        table.add_row([
            report.scenario_name, report.unavailable, report.degraded,
            fmt_share(report.alexa_share_hit),
        ])
    elb = availability.evaluate(service_outage("elb"))
    table.add_row([
        elb.scenario_name, elb.unavailable, elb.degraded,
        fmt_share(elb.alexa_share_hit),
    ])
    zone_counts = [r.unavailable for r in zone_reports.values()]
    measured = {
        "us_east_ranking_hit_pct": round(
            100 * us_east.alexa_share_hit, 2
        ),
        "zone_blast_asymmetric": max(zone_counts) > min(zone_counts),
        "elb_smaller_than_region": elb.unavailable < us_east.unavailable,
    }
    return Measurement(table.render(), measured)


def run_ext_scheduling(ctx: ExperimentContext) -> Measurement:
    scheduler = RequestScheduler(ctx.wan)
    outcomes = scheduler.compare()
    table = TextTable(
        ["Policy", "Mean ms", "p95 ms", "Server load"],
        title="Request-routing policies over the Figure 12 campaign",
    )
    for outcome in outcomes:
        table.add_row([
            outcome.policy,
            fmt_ms(outcome.mean_latency_ms, 1),
            fmt_ms(outcome.p95_latency_ms, 1),
            f"x{outcome.server_load_factor:.0f}",
        ])
    by_name = {o.policy: o for o in outcomes}
    measured = {
        "multi_region_beats_static": (
            by_name["geo-nearest"].mean_latency_ms
            < by_name["static-home"].mean_latency_ms
        ),
        "parallel_load_factor": by_name["parallel-k"].server_load_factor,
        "oracle_gain_over_geo_pct": round(
            100 * scheduler.geo_penalty(by_name["geo-nearest"].regions), 1
        ),
    }
    return Measurement(table.render(), measured)


def run_ext_compression(ctx: ExperimentContext) -> Measurement:
    analysis = CompressionAnalysis(ctx.traffic.analyzer)
    report = analysis.report(ctx.traffic.trace)
    table = TextTable(
        ["Content type", "MB", "Saved MB", "Saving"],
        title="Compression opportunity in the capture's HTTP bytes",
    )
    for opportunity in report.per_type[:8]:
        table.add_row([
            opportunity.content_type,
            fmt_mb(opportunity.original_bytes),
            fmt_mb(opportunity.saved_bytes),
            f"{100 * opportunity.saving_fraction:.0f}%",
        ])
    measured = {
        "overall_saving_pct": round(
            100 * report.overall_saving_fraction, 1
        ),
        "text_is_top_saver": report.per_type[0].content_type.startswith(
            "text/"
        ),
    }
    return Measurement(table.render(), measured)


def run_ext_headline(ctx: ExperimentContext) -> Measurement:
    numbers = measure_headline(
        ctx.world, ctx.clouduse, ctx.patterns, ctx.regions, ctx.wan
    )
    measured = {
        "cloud_share_pct": round(numbers.cloud_share_pct, 1),
        "vm_front_share_pct": round(numbers.vm_front_share_pct, 1),
        "single_region_pct": round(numbers.single_region_pct, 1),
        "k3_latency_gain_pct": round(numbers.k3_latency_gain_pct, 1),
    }
    return Measurement(numbers.render_abstract(), measured)


EXTENSION_EXPERIMENTS = [
    spec(
        "ext-outages", "Outage drills",
        "Availability hypotheticals, executed", "4.2/4.3",
        run_ext_outages,
        expect("us_east_ranking_hit_pct",
               ">= 2.3 (stated lower bound)", at_least(2.3, 1.0)),
        expect("zone_blast_asymmetric", True, exact()),
        expect("elb_smaller_than_region", True, exact()),
    ),
    spec(
        "ext-scheduling", "Routing policies",
        "Global scheduling vs parallel requests", "5.1",
        run_ext_scheduling,
        expect("multi_region_beats_static", True, exact()),
        expect("parallel_load_factor",
               "k (the stated cost of racing)", info()),
        expect("oracle_gain_over_geo_pct",
               "small unless paths are congested", at_most(5, 10)),
    ),
    spec(
        "ext-compression", "Compression opportunity",
        "WAN savings from compressing text", "3.3",
        run_ext_compression,
        expect("overall_saving_pct",
               "substantial (implied by §3.3)", at_least(20, 10)),
        expect("text_is_top_saver", True, exact()),
    ),
    spec(
        "ext-headline", "Abstract regenerated",
        "The abstract, regenerated", "abstract", run_ext_headline,
        expect("cloud_share_pct", 4.0, absolute(0.75, 2.5)),
        expect("vm_front_share_pct", 71.5, absolute(4, 12)),
        expect("single_region_pct", 97.0, absolute(2, 6)),
        expect("k3_latency_gain_pct", 33.0, absolute(15, 40),
               note="see figure12"),
    ),
]
