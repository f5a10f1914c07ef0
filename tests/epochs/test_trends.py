"""Unit tests for the cross-epoch trend experiments."""

import pytest

from repro.epochs.trends import (
    Snapshot,
    TrendContext,
    run_trends,
    trend_specs,
)


def _snapshot(epoch, cloud, **overrides):
    fields = dict(
        label=f"epoch-{epoch}",
        virtual_time_s=epoch * 180 * 86400.0,
        cloud_domains=cloud,
        cloud_subdomains=3 * cloud,
        ec2_share=0.7,
        azure_share=0.3,
        multi_region_fraction=0.1,
        epoch=epoch,
        region_subdomains={"us-east-1": 2 * cloud, "eu-west-1": cloud},
        provider_domains={"EC2 only": cloud, "EC2 + Azure": 0},
    )
    fields.update(overrides)
    return Snapshot(**fields)


def test_context_requires_snapshots():
    with pytest.raises(ValueError):
        TrendContext([], num_domains=100)


def test_trend_specs_are_info_only():
    for spec in trend_specs():
        assert spec.paper_section
        for expectation in spec.expectations:
            assert expectation.paper is None


def test_run_trends_measures_growth():
    rows = run_trends(
        [_snapshot(0, 10), _snapshot(1, 16)], num_domains=200
    )
    by_id = {row["id"]: row for row in rows}
    assert set(by_id) == {
        "trend-cloud-share", "trend-provider-mix", "trend-consolidation",
    }
    share = by_id["trend-cloud-share"]["measured"]
    assert share["epochs"] == 2
    assert share["cloud_domains_added"] == 6
    assert share["cloud_share_first_pct"] == pytest.approx(5.0)
    assert share["cloud_share_last_pct"] == pytest.approx(8.0)
    consolidation = by_id["trend-consolidation"]["measured"]
    assert consolidation["top_region_share_last_pct"] == pytest.approx(
        100.0 * 2 / 3
    )
    assert "Cloud share over time" in by_id["trend-cloud-share"]["rendered"]


def test_consolidation_handles_empty_regions():
    rows = run_trends(
        [_snapshot(0, 0, region_subdomains={}, cloud_subdomains=0)],
        num_domains=200,
    )
    by_id = {row["id"]: row for row in rows}
    measured = by_id["trend-consolidation"]["measured"]
    assert measured["top_region_share_last_pct"] == 0.0
    assert measured["top3_region_share_last_pct"] == 0.0

