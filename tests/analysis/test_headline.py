"""Tests for the abstract regenerator."""

import pytest

from repro.analysis.clouduse import CloudUseAnalysis
from repro.analysis.headline import measure_headline
from repro.analysis.patterns import PatternAnalysis
from repro.analysis.regions import RegionAnalysis


@pytest.fixture(scope="module")
def analyses(world, dataset):
    return (
        CloudUseAnalysis(world, dataset),
        PatternAnalysis(world, dataset),
        RegionAnalysis(world, dataset),
    )


@pytest.fixture(scope="module")
def headline(world, analyses, wan):
    return measure_headline(world, *analyses, wan)


class TestHeadline:
    def test_cloud_share_near_paper(self, headline):
        assert 2.5 < headline.cloud_share_pct < 7.5

    def test_vm_share_near_paper(self, headline):
        assert 55.0 < headline.vm_front_share_pct < 85.0

    def test_single_region_near_paper(self, headline):
        assert headline.single_region_pct > 90.0

    def test_k3_gain_positive(self, headline):
        assert headline.k3_latency_gain_pct > 15.0

    def test_abstract_renders_with_numbers(self, headline):
        text = headline.render_abstract()
        assert f"{headline.cloud_share_pct:.1f}%" in text
        assert "EC2/Azure" in text

    def test_without_wan_gain_is_zero(self, world, analyses):
        numbers = measure_headline(world, *analyses, wan=None)
        assert numbers.k3_latency_gain_pct == 0.0
