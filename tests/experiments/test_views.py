"""Derived views: built once per context and charged to their own span.

The k-region frontier, the capture aggregate and the subdomain zones
are each read by several experiments; each must be built once, appear
once in ``telemetry()["views_s"]``, and never change an output.
"""

from collections import Counter

import pytest

from repro.analysis.wan import WanConfig
from repro.columnar.tables import ColumnarTrace
from repro.experiments import ExperimentContext
from repro.experiments.registry import get_experiment
from repro.flags import set_columnar_enabled
from repro.world import WorldConfig

#: The §3 capture experiments, in registry order.
TRAFFIC = (
    "table01", "table02", "table05", "table06", "figure03",
    "ext-compression",
)
FRONTIER = ("figure12", "ext-scheduling", "ext-headline")
ZONES = ("table14", "table15", "figure08")


def view_builds(context) -> Counter:
    return Counter(
        span.name for span in context.obs.tracer.walk()
        if span.category == "view"
    )


@pytest.fixture(scope="module")
def context():
    previous = set_columnar_enabled(True)
    try:
        context = ExperimentContext(
            WorldConfig(seed=7, num_domains=300), WanConfig(rounds=3)
        )
        for experiment_id in TRAFFIC + FRONTIER + ZONES:
            get_experiment(experiment_id).run(context)
    finally:
        set_columnar_enabled(previous)
    return context


def test_each_view_built_once(context):
    assert view_builds(context) == {
        "capture-aggregate": 1,
        "frontier:latency": 1,
        "frontier:throughput": 1,
        "subdomain-zones": 1,
    }
    assert set(context.telemetry()["views_s"]) == set(view_builds(context))


def test_capture_experiments_build_no_rows(context):
    assert isinstance(context.trace, ColumnarTrace)
    assert context.trace._materialized is None
