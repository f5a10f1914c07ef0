"""Tests for the §5 WAN analysis."""

from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.wan import WanAnalysis, WanConfig
from repro.obs import Observability


class TestWanAnalysis:
    def test_instances_cover_every_zone(self, wan, world):
        fleet = wan.instances()
        for region_name, instances in fleet.items():
            zones = {i.zone_index for i in instances}
            assert zones == set(
                range(world.ec2.region(region_name).num_zones)
            )

    def test_latency_series_length(self, wan):
        client = wan.clients[0]
        series = wan.latency_series(client.name, "us-east-1")
        assert len(series) == wan.config.rounds

    def test_seattle_prefers_west(self, wan):
        seattle = next(c for c in wan.clients if "seattle" in c.name)
        east = wan.latency_series(seattle.name, "us-east-1")
        west = wan.latency_series(seattle.name, "us-west-2")
        assert sum(west) < sum(east)

    def test_optimal_k_monotone(self, wan):
        frontier = wan.optimal_k_regions("latency")
        scores = [row["score"] for row in frontier]
        assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_optimal_k_subset_sizes(self, wan):
        frontier = wan.optimal_k_regions("latency")
        for row in frontier:
            assert len(row["regions"]) == row["k"]

    def test_throughput_frontier_monotone_up(self, wan):
        frontier = wan.optimal_k_regions("throughput")
        scores = [row["score"] for row in frontier]
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_improvement_at_k_positive(self, wan):
        frontier = wan.optimal_k_regions("latency")
        assert wan.improvement_at_k(frontier, 3) > 0

    def test_isp_diversity_shape(self, wan):
        diversity = wan.isp_diversity()
        assert diversity["us-east-1"]["region_total"] > (
            diversity["sa-east-1"]["region_total"]
        )
        for region, data in diversity.items():
            for zone_count in data["per_zone"].values():
                assert zone_count <= data["region_total"]

    def test_best_region_flips_counts(self, wan):
        client = wan.clients[0]
        result = wan.best_region_flips(client.name)
        assert len(result["best_by_round"]) == wan.config.rounds
        assert result["distinct_best"] >= 1


# -- the k-region frontier against the loop it replaced ----------------------

NAN = float("nan")


def reference_frontier(analysis, metric):
    """The scalar frontier loop, kept as the reference."""
    table = (
        analysis._latency if metric == "latency" else analysis._throughput
    )
    better = min if metric == "latency" else max
    frontier = []
    for k in range(1, len(analysis.regions) + 1):
        best_score = None
        best_subset = None
        for subset in combinations(analysis.regions, k):
            total = 0.0
            count = 0
            for client in analysis.clients:
                for round_index in range(analysis.config.rounds):
                    values = [
                        table[(client.name, region)][round_index]
                        for region in subset
                    ]
                    values = [v for v in values if v == v]
                    if not values:
                        continue
                    total += better(values)
                    count += 1
            if count == 0:
                continue
            score = total / count
            if best_score is None or (
                score < best_score
                if metric == "latency"
                else score > best_score
            ):
                best_score = score
                best_subset = subset
        frontier.append({
            "k": k, "score": best_score, "regions": best_subset,
        })
    return frontier


def exact(frontier):
    """Rows with scores as hex, so equality is bit equality."""
    return [
        (
            row["k"],
            row["score"].hex() if row["score"] is not None else None,
            row["regions"],
        )
        for row in frontier
    ]


def preloaded(matrix, rounds, obs=None):
    """A world-free analysis over ``matrix[client][region] -> series``."""
    clients = [SimpleNamespace(name=f"c{i}") for i in range(len(matrix))]
    regions = [f"r{j}" for j in range(len(matrix[0]))] if matrix else []
    analysis = WanAnalysis(
        lambda: None, WanConfig(rounds=rounds), clients=clients,
        regions=regions, **({"obs": obs} if obs is not None else {}),
    )
    table = {
        (client.name, region): list(matrix[i][j])
        for i, client in enumerate(clients)
        for j, region in enumerate(regions)
    }
    analysis.preload_measurements(table, table)
    return analysis


@st.composite
def wan_matrices(draw):
    """Latency-like matrices with NaN cells, all-NaN clients, a region
    that never responds, and values from a small pool so that subset
    scores tie."""
    clients = draw(st.integers(1, 4))
    regions = draw(st.integers(1, 5))
    rounds = draw(st.integers(1, 6))
    value = st.one_of(
        st.sampled_from([NAN, 10.0, 20.0, 20.0, 35.5, 0.1]),
        st.floats(0.01, 500.0, allow_nan=False),
    )
    matrix = [
        [[draw(value) for _ in range(rounds)] for _ in range(regions)]
        for _ in range(clients)
    ]
    dead_region = draw(st.one_of(st.none(), st.integers(0, regions - 1)))
    if dead_region is not None:
        for row in matrix:
            row[dead_region] = [NAN] * rounds
    dead_client = draw(st.one_of(st.none(), st.integers(0, clients - 1)))
    if dead_client is not None:
        matrix[dead_client] = [[NAN] * rounds for _ in range(regions)]
    return matrix, rounds


class TestFrontier:
    @settings(max_examples=300, deadline=None)
    @given(wan_matrices())
    def test_equals_reference_loop_bit_for_bit(self, drawn):
        matrix, rounds = drawn
        analysis = preloaded(matrix, rounds)
        for metric in ("latency", "throughput"):
            assert exact(analysis.optimal_k_regions(metric)) == exact(
                reference_frontier(analysis, metric)
            )

    def test_equals_reference_on_the_campaign(self, wan):
        for metric in ("latency", "throughput"):
            assert exact(wan.optimal_k_regions(metric)) == exact(
                reference_frontier(wan, metric)
            )

    def test_computed_once_per_metric(self):
        obs = Observability.collecting()
        analysis = preloaded(
            [[[10.0, 12.0], [30.0, NAN]], [[15.0, 11.0], [5.0, 6.0]]],
            rounds=2, obs=obs,
        )
        first = analysis.optimal_k_regions("latency")
        assert analysis.optimal_k_regions("latency") == first
        analysis.optimal_k_regions("throughput")
        analysis.optimal_k_regions("throughput")
        builds = Counter(
            span.name for span in obs.tracer.walk()
            if span.category == "view"
        )
        assert builds == {"frontier:latency": 1, "frontier:throughput": 1}

    def test_returned_rows_are_copies(self):
        analysis = preloaded([[[10.0], [30.0]], [[15.0], [5.0]]], rounds=1)
        expected = exact(analysis.optimal_k_regions("latency"))
        rows = analysis.optimal_k_regions("latency")
        rows[0]["score"] = -1.0
        rows[0]["regions"] = ("edited",)
        rows.append({"k": 99, "score": 0.0, "regions": ()})
        assert exact(analysis.optimal_k_regions("latency")) == expected

    def test_preload_resets_the_memo(self):
        analysis = preloaded([[[10.0], [30.0]]], rounds=1)
        assert analysis.optimal_k_regions("latency")[0]["regions"] == (
            "r0",
        )
        table = {("c0", "r0"): [40.0], ("c0", "r1"): [20.0]}
        analysis.preload_measurements(table, table)
        frontier = analysis.optimal_k_regions("latency")
        assert frontier[0]["regions"] == ("r1",)
        assert exact(frontier) == exact(
            reference_frontier(analysis, "latency")
        )
