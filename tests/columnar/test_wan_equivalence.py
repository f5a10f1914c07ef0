"""Scalar-vs-columnar equivalence for the WAN matrices.

Builds two identical worlds, runs the campaign through the engine on
one (columnar forced off) and through the batched fill on the other,
and requires exact equality of the matrices, the shared stream states,
and downstream figures.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.wan import WanAnalysis, WanConfig  # noqa: E402
from repro.flags import set_columnar_enabled  # noqa: E402
from repro.world import World, WorldConfig  # noqa: E402


def _small_world(seed, probe_vantages=6):
    return World(WorldConfig(
        seed=seed,
        num_domains=60,
        num_dns_vantages=3,
        num_probe_vantages=probe_vantages,
    ))


def _matrices(seed, columnar, config=None, probe_vantages=6):
    previous = set_columnar_enabled(columnar)
    try:
        world = _small_world(seed, probe_vantages)
        analysis = WanAnalysis(
            world, config or WanConfig(rounds=4)
        )
        analysis._measure()
        jitter_state = world.latency._jitter_rng.getstate()
        noise_state = world.throughput._noise_rng.getstate()
        return (
            analysis,
            analysis._latency,
            analysis._throughput,
            jitter_state,
            noise_state,
        )
    finally:
        set_columnar_enabled(previous)


def _assert_tables_equal(a, b):
    assert list(a) == list(b)  # same keys, same insertion order
    for key in a:
        sa, sb = a[key], b[key]
        assert len(sa) == len(sb)
        for va, vb in zip(sa, sb):
            if math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, (key, va, vb)


@pytest.mark.parametrize(
    "seed, probe_vantages, config",
    [
        (7, 6, None),
        (21, 6, None),
        (1999, 6, None),
        # An odd clients × pairs product (5 × 19) leaves the noise
        # stream's Box-Muller half-pair cached at the end of every other
        # round, so round-sized bulk draws must carry it across round
        # boundaries.
        (11, 5, WanConfig(rounds=5, instances_per_zone=1)),
    ],
    ids=["7", "21", "1999", "odd-round-draws"],
)
def test_wan_matrices_bit_identical(seed, probe_vantages, config):
    analysis, lat_s, thr_s, js, ns = _matrices(
        seed, False, config, probe_vantages
    )
    if probe_vantages % 2:
        assert len(analysis.clients) * len(analysis._campaign().pairs) % 2
    _, lat_c, thr_c, jc, nc = _matrices(seed, True, config, probe_vantages)
    _assert_tables_equal(lat_s, lat_c)
    _assert_tables_equal(thr_s, thr_c)
    assert js == jc  # jitter stream left in the sequential position
    assert ns == nc  # noise stream likewise


def test_wan_matrices_match_engine_workers():
    _, lat_c, thr_c, _, _ = _matrices(7, True)
    previous = set_columnar_enabled(False)
    try:
        world = _small_world(7)
        analysis = WanAnalysis(world, WanConfig(rounds=4, workers=2))
        analysis._measure()
    finally:
        set_columnar_enabled(previous)
    _assert_tables_equal(analysis._latency, lat_c)
    _assert_tables_equal(analysis._throughput, thr_c)


def test_wan_downstream_figures_identical():
    scalar, *_ = _matrices(7, False)
    columnar, *_ = _matrices(7, True)
    regions = scalar.regions[:3]
    assert scalar.per_client_region_averages(
        regions=regions, max_clients=4
    ) == columnar.per_client_region_averages(
        regions=regions, max_clients=4
    )
    client = scalar.clients[0].name
    assert scalar.best_region_flips(
        client, regions=regions
    ) == columnar.best_region_flips(client, regions=regions)


def test_wan_scenario_falls_back_to_engine():
    from repro.faults.scenarios import OutageScenario

    previous = set_columnar_enabled(True)
    try:
        world = _small_world(7)
        analysis = WanAnalysis(
            world,
            WanConfig(rounds=2),
            scenario=OutageScenario(
                name="drill",
                regions=frozenset({("ec2", "us-east-1")}),
            ),
        )
        assert not analysis._columnar_measure()
    finally:
        set_columnar_enabled(previous)
