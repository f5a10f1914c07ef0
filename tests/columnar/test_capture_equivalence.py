"""Scalar-vs-columnar equivalence for the capture generator.

Two identical worlds, one capture per mode; the flows must be equal
record for record (including order), the "capture" stream must end in
the same state, and the budget machinery (the shuffled Zipf tail) must
hand out identical per-domain byte budgets.  Also covers the
WordLedger replay of the generator's draw program, the analyzer
aggregates, and a mutated columnar trace.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.columnar.rng import WordLedger  # noqa: E402
from repro.columnar.tables import ColumnarTrace  # noqa: E402
from repro.flags import set_columnar_enabled  # noqa: E402
from repro.world import World, WorldConfig  # noqa: E402


def _trace(seed, columnar):
    previous = set_columnar_enabled(columnar)
    try:
        world = World(WorldConfig(
            seed=seed,
            num_domains=80,
            num_dns_vantages=3,
            num_probe_vantages=4,
        ))
        trace = world.capture_trace()
        state = world.streams.stream("capture").getstate()
        return world, trace, state
    finally:
        set_columnar_enabled(previous)


@pytest.mark.parametrize("seed", [7, 23, 515])
def test_capture_traces_bit_identical(seed):
    _, scalar_trace, scalar_state = _trace(seed, False)
    _, columnar_trace, columnar_state = _trace(seed, True)
    assert isinstance(columnar_trace, ColumnarTrace)
    assert len(scalar_trace) == len(columnar_trace)
    assert scalar_trace.total_bytes() == columnar_trace.total_bytes()
    assert scalar_state == columnar_state
    for a, b in zip(scalar_trace, columnar_trace):
        assert a == b  # frozen dataclass equality: every field


def _ranges(world):
    return {
        "ec2": world.ec2.published_range_set(),
        "azure": world.azure.published_range_set(),
    }


def _generator(world):
    from repro.capture.generator import CaptureGenerator
    from repro.internet.vantage import CAMPUS_VANTAGE

    return CaptureGenerator(
        streams=world.streams,
        resolver=world.resolver_for(CAMPUS_VANTAGE),
        cloud_ranges=_ranges(world),
        config=world.config.capture,
    )


def test_capture_budgets_identical():
    # Both worlds' "capture" streams sit at the same post-generation
    # position (asserted by the trace test), so replaying the budget
    # split — including its shuffled Zipf tail — must agree exactly.
    world_s, _, _ = _trace(7, False)
    world_c, _, _ = _trace(7, True)
    gen_s = _generator(world_s)
    gen_c = _generator(world_c)
    for proto in ("http", "https"):
        members_s = [
            d for d in world_s.traffic_domains() if d.provider == "ec2"
        ]
        members_c = [
            d for d in world_c.traffic_domains() if d.provider == "ec2"
        ]
        assert gen_s._domain_budgets(
            members_s, "ec2", proto, 1e8
        ) == gen_c._domain_budgets(members_c, "ec2", proto, 1e8)


def test_analyzer_aggregates_identical():
    from repro.capture.analyzer import BroAnalyzer

    world_s, trace_s, _ = _trace(7, False)
    world_c, trace_c, _ = _trace(7, True)
    an_s = BroAnalyzer(_ranges(world_s))
    an_c = BroAnalyzer(_ranges(world_c))
    assert an_s.cloud_shares(trace_s) == an_c.cloud_shares(trace_c)
    assert an_s.protocol_breakdown(trace_s) == an_c.protocol_breakdown(
        trace_c
    )
    dt_s = an_s.domain_traffic(trace_s)
    dt_c = an_c.domain_traffic(trace_c)
    assert dt_s == dt_c


def test_columnar_trace_mutation_falls_back():
    _, trace, _ = _trace(7, True)
    flows = list(trace)
    trace.add(flows[0])
    assert len(trace) == len(flows) + 1
    assert trace.total_bytes() == (
        sum(f.total_bytes for f in flows) + flows[0].total_bytes
    )


def test_ledger_replays_generator_draw_program():
    """The WordLedger replays the exact capture draw program.

    This is the equivalence proof that the capture layout is a pure
    word-stream program: timestamps, weighted choices, lognormal
    sizes and persistence draws replayed through the bulk-prefetched
    cursor reproduce the scalar generator's values and final state.
    """
    import math

    from repro.sampling import WeightedChooser

    ref = random.Random(99)
    probe = random.Random(99)
    chooser = WeightedChooser(list(range(24)), [1.0] * 24)
    with WordLedger(probe) as led:
        for i in range(200):
            # _timestamp: randrange(days), weighted hour, uniform
            day = led.randrange(7)
            from bisect import bisect

            hour = chooser.population[bisect(
                chooser.cum_weights,
                led.uniform() * chooser.total,
                0,
                chooser._hi,
            )]
            frac = led.uniform()
            mine_ts = day * 86400.0 + hour * 3600.0 + frac * 3600.0
            ref_ts = (
                ref.randrange(7) * 86400.0
                + chooser.choose(ref) * 3600.0
                + ref.random() * 3600.0
            )
            assert mine_ts == ref_ts
            # _duration_for(size, persistent_ok=True)
            size = 5_000 + i
            mu = math.log(250_000)
            rate = math.exp(mu + led.normalvariate_z() * 1.0)
            duration = max(0.01, size / max(rate, 10_000.0))
            if led.uniform() < 0.06:
                duration += led.expovariate(1.0 / 2500.0)
            ref_rate = ref.lognormvariate(mu, 1.0)
            ref_duration = max(0.01, size / max(ref_rate, 10_000.0))
            if ref.random() < 0.06:
                ref_duration += ref.expovariate(1.0 / 2500.0)
            assert duration == ref_duration
    assert probe.getstate() == ref.getstate()
