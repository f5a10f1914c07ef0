"""Observability must never change an output byte.

The contract of :mod:`repro.obs`: tracer, metrics, and event logging
are strictly read-only with respect to the simulation.  These tests run
the pipeline at test scale with instrumentation fully on, fully off,
and sharded, and require every output family — the same six the bench
digests — to be identical, the artifact keys to be unchanged, and the
event log of a ``--workers N`` run to be byte-identical to sequential.
"""

import pytest

from repro.analysis.dataset import DatasetBuilder
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.experiments.context import ExperimentContext
from repro.obs import NOOP, Observability
from repro.sim import set_rng_observer
from repro.world import World, WorldConfig

CONFIG = WorldConfig(seed=7, num_domains=300)


def _run_pipeline(obs, workers=0):
    """One miniature end-to-end run; returns the six output families
    plus the observability plane used."""
    world = World(CONFIG)
    dataset = DatasetBuilder(world, obs=obs).build(workers=workers)
    trace = world.capture_trace()
    wan = WanAnalysis(
        world, WanConfig(rounds=2, workers=workers), obs=obs
    )
    wan._measure()
    isp = wan.isp_diversity()
    return {
        "records": [
            (
                record.fqdn,
                record.rank,
                tuple(sorted(str(a) for a in record.addresses)),
                tuple(sorted(record.ns_names)),
            )
            for record in dataset.records
        ],
        "ns_addresses": sorted(
            (k, str(v)) for k, v in dataset.ns_addresses.items()
        ),
        "wan_latency": sorted(
            (k, tuple(v)) for k, v in wan._latency.items()
        ),
        "wan_throughput": sorted(
            (k, tuple(v)) for k, v in wan._throughput.items()
        ),
        "trace": (
            len(trace.flows), sum(f.total_bytes for f in trace.flows)
        ),
        "isp_diversity": sorted(
            (region, info["region_total"],
             tuple(sorted(info["per_zone"].items())))
            for region, info in isp.items()
        ),
    }


@pytest.fixture(scope="module")
def bare_outputs():
    return _run_pipeline(NOOP)


@pytest.fixture(scope="module")
def instrumented():
    obs = Observability.collecting(events=True)
    previous = obs.install_rng_counter()
    try:
        outputs = _run_pipeline(obs)
    finally:
        set_rng_observer(previous)
    return outputs, obs


class TestOutputsUnchanged:
    def test_all_output_families_identical(
        self, bare_outputs, instrumented
    ):
        outputs, _ = instrumented
        assert outputs == bare_outputs

    def test_instrumentation_actually_collected(self, instrumented):
        _, obs = instrumented
        assert obs.tracer.seconds_by_name("campaign")
        assert obs.tracer.seconds_by_name("dataset-step")
        counters = obs.metrics.snapshot()["counters"]
        assert counters['probes_total{kind="dns-lookup"}'] > 0
        assert counters["rng_derivations_total"] > 0
        assert len(obs.events.events) > 0

    def test_rng_counter_is_volatile(self, instrumented):
        _, obs = instrumented
        deterministic = obs.metrics.deterministic_snapshot()
        assert "rng_derivations_total" not in (
            deterministic.get("counters", {})
        )

    def test_artifact_keys_unchanged(self):
        def keys(obs):
            context = ExperimentContext(
                CONFIG, WanConfig(rounds=2), obs=obs
            )
            return context._wan_key()

        assert keys(Observability.collecting(events=True)) == keys(
            Observability(
                tracer=NOOP.tracer,
                metrics=NOOP.metrics,
                events=NOOP.events,
            )
        )


class TestShardedInstrumentation:
    """Sequential vs forked runs: identical outputs, logs, metrics."""

    @pytest.fixture(scope="class")
    def sequential(self):
        obs = Observability.collecting(events=True)
        outputs = _run_pipeline(obs, workers=0)
        return outputs, obs

    @pytest.fixture(scope="class")
    def sharded(self):
        obs = Observability.collecting(events=True)
        outputs = _run_pipeline(obs, workers=2)
        return outputs, obs

    def test_outputs_identical(self, sequential, sharded):
        assert sharded[0] == sequential[0]

    def test_event_logs_byte_identical(self, sequential, sharded):
        ndjson_seq = sequential[1].events.to_ndjson()
        ndjson_par = sharded[1].events.to_ndjson()
        assert ndjson_seq
        assert ndjson_par == ndjson_seq

    def test_deterministic_metrics_identical(self, sequential, sharded):
        snap_seq = sequential[1].metrics.deterministic_snapshot()
        snap_par = sharded[1].metrics.deterministic_snapshot()
        assert snap_seq["counters"]
        assert snap_par == snap_seq
