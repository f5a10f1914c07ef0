"""Tests for the deterministic measurement-plane engine.

Covers the tentpole guarantees: sequential-vs-sharded bit identity for
every probe type, exact shared-stream bookkeeping, retry/timeout/loss
policy semantics, drift detection, and scenario injection.
"""

import os
import re
import signal
import time

import pytest

from repro.analysis.wan import WanAnalysis, WanConfig
from repro.campaign import (
    CampaignEngine,
    DnsLookupCampaign,
    GridCampaign,
    ProbeKind,
    ProbePolicy,
    ProbeRecord,
    ProbeTask,
    TracerouteCampaign,
    WanMeasurementCampaign,
    fork_map,
    partition,
    partition_weighted,
)
from repro.faults.scenarios import isp_outage, region_outage, zone_outage
from repro.probing.traceroute import TracerouteTool
from repro.world import World, WorldConfig


def make_world(seed: int = 33) -> World:
    return World(WorldConfig(seed=seed, num_domains=200))


def wan_campaign(world, rounds: int = 5) -> WanMeasurementCampaign:
    analysis = WanAnalysis(world, WanConfig(rounds=rounds))
    return analysis._campaign()


def trace_campaign(world) -> TracerouteCampaign:
    tool = TracerouteTool(
        world.routing, world.ec2.published_range_set()
    )
    instances = [
        world.ec2.launch_instance(
            "engine-test", region, physical_zone=0
        )
        for region in ("us-east-1", "us-west-2", "sa-east-1")
    ]
    return TracerouteCampaign(
        tool, instances, world.traceroute_vantages()[:40]
    )


class TestFanout:
    def test_partition_covers_contiguously(self):
        for count in (1, 5, 17):
            for shards in (1, 2, 4, 30):
                bounds = partition(count, shards)
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(count))

    def test_partition_weighted_covers_contiguously(self):
        import random

        rng = random.Random(7)
        for count in (1, 5, 17, 100):
            for shards in (1, 2, 4, 30):
                weights = [rng.randint(1, 1000) for _ in range(count)]
                bounds = partition_weighted(weights, shards)
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(count))
                assert all(hi > lo for lo, hi in bounds)
                assert len(bounds) == min(shards, count)

    def test_partition_weighted_balances_skewed_weights(self):
        # One huge item followed by many tiny ones: equal-count slicing
        # puts half the items (and ~all the weight) in shard 0; the
        # weighted cut isolates the heavy item.
        weights = [10_000] + [1] * 99
        bounds = partition_weighted(weights, 4)
        assert bounds[0] == (0, 1)
        total = sum(weights)
        heaviest = max(
            sum(weights[lo:hi]) for lo, hi in bounds[1:]
        )
        assert heaviest < total / 4

    def test_partition_weighted_uniform_is_count_balanced(self):
        # Uniform weights must give the same balance as partition():
        # identical slice count and slice sizes within one of each
        # other (the quantile cuts may place the +1 remainders on
        # different shards than partition()'s extras-first rule).
        for count in (1, 5, 17, 100):
            for shards in (1, 2, 4, 30):
                bounds = partition_weighted([1] * count, shards)
                sizes = sorted(hi - lo for lo, hi in bounds)
                expected = sorted(
                    hi - lo for lo, hi in partition(count, shards)
                )
                assert sizes == expected

    def test_partition_weighted_degenerate_weights(self):
        assert partition_weighted([], 4) == []
        assert partition_weighted([0, 0, 0], 2) == partition(3, 2)
        assert partition_weighted([5], 3) == [(0, 1)]

    def test_fork_map_preserves_order(self):
        assert fork_map(lambda i: i * i, 7, 3) == [
            i * i for i in range(7)
        ]

    def test_fork_map_sequential_fallback(self):
        calls = []

        def record(i):
            calls.append(i)
            return i

        assert fork_map(record, 4, 1) == [0, 1, 2, 3]
        assert calls == [0, 1, 2, 3]  # ran in-process

    def test_fork_map_raises_when_a_worker_is_killed(self):
        """A task that SIGKILLs its own worker (what the OOM killer
        does) fails the call naming the task, instead of hanging."""

        def task(index):
            if index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return index

        def hung(signum, frame):
            raise TimeoutError("fork_map hung after a worker died")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="lost tasks") as info:
                fork_map(task, 3, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        listed = re.search(r"lost tasks \[([\d, ]+)\]", str(info.value))
        assert 1 in [int(item) for item in listed.group(1).split(",")]
        assert time.monotonic() - started < 10

    def test_fork_map_reraises_task_errors(self):
        def task(index):
            if index == 2:
                raise ValueError("task 2 failed")
            return index

        with pytest.raises(ValueError, match="task 2 failed"):
            fork_map(task, 3, 2)


class TestEngineDeterminism:
    """Sequential vs workers=N digests, per probe type."""

    def test_wan_campaign_bit_identical_across_workers(self):
        digests = {}
        jitter_states = {}
        for workers in (0, 3):
            world = make_world()
            engine = CampaignEngine(world.streams.seed)
            result = engine.run(wan_campaign(world), workers=workers)
            digests[workers] = result.digest()
            jitter_states[workers] = world.latency._jitter_rng.getstate()
        assert digests[0] == digests[3]
        # The parent's shared streams end at the sequential position.
        assert jitter_states[0] == jitter_states[3]

    def test_traceroute_campaign_bit_identical_across_workers(self):
        world = make_world()
        engine = CampaignEngine(world.streams.seed)
        campaign = trace_campaign(world)
        sequential = engine.run(campaign, workers=0)
        sharded = engine.run(campaign, workers=4)
        assert sequential.digest() == sharded.digest()
        assert len(sequential) == len(campaign.instances) * len(
            campaign.vantages
        )

    def test_dns_campaign_never_forks(self):
        # Digs mutate rotation counters; the campaign declares itself
        # unshardable, so a workers>1 run must behave sequentially.
        results = []
        for workers in (0, 4):
            world = make_world()
            targets = [
                ("example.org", f"host{i}.example.org")
                for i in range(6)
            ]
            engine = CampaignEngine(world.streams.seed)
            campaign = DnsLookupCampaign(world, targets)
            results.append(engine.run(campaign, workers=workers))
        assert results[0].digest() == results[1].digest()

    def test_records_come_back_in_grid_order(self):
        world = make_world()
        result = CampaignEngine(world.streams.seed).run(
            wan_campaign(world, rounds=2), workers=2
        )
        rounds = [r.task.round_index for r in result.records]
        assert rounds == sorted(rounds)
        kinds = [r.task.kind for r in result.records[:2]]
        assert kinds == [ProbeKind.TCP_PING, ProbeKind.HTTP_GET]


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ProbePolicy(attempts=0)
        with pytest.raises(ValueError):
            ProbePolicy(loss_rate=1.5)
        with pytest.raises(ValueError):
            ProbePolicy(timeout_s=0.0)
        assert ProbePolicy().is_default
        assert not ProbePolicy(loss_rate=0.1).is_default

    def test_total_loss_drops_every_report(self):
        world = make_world()
        policy = ProbePolicy(attempts=3, loss_rate=1.0)
        engine = CampaignEngine(world.streams.seed, policy=policy)
        result = engine.run(wan_campaign(world, rounds=2))
        assert result.records
        for record in result.records:
            assert record.lost and not record.ok
            assert record.attempts == 3
            assert not record.observed
            # The observation itself was still made: the payload is
            # there, only the report was dropped.
            assert record.payload is not None

    def test_partial_loss_is_order_independent(self):
        policy = ProbePolicy(attempts=2, loss_rate=0.4)
        digests = []
        for workers in (0, 3):
            world = make_world()
            engine = CampaignEngine(world.streams.seed, policy=policy)
            digests.append(
                engine.run(wan_campaign(world), workers=workers).digest()
            )
        assert digests[0] == digests[1]

    def test_loss_does_not_disturb_world_streams(self):
        # A lost probe re-transmits the report, not the measurement:
        # shared-stream consumption must match a lossless campaign.
        states = []
        for policy in (None, ProbePolicy(attempts=2, loss_rate=0.9)):
            world = make_world()
            engine = CampaignEngine(world.streams.seed, policy=policy)
            engine.run(wan_campaign(world))
            states.append(world.latency._jitter_rng.getstate())
        assert states[0] == states[1]

    def test_retries_recover_some_reports(self):
        world_one, world_many = make_world(), make_world()
        lossy = ProbePolicy(attempts=1, loss_rate=0.6)
        patient = ProbePolicy(attempts=5, loss_rate=0.6)
        lost_once = sum(
            r.lost
            for r in CampaignEngine(
                world_one.streams.seed, policy=lossy
            ).run(wan_campaign(world_one)).records
        )
        lost_retried = sum(
            r.lost
            for r in CampaignEngine(
                world_many.streams.seed, policy=patient
            ).run(wan_campaign(world_many)).records
        )
        assert lost_retried < lost_once

    def test_timeout_override_cancels_downloads(self):
        world = make_world()
        policy = ProbePolicy(timeout_s=1e-9)
        engine = CampaignEngine(world.streams.seed, policy=policy)
        result = engine.run(wan_campaign(world, rounds=1))
        gets = result.by_kind(ProbeKind.HTTP_GET)
        assert gets and all(not r.payload.completed for r in gets)
        # Pings are unaffected by the HTTP timeout.
        assert any(r.ok for r in result.by_kind(ProbeKind.TCP_PING))


class _MiscountingCampaign(GridCampaign):
    name = "drifty"
    probes_per_cell = 2
    rounds = 1

    def vantage_axis(self):
        return ["v"]

    def target_axis(self):
        return ["t"]

    def execute_cell(self, vantage, target, cell):
        task = ProbeTask(
            kind=ProbeKind.TCP_PING, vantage=vantage, target=target
        )
        return [ProbeRecord(task=task, ok=True)]  # declared 2, made 1


class TestDrift:
    def test_cell_drift_raises(self):
        engine = CampaignEngine(seed=1)
        with pytest.raises(RuntimeError, match="cell drift"):
            engine.run(_MiscountingCampaign())

    def test_grid_sharding_rejects_multi_round_campaigns(self):
        world = make_world()
        campaign = trace_campaign(world)
        campaign.rounds = 2
        campaign.probes_per_cell = 1
        engine = CampaignEngine(world.streams.seed)
        with pytest.raises(RuntimeError, match="single round"):
            engine._run_grid_sharded(
                campaign,
                list(campaign.vantage_axis()),
                list(campaign.target_axis()),
                workers=2,
            )

    def test_grid_sharding_rejects_stream_consumers(self):
        world = make_world()
        campaign = wan_campaign(world, rounds=1)
        engine = CampaignEngine(world.streams.seed)
        with pytest.raises(RuntimeError, match="shared-stream"):
            engine._run_grid_sharded(
                campaign,
                list(campaign.vantage_axis()),
                list(campaign.target_axis()),
                workers=2,
            )


class TestScenarioInjection:
    def test_region_outage_times_out_wan_probes(self):
        world = make_world()
        scenario = region_outage("ec2", "us-east-1")
        engine = CampaignEngine(world.streams.seed, scenario=scenario)
        campaign = wan_campaign(world, rounds=2)
        down = {
            instance.instance_id
            for region, instance in campaign.pairs
            if region == "us-east-1"
        }
        result = engine.run(campaign)
        assert result.scenario_name == scenario.name
        blocked = [r for r in result.records if r.blocked]
        assert blocked
        assert {r.task.target for r in blocked} == down
        for record in blocked:
            assert not record.ok
            if record.task.kind is ProbeKind.TCP_PING:
                assert not record.payload.responded
            else:
                assert not record.payload.completed

    def test_scenario_perturbs_records_vs_healthy_run(self):
        # The acceptance drill: the same grid, healthy vs under an
        # outage, must produce measurably different record streams.
        healthy_world, drilled_world = make_world(), make_world()
        healthy = CampaignEngine(healthy_world.streams.seed).run(
            wan_campaign(healthy_world, rounds=2)
        )
        drilled = CampaignEngine(
            drilled_world.streams.seed,
            scenario=region_outage("ec2", "us-east-1"),
        ).run(wan_campaign(drilled_world, rounds=2))
        assert healthy.digest() != drilled.digest()
        assert not any(r.blocked for r in healthy.records)

    def test_scenario_campaign_still_shards_bit_identically(self):
        scenario = zone_outage("ec2", "us-west-2", 0)
        outputs = {}
        for workers in (0, 3):
            world = make_world()
            engine = CampaignEngine(
                world.streams.seed, scenario=scenario
            )
            result = engine.run(wan_campaign(world), workers=workers)
            outputs[workers] = (
                result.digest(),
                world.latency._jitter_rng.getstate(),
                world.throughput._noise_rng.getstate(),
            )
        assert outputs[0] == outputs[3]

    def test_zone_outage_blocks_only_that_zone(self):
        world = make_world()
        scenario = zone_outage("ec2", "us-east-1", 0)
        engine = CampaignEngine(world.streams.seed, scenario=scenario)
        campaign = wan_campaign(world, rounds=1)
        result = engine.run(campaign)
        zone_of = {
            instance.instance_id: (region, instance.zone_index)
            for region, instance in campaign.pairs
        }
        for record in result.records:
            region, zone = zone_of[record.task.target]
            assert record.blocked == (
                region == "us-east-1" and zone == 0
            )

    def test_isp_outage_reroutes_traceroutes(self):
        world = make_world()
        campaign = trace_campaign(world)
        healthy = CampaignEngine(world.streams.seed).run(campaign)
        observed_asns = {
            record.payload.first_external_asn
            for record in healthy.records
            if record.payload.first_external_asn is not None
        }
        failed_asn = sorted(observed_asns)[0]
        drilled = CampaignEngine(
            world.streams.seed, scenario=isp_outage(failed_asn)
        ).run(campaign)
        drilled_asns = {
            record.payload.first_external_asn
            for record in drilled.records
            if record.payload.first_external_asn is not None
        }
        assert failed_asn not in drilled_asns
        assert healthy.digest() != drilled.digest()

    def test_region_outage_blocks_traceroute_instances(self):
        world = make_world()
        campaign = trace_campaign(world)
        drilled = CampaignEngine(
            world.streams.seed,
            scenario=region_outage("ec2", "us-east-1"),
        ).run(campaign)
        by_region = {
            instance.instance_id: instance.region_name
            for instance in campaign.instances
        }
        for record in drilled.records:
            assert record.blocked == (
                by_region[record.task.target] == "us-east-1"
            )
            if record.blocked:
                assert record.payload.hops == ()


class TestWanAnalysisUnderScenario:
    def test_down_region_goes_dark_in_the_matrices(self):
        world = make_world()
        analysis = WanAnalysis(
            world,
            WanConfig(rounds=3),
            scenario=region_outage("ec2", "sa-east-1"),
        )
        client = analysis.clients[0].name
        latency = analysis.latency_series(client, "sa-east-1")
        throughput = analysis.throughput_series(client, "sa-east-1")
        assert all(value != value for value in latency)  # all NaN
        assert throughput == [0.0] * analysis.config.rounds
        # A healthy region still measures.
        healthy = analysis.latency_series(client, "us-east-1")
        assert all(value == value for value in healthy)
