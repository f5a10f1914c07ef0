"""Tests for world evolution and longitudinal tracking.

A world evolves through the epoch steps of :mod:`repro.epochs.steps`
and an :class:`~repro.epochs.plan.Epoch`'s virtual clock; each epoch is
tracked by a :class:`~repro.epochs.trends.Snapshot` summary.
"""

import dataclasses

import pytest

from repro.analysis.dataset import DatasetBuilder
from repro.epochs.plan import Epoch, EpochPlan
from repro.epochs.steps import CloudAdoption
from repro.epochs.trends import Snapshot, take_world_snapshot
from repro.sim import derive_rng
from repro.world import World, WorldConfig

SEED = 29


@pytest.fixture(scope="module")
def evolving_world():
    return World(WorldConfig(seed=SEED, num_domains=800))


class TestEvolutionSteps:
    def test_adopt_cloud_converts_domains(self, evolving_world):
        before = sum(
            1 for p in evolving_world.plans if p.is_cloud_using
        )
        diff = CloudAdoption(count=10).apply(
            evolving_world, derive_rng(SEED, "epoch", "1", "0", "adopt")
        )
        after = sum(
            1 for p in evolving_world.plans if p.is_cloud_using
        )
        assert len(diff.domains) == 10
        assert after == before + 10

    def test_advance_epoch_moves_clock(self):
        plan = EpochPlan(
            name="idle",
            description="no steps; only the clock moves",
            recipe=lambda epoch, n: (),
            epoch_seconds=1000.0,
        )
        config = WorldConfig(seed=SEED, num_domains=200)
        assert Epoch(plan, 0, config).build_world().clock.now == 0.0
        world = Epoch(plan, 3, config).build_world()
        assert world.clock.now == 3 * 1000.0


class TestLongitudinalStudy:
    @pytest.fixture(scope="class")
    def snapshot(self):
        world = World(WorldConfig(seed=37, num_domains=300))
        return take_world_snapshot(
            world, DatasetBuilder(world).build(), "only"
        )

    def test_snapshot_drops_dataset_by_default(self, snapshot):
        # Holding the full dataset per epoch would defeat a long
        # series' constant-memory budget.
        fields = {f.name for f in dataclasses.fields(Snapshot)}
        assert "dataset" not in fields
        assert not hasattr(snapshot, "dataset")
        assert snapshot.cloud_subdomains > 0
        assert "EC2 only" in snapshot.provider_domains

    def test_snapshot_as_dict_is_summary_only(self, snapshot):
        payload = snapshot.as_dict()
        assert "dataset" not in payload
        assert payload["virtual_time_s"] == 0.0
        assert payload["cloud_domains"] == snapshot.cloud_domains
        assert 0.0 <= payload["azure_share"] <= 1.0
