"""The context's collector policy: paused stage builds, a frozen heap.

Each stage (world, dataset, capture) builds with the cyclic collector
paused and freezes what it built; a new world build first unfreezes
and collects what earlier contexts left.  Freezing is only safe while
the stage builds leave no cyclic garbage, and a pause must always hand
the collector back in the state it found it.
"""

import gc
import weakref

import pytest

from repro.analysis import shards
from repro.analysis.dataset import DatasetBuilder
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.artifacts import ArtifactStore
from repro.campaign.engine import CampaignEngine
from repro.campaign.fanout import fork_map
from repro.experiments import ExperimentContext
from repro.experiments import context as context_module
from repro.flags import set_columnar_enabled
from repro.world import World, WorldConfig


def collector_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def thawed_heap():
    """Start and end every test with nothing frozen."""
    gc.unfreeze()
    gc.collect()
    yield
    gc.unfreeze()
    gc.collect()


def make_context(seed=7, domains=400, store=None):
    return ExperimentContext(
        WorldConfig(seed=seed, num_domains=domains), WanConfig(rounds=2),
        artifact_store=store,
    )


def test_stage_builds_leave_no_cyclic_garbage(monkeypatch):
    found = {}
    freeze = gc.freeze

    def collect_then_freeze():
        found[len(found)] = gc.collect()
        freeze()

    monkeypatch.setattr(gc, "freeze", collect_then_freeze)
    context = make_context()
    context.world
    context.dataset
    context.trace
    # One freeze per stage (world, dataset, capture), each over a heap
    # with nothing unreachable in it.
    assert found == {0: 0, 1: 0, 2: 0}
    assert gc.get_freeze_count() > 0


def test_deferred_stage_builds_leave_no_cyclic_garbage(monkeypatch):
    """A deferred world releases chunk groups inside the dataset
    stage's single pause; the release must leave nothing cyclic for
    that stage's freeze to pin.  Importing the fork path leaves a few
    cyclic objects once per process (``@dataclass(slots=True)``
    discards the class object it replaces), so the test forks once
    and collects before it starts counting."""
    fork_map(lambda index: index, 2, 2, force_fork=True)
    gc.collect()
    found = {}
    freeze = gc.freeze

    def collect_then_freeze():
        found[len(found)] = gc.collect()
        freeze()

    monkeypatch.setattr(gc, "freeze", collect_then_freeze)
    monkeypatch.setattr(shards, "CHUNK_SIZE", 80)
    context = ExperimentContext(
        WorldConfig(seed=7, num_domains=400), WanConfig(rounds=2),
        defer_tenants=True,
    )
    context.world
    context.trace
    # World, dataset (five chunks, each released) and capture.
    assert found == {0: 0, 1: 0, 2: 0}
    assert not context.world.deployer.deployed


def test_stages_run_paused_and_end_frozen(monkeypatch):
    seen = []
    build = DatasetBuilder.build

    def observed_build(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return build(self, *args, **kwargs)

    monkeypatch.setattr(DatasetBuilder, "build", observed_build)
    context = make_context()
    context.world
    after_world = gc.get_freeze_count()
    assert after_world > 0 and gc.isenabled()
    context.dataset
    assert seen == [False]
    assert gc.get_freeze_count() >= after_world and gc.isenabled()


def test_dropped_contexts_release_their_worlds():
    """A process that builds context after context keeps at most one
    finished run's heap: each world build collects the frozen remains
    of the contexts before it, even of a context caught in a reference
    cycle, which only the cyclic collector can free."""
    worlds = []
    for seed in (1, 2, 3):
        context = make_context(seed=seed, domains=120)
        worlds.append(weakref.ref(context.world))
        context.dataset
        context.cycle = [context]
        del context
    assert worlds[0]() is None
    assert worlds[1]() is None


def test_a_measured_context_needs_no_collector_to_die():
    """Once the WAN analysis has its world it drops the provider that
    closes over the context, so a used context holds no cycle and
    refcounting frees it the moment it is dropped."""
    context = make_context(domains=120)
    context.dataset
    assert context.wan.world is context.world
    world = weakref.ref(context.world)
    gc.disable()
    try:
        del context
        assert world() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_world_build_restores_the_collector(monkeypatch, enabled):
    def broken_world(config, **kwargs):
        raise RuntimeError("world build failed")

    monkeypatch.setattr(context_module, "World", broken_world)
    if not enabled:
        gc.disable()
    try:
        before = collector_state()
        with pytest.raises(RuntimeError, match="world build failed"):
            make_context().world
        assert collector_state() == before
    finally:
        gc.enable()


def test_failed_dataset_build_freezes_nothing_more(monkeypatch):
    def broken_build(self, *args, **kwargs):
        raise RuntimeError("dataset build failed")

    context = make_context()
    context.world
    before = collector_state()
    monkeypatch.setattr(DatasetBuilder, "build", broken_build)
    with pytest.raises(RuntimeError, match="dataset build failed"):
        context.dataset
    assert collector_state() == before


def test_engine_campaign_pauses_but_never_freezes(monkeypatch):
    """Inside a stage the engine's pause is a no-op and must not
    re-enable the collector; on its own it pauses and restores.  In
    neither case does it freeze anything."""
    observed = []
    run = CampaignEngine.run

    def observed_run(self, campaign, *args, **kwargs):
        before = collector_state()
        result = run(self, campaign, *args, **kwargs)
        observed.append((before, collector_state()))
        return result

    monkeypatch.setattr(CampaignEngine, "run", observed_run)
    context = make_context()
    context.world
    # The scalar plane sends the dataset's digs through the engine.
    previous = set_columnar_enabled(False)
    try:
        context.dataset
    finally:
        set_columnar_enabled(previous)
    assert observed, "the dataset stage runs engine campaigns"
    for before, after in observed:
        assert before == after
        assert before[0] is False  # paused by the enclosing stage

    observed.clear()
    analysis = WanAnalysis(context.world, WanConfig(rounds=2))
    CampaignEngine(seed=7).run(analysis._campaign())
    [(before, after)] = observed
    assert before == after == (True, before[1])
