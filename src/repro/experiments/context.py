"""Shared, lazily built state for experiment runs.

Building the world, the Alexa dataset, the capture, and the WAN
campaign dominates runtime; experiments share one context so each
expensive artifact is produced exactly once per configuration.

With an :class:`~repro.artifacts.ArtifactStore` attached, the context
first consults the content-addressed cache: dataset, capture trace, and
WAN matrices are keyed on their configurations plus the code
fingerprint, so a warm cache skips those builds entirely — including
the world build, which only the cache misses need.

One ordering subtlety is load-bearing: the capture generator resolves
traffic domains through live DNS, so the trace depends on the rotation
counters and resolver caches the dataset build leaves behind.  When the
trace must be built, the context therefore always runs the real
dataset build against its world first — with or without a store, and
even if the dataset *product* was itself a cache hit — so the trace is
the same whichever product is asked for first, and every cached
artifact is identical to a cold sequential pipeline.

More generally, the cache must be a *pure accelerator* even for
consumers that bypass the cached products and read world state
directly (probing experiments, zone analyses): each build has world
side effects — dataset: rotation counters and resolver caches;
capture: the campus resolver digs and the generator's draws; WAN: the
measurement fleet and the jitter/noise stream positions.  A cache hit
therefore queues a *side-effect replay*; if (and only if) the world is
later materialized, the queued replays run first, in the order the
products were served, leaving the world exactly where a cold run's
call sequence would.  A fully warm product-only run never materializes
the world and pays for none of this.

The context also owns the process's collector policy.  Each stage
(world, dataset, capture) builds with the cyclic collector paused and
ends with :func:`gc.freeze`, so later collections — during the
campaigns and the experiments — skip the heap the run keeps instead of
rescanning it.  The stage builds leave no cyclic garbage behind, so
nothing dead is frozen.  Before a context builds its world, anything
an earlier context froze is unfrozen and collected once, so a process
that builds many contexts (the scheduler, an epoch series, the test
suite) holds at most one finished run's heap.

``defer_tenants=True`` builds a deferred world
(``World(defer_tenants=True)``): its dataset build deploys, measures
and releases the tenant population in forked rank chunks, bounding
memory (docs/PERFORMANCE.md, "The streaming data plane").  Such a
world has no tenants until that build runs, so the context runs it as
soon as the world exists.  Its products equal a batch world's, so the
two share an artifact store.  It refuses an epoch (epoch steps need
every plan).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator, List, Optional

from repro.analysis.dataset import AlexaSubdomainsDataset, DatasetBuilder
from repro.analysis.clouduse import CloudUseAnalysis
from repro.analysis.patterns import PatternAnalysis
from repro.analysis.regions import RegionAnalysis
from repro.analysis.traffic import TrafficAnalysis
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.artifacts import ArtifactStore, artifact_key
from repro.analysis.zones import ZoneAnalysis
from repro.capture.flow import Trace
from repro.cloud.ec2 import ec2_region_names
from repro.faults.scenarios import OutageScenario
from repro.internet.vantage import planetlab_sites
from repro.obs import Observability
from repro.sim import collector_paused
from repro.world import World, WorldConfig


def _release_frozen_heap() -> None:
    """Unfreeze whatever an earlier stage froze, then collect once.

    Without the collection, the next stage's :func:`gc.freeze` would
    catch a dead run's cyclic heap again before any pass could free it.
    A fresh process has frozen nothing and pays nothing.
    """
    if gc.get_freeze_count():
        gc.unfreeze()
        gc.collect()


class ExperimentContext:
    """Caches the world and every derived dataset/analysis."""

    def __init__(
        self,
        world_config: Optional[WorldConfig] = None,
        wan_config: Optional[WanConfig] = None,
        workers: int = 0,
        artifact_store: Optional[ArtifactStore] = None,
        scenario: Optional[OutageScenario] = None,
        obs: Optional[Observability] = None,
        epoch=None,
        defer_tenants: bool = False,
    ):
        if defer_tenants and epoch is not None:
            raise ValueError(
                "a deferred world cannot follow an epoch: epoch steps "
                "need every tenant's plan"
            )
        self.world_config = world_config or WorldConfig()
        self.wan_config = wan_config or WanConfig()
        #: Shard count for the dataset build (the WAN campaign reads its
        #: own ``wan_config.workers``; the CLI sets both from one flag).
        self.workers = workers
        self.artifacts = artifact_store
        #: Outage drill threaded into every engine campaign this context
        #: runs (and into the dataset/WAN artifact keys — a drilled run
        #: must never be served a healthy run's products).
        self.scenario = scenario
        #: Point on a world timeline (:class:`repro.epochs.plan.Epoch`)
        #: or ``None`` for the classic single-shot pipeline.  When set,
        #: the world is built through the epoch timeline and artifact
        #: keys gain a per-kind epoch fingerprint — omitted whenever no
        #: step through this epoch touched the kind, so those artifacts
        #: keep their epoch-0 keys and hit the store.
        self.epoch = epoch
        #: Build a deferred world, whose dataset build releases tenant
        #: state chunk group by chunk group (module docstring).
        self.defer_tenants = defer_tenants
        #: Observability plane threaded into every build, campaign, and
        #: artifact-store call this context owns.  Defaults to a
        #: collecting tracer+metrics (events off) so :meth:`telemetry`
        #: keeps its historical stage/campaign timing report.
        self.obs = obs if obs is not None else Observability.collecting()
        if artifact_store is not None and not artifact_store.obs.enabled:
            artifact_store.obs = self.obs
        self._world: Optional[World] = None
        #: Side-effect replays queued by cache hits, run (in serve
        #: order) the moment the world materializes — see the module
        #: docstring's pure-accelerator rule.
        self._replays: List[Callable[[], None]] = []
        self._dataset: Optional[AlexaSubdomainsDataset] = None
        self._dataset_built_in_world = False
        self._trace: Optional[Trace] = None
        self._clouduse: Optional[CloudUseAnalysis] = None
        self._patterns: Optional[PatternAnalysis] = None
        self._regions: Optional[RegionAnalysis] = None
        self._zones: Optional[ZoneAnalysis] = None
        self._traffic: Optional[TrafficAnalysis] = None
        self._wan: Optional[WanAnalysis] = None

    # -- artifact keys -------------------------------------------------

    def _key(self, kind: str, **extra: object) -> str:
        # The scenario joins the key only when set, so healthy-run keys
        # are unchanged across revisions that predate scenarios.
        if self.scenario is not None:
            extra["scenario"] = self.scenario.name
        # Same join-only-when-set rule for the epoch axis: the
        # fingerprint is None both for epoch 0 and for kinds no step
        # touched, so those keys equal the single-shot keys and the
        # cached artifacts are reused across the series.
        if self.epoch is not None:
            fingerprint = self.epoch.fingerprint(kind)
            if fingerprint is not None:
                extra["epoch"] = fingerprint
        return artifact_key(
            kind, {"world": self.world_config, **extra}
        )

    def _dataset_key(self) -> str:
        return self._key("dataset", range_coverage=1.0)

    def _capture_key(self) -> str:
        return self._key("capture")

    def _wan_key(self) -> str:
        # Worker counts never change outputs (the campaigns are
        # bit-identical), so sequential and parallel runs share entries.
        return self._key("wan", wan=replace(self.wan_config, workers=0))

    # -- expensive artifacts -------------------------------------------

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        """One stage build: a span, the collector paused, and the
        stage's heap frozen once it is built (module docstring)."""
        with self.obs.tracer.span(name, category="stage"):
            with collector_paused(freeze=True):
                yield

    @property
    def world(self) -> World:
        if self._world is None:
            _release_frozen_heap()
            with self._stage("world"):
                if self.epoch is not None:
                    # The epoch timeline owns world construction: base
                    # world plus every evolution step through this
                    # epoch, memoized on the Epoch.
                    self._world = self.epoch.build_world()
                else:
                    self._world = World(
                        self.world_config,
                        defer_tenants=self.defer_tenants,
                    )
            pending, self._replays = self._replays, []
            for replay in pending:
                replay()
            if self.defer_tenants:
                # Its tenants exist only through the dataset build.
                self._build_dataset()
        return self._world

    def _replay_or_defer(self, replay: Callable[[], None]) -> None:
        """Run a cache hit's side-effect replay now if the world
        already exists, else queue it for world materialization."""
        if self._world is not None:
            replay()
        else:
            self._replays.append(replay)

    def _replay_capture(self) -> None:
        # The capture's own side effects presuppose the dataset
        # build's (the same ordering rule the miss path enforces).
        self._build_dataset()
        with self._stage("capture"):
            self.world.capture_trace()

    def _build_dataset(self) -> None:
        """Run the real §2.1 build against this context's world, once.

        Needed even when the dataset product came from the cache: the
        build's DNS side effects are part of the state the capture
        generator consumes.  The product becomes the context's dataset
        unless the cache already served one.  The world is fetched
        before the stage opens, so its own build (and a deferred
        world's dataset build, or a queued replay) is never timed as
        part of this stage, and never runs twice.
        """
        world = self.world
        if self._dataset_built_in_world:
            return
        with self._stage("dataset"):
            dataset = DatasetBuilder(
                world, scenario=self.scenario, obs=self.obs
            ).build(workers=self.workers)
        self._dataset_built_in_world = True
        if self._dataset is None:
            self._dataset = dataset

    @property
    def dataset(self) -> AlexaSubdomainsDataset:
        if self._dataset is None:
            if self.artifacts is not None:
                key = self._dataset_key()
                cached = self.artifacts.load("dataset", key)
                if cached is not None:
                    self._dataset = cached
                    self._replay_or_defer(self._build_dataset)
                    return self._dataset
                self._build_dataset()
                self.artifacts.store("dataset", key, self._dataset)
            else:
                self._build_dataset()
        return self._dataset

    @property
    def trace(self) -> Trace:
        """The campus capture trace (cache-aware)."""
        if self._trace is None:
            key = None
            if self.artifacts is not None:
                key = self._capture_key()
                cached = self.artifacts.load("capture", key)
                if cached is not None:
                    self._trace = cached
                    self._replay_or_defer(self._replay_capture)
                    return self._trace
            self._build_dataset()  # drains any queued replays first
            with self._stage("capture"):
                self._trace = self.world.capture_trace()
            if key is not None:
                self.artifacts.store("capture", key, self._trace)
        return self._trace

    @property
    def wan(self) -> WanAnalysis:
        if self._wan is None:
            analysis = WanAnalysis(
                lambda: self.world,
                self.wan_config,
                clients=planetlab_sites(
                    self.world_config.num_probe_vantages
                ),
                regions=ec2_region_names(),
                scenario=self.scenario,
                obs=self.obs,
            )
            if self.artifacts is not None:
                key = self._wan_key()
                cached = self.artifacts.load("wan", key)
                if cached is not None:
                    analysis.preload_measurements(*cached)
                    self._replay_or_defer(analysis.replay_side_effects)
                else:
                    store = self.artifacts

                    def save(latency, throughput, _key=key):
                        store.store("wan", _key, (latency, throughput))

                    analysis.on_measured = save
            self._wan = analysis
        return self._wan

    # -- derived analyses ----------------------------------------------

    @property
    def clouduse(self) -> CloudUseAnalysis:
        if self._clouduse is None:
            self._clouduse = CloudUseAnalysis(self.world, self.dataset)
        return self._clouduse

    @property
    def patterns(self) -> PatternAnalysis:
        if self._patterns is None:
            self._patterns = PatternAnalysis(self.world, self.dataset)
        return self._patterns

    @property
    def regions(self) -> RegionAnalysis:
        if self._regions is None:
            self._regions = RegionAnalysis(self.world, self.dataset)
        return self._regions

    @property
    def zones(self) -> ZoneAnalysis:
        if self._zones is None:
            self._zones = ZoneAnalysis(
                self.world, self.dataset, self.patterns, obs=self.obs
            )
        return self._zones

    @property
    def traffic(self) -> TrafficAnalysis:
        if self._traffic is None:
            self._traffic = TrafficAnalysis(
                self.world, trace=self.trace, obs=self.obs
            )
        return self._traffic

    # -- run telemetry -------------------------------------------------

    def telemetry(self) -> dict:
        """Per-stage wall times and campaign telemetry for this
        context's builds, aggregated from the tracer's span tree.  Only
        stages that actually ran appear; a fully warm artifact-cache
        run reports none, and a :data:`~repro.obs.NOOP` plane reports
        empty sections.  ``views_s`` charges each derived view (the
        frontier per metric, the capture aggregate, the subdomain
        zones) once, to its build, whichever experiment asked first."""
        tracer = self.obs.tracer
        telemetry = {
            "stages_s": {
                f"{name}_s": round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("stage").items()
                )
            },
            "dataset_steps_s": {
                name: round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("dataset-step").items()
                )
            },
            "campaigns_s": {
                name: round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("campaign").items()
                )
            },
            "views_s": {
                name: round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("view").items()
                )
            },
        }
        if self.artifacts is not None:
            telemetry["artifact_cache"] = self.artifacts.stats.as_dict()
        return telemetry
