"""Shared, lazily built state for experiment runs.

Building the world, the Alexa dataset, the capture, and the WAN
campaign dominates runtime; experiments share one context so each
expensive artifact is produced exactly once per configuration.

The dataset and the capture always build against the context's world,
dataset first: the capture generator resolves traffic domains through
live DNS, so the trace depends on the rotation counters and resolver
caches the dataset build leaves behind, and asking for the trace
builds the dataset before it.

With an :class:`~repro.artifacts.ArtifactStore` attached, the context
first looks up the WAN matrices, keyed on their configuration plus the
code fingerprint: the one product whose hit skips its build, the §5
campaign.  The campaign also changes the world (it launches the
measurement fleet and draws from the jitter and noise streams), and
experiments that read the world directly depend on that state.  A hit
therefore replays those side effects, at once if the world exists and
otherwise the moment it materializes, so the world ends where a cold
run's call sequence leaves it.  The hit also re-applies the campaign's
deterministic counter deltas, stored with the matrices, so the run's
metrics snapshot equals a cold run's.  A run that reads only the WAN
matrices never builds a world.

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
from typing import Callable, Iterator, Optional

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
        #: runs (and into the WAN artifact key — a drilled run must
        #: never be served a healthy run's matrices).
        self.scenario = scenario
        #: Point on a world timeline (:class:`repro.epochs.plan.Epoch`)
        #: or ``None`` for the classic single-shot pipeline.  When set,
        #: the world is built through the epoch timeline and the WAN
        #: key gains the epoch's ``wan`` fingerprint — omitted while no
        #: step through this epoch touched the matrices, so they keep
        #: their epoch-0 key and hit the store.
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
        #: A WAN hit's side-effect replay, waiting for the world to
        #: materialize (module docstring).
        self._wan_replay: Optional[Callable[[], None]] = None
        self._dataset: Optional[AlexaSubdomainsDataset] = None
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
            if self.defer_tenants:
                # Its tenants exist only through the dataset build.
                self.dataset
            if self._wan_replay is not None:
                # A cold campaign gets a deferred world only with its
                # dataset built; the replay waits for that build too.
                replay, self._wan_replay = self._wan_replay, None
                replay()
        return self._world

    @property
    def dataset(self) -> AlexaSubdomainsDataset:
        """The §2.1 dataset, built against this context's world.

        The world is fetched before the stage opens, so its own build
        is never timed as part of this stage; a deferred world builds
        the dataset inside that fetch, and then it is done.
        """
        if self._dataset is None:
            world = self.world
            if self._dataset is None:
                with self._stage("dataset"):
                    self._dataset = DatasetBuilder(
                        world, scenario=self.scenario, obs=self.obs
                    ).build(workers=self.workers)
        return self._dataset

    @property
    def trace(self) -> Trace:
        """The campus capture trace, generated after the dataset build
        (module docstring)."""
        if self._trace is None:
            self.dataset
            with self._stage("capture"):
                self._trace = self.world.capture_trace()
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
                    latency, throughput, counter_deltas = cached
                    analysis.preload_measurements(latency, throughput)
                    self.obs.metrics.apply_counter_deltas(counter_deltas)
                    if self._world is None:
                        self._wan_replay = analysis.replay_side_effects
                    else:
                        analysis.replay_side_effects()
                else:
                    store = self.artifacts

                    def save(latency, throughput, counter_deltas, _key=key):
                        store.store(
                            "wan", _key,
                            (latency, throughput, counter_deltas),
                        )

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
        stages and campaigns that actually ran appear (WAN matrices
        served from the artifact cache run no campaign), and a
        :data:`~repro.obs.NOOP` plane reports empty sections.
        ``views_s`` charges each derived view (the frontier per metric,
        the capture aggregate, the subdomain zones) once, to its build,
        whichever experiment asked first."""
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
