"""The deterministic campaign engine.

A campaign is a grid — (vantage × target × round) — of probe cells.
The engine schedules the grid in a fixed order (round-major, then the
campaign's major axis, then its minor axis), executes each cell
through the campaign's probe implementation, applies the configured
:class:`~repro.campaign.model.ProbePolicy` retry/loss semantics from
per-lane derived RNG streams, threads an
:class:`~repro.faults.OutageScenario` into every probe, and fans the
grid out over the single fork path in :mod:`repro.campaign.fanout` —
bit-identically to a sequential run for any worker count.

Two sharding shapes cover every campaign in the repository:

* ``shard_axis = "round"`` — the grid is chunked by round.  Campaigns
  whose probes consume *shared* world RNG streams (the WAN jitter and
  noise streams) declare their exact per-round draw counts via
  :meth:`GridCampaign.stream_advances`; each forked worker
  fast-forwards its inherited streams to its chunk's start position,
  and the parent advances its own copies past the whole campaign, so
  downstream consumers see exactly the sequential stream state.
* ``shard_axis = "grid"`` — single-round campaigns whose probes draw
  only hash-derived (order-independent) randomness are chunked along
  the major axis with no stream bookkeeping at all.

Campaigns with server-side state (dataset DNS lookups advance rotation
counters) set ``shardable = False`` and always run in-process; their
parallelism comes from the rank-sliced pipeline shards in
:mod:`repro.analysis.shards`, which reconcile that state explicitly —
over this module's same fork path.

Per-lane RNG streams: engine-injected randomness (probe loss, retry
outcomes) is drawn from ``derive_rng(seed, "campaign", name, "loss",
kind, vantage, target, round)`` — a stream per (lane, round), so the
draw is a property of the cell, independent of execution order and of
how the grid is sharded.

Any shard whose record count disagrees with the declared grid shape
raises ``RuntimeError`` (the same drift-is-an-error stance as the
dataset shard merge).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.campaign.fanout import fork_map, partition
from repro.campaign.model import CampaignResult, ProbePolicy, ProbeRecord
from repro.faults.scenarios import OutageScenario
from repro.obs import NOOP, Observability
from repro.sim import (
    advance_gauss, collector_paused, derive_rng, fork_pool_available,
)

log = logging.getLogger("repro.campaign")


@dataclass(frozen=True, slots=True)
class CellContext:
    """Everything a cell execution may consult beyond its endpoints."""

    round_index: int
    time_s: float
    vantage_index: int
    target_index: int
    scenario: Optional[OutageScenario]
    policy: ProbePolicy
    seed: int


class GridCampaign:
    """Base class for one measurement campaign over a task grid.

    Subclasses define the axes and the probe executed per cell; the
    engine owns scheduling, policy, scenario threading and fan-out.
    """

    #: Campaign name; also the lane-stream namespace.
    name: str = "campaign"
    #: Number of rounds (the grid's time axis).
    rounds: int = 1
    #: Fixed number of records every cell must produce.
    probes_per_cell: int = 1
    #: True: iterate vantage-major (round → vantage → target);
    #: False: target-major (round → target → vantage).
    vantage_major: bool = True
    #: "round" chunks rounds (stream fast-forward applies);
    #: "grid" chunks the major axis (single-round campaigns only).
    shard_axis: str = "round"
    #: False for campaigns with server-side state (DNS rotation
    #: counters); the engine then never forks them.
    shardable: bool = True

    def vantage_axis(self) -> Sequence:
        raise NotImplementedError

    def target_axis(self) -> Sequence:
        raise NotImplementedError

    def time_of_round(self, round_index: int) -> float:
        return 0.0

    def stream_advances(
        self, scenario: Optional[OutageScenario]
    ) -> Sequence[Tuple[object, int]]:
        """(shared RNG stream, exact gauss draws per round) pairs.

        Only campaigns that consume shared world streams need this;
        the counts may depend on the scenario (blocked probes skip the
        wide-area models entirely), so the engine passes it in.
        """
        return ()

    def execute_cell(
        self, vantage, target, cell: CellContext
    ) -> Sequence[ProbeRecord]:
        raise NotImplementedError


class CampaignEngine:
    """Runs :class:`GridCampaign` grids deterministically."""

    def __init__(
        self,
        seed: int,
        scenario: Optional[OutageScenario] = None,
        policy: Optional[ProbePolicy] = None,
        workers: int = 0,
        obs: Observability = NOOP,
    ):
        self.seed = seed
        self.scenario = scenario
        self.policy = policy or ProbePolicy()
        self.workers = workers
        #: Observability plane (tracer spans per grid/shard, probe
        #: counters, optional probe-level event sink).  The shared
        #: :data:`~repro.obs.NOOP` default makes instrumentation free
        #: for un-instrumented callers.
        self.obs = obs

    # -- scheduling ----------------------------------------------------

    def run(
        self, campaign: GridCampaign, workers: Optional[int] = None
    ) -> CampaignResult:
        """Execute the full grid; records come back in grid order."""
        start = time.perf_counter()
        vantages = list(campaign.vantage_axis())
        targets = list(campaign.target_axis())
        effective = self.workers if workers is None else workers
        with self.obs.tracer.span(
            campaign.name,
            category="campaign",
            rounds=campaign.rounds,
            vantages=len(vantages),
            targets=len(targets),
            workers=effective,
        ):
            if not vantages or not targets or campaign.rounds <= 0:
                records: List[ProbeRecord] = []
            else:
                # The records accumulated here survive to the result, so
                # generational GC passes over them mid-campaign are pure
                # overhead (they roughly doubled grid time at bench
                # scale).  Probe objects are acyclic — refcounting
                # reclaims the transients — so collection is safely
                # deferred to the end of the run.  The engine never
                # freezes: its callers include tests and tools that own
                # no long-lived heap.
                with collector_paused():
                    records = self._run_grid(
                        campaign, vantages, targets, effective
                    )
        elapsed = time.perf_counter() - start
        if self.obs.metrics.enabled:
            self._observe_records(campaign, records, elapsed)
        log.debug(
            "campaign %s: %d records in %.3fs (workers=%d)",
            campaign.name, len(records), elapsed, effective,
        )
        return CampaignResult(
            name=campaign.name,
            records=records,
            rounds=campaign.rounds,
            num_vantages=len(vantages),
            num_targets=len(targets),
            workers=effective,
            elapsed_s=elapsed,
            scenario_name=(
                self.scenario.name if self.scenario is not None else None
            ),
        )

    def _observe_records(
        self,
        campaign: GridCampaign,
        records: List[ProbeRecord],
        elapsed: float,
    ) -> None:
        """Fold one finished grid into the metrics registry.

        Runs parent-side over the merged record stream, so the counts
        are identical for sequential and sharded executions.  Probe
        counts per kind, retries, losses and blocked probes are pure
        functions of (seed, config); the records/sec gauge is
        wall-clock-derived and therefore volatile.
        """
        metrics = self.obs.metrics
        counts: dict = {}
        retries = 0
        losses = 0
        blocked = 0
        for record in records:
            kind = record.task.kind.value
            counts[kind] = counts.get(kind, 0) + 1
            if record.attempts > 1:
                retries += record.attempts - 1
            if record.lost:
                losses += 1
            if record.blocked:
                blocked += 1
        for kind in sorted(counts):
            metrics.counter("probes_total", kind=kind).inc(counts[kind])
        if retries:
            metrics.counter("probe_retries_total").inc(retries)
        if losses:
            metrics.counter("probe_losses_total").inc(losses)
        if blocked:
            metrics.counter("probes_blocked_total").inc(blocked)
        if elapsed > 0:
            metrics.gauge(
                "campaign_records_per_s",
                campaign=campaign.name,
                volatile=True,
            ).set(len(records) / elapsed)

    def _run_grid(
        self,
        campaign: GridCampaign,
        vantages: list,
        targets: list,
        workers: int,
    ) -> List[ProbeRecord]:
        rounds = campaign.rounds
        can_fork = (
            campaign.shardable and workers > 1 and fork_pool_available()
        )
        if can_fork and campaign.shard_axis == "round" and rounds > 1:
            return self._run_round_sharded(
                campaign, vantages, targets, workers
            )
        if can_fork and campaign.shard_axis == "grid":
            return self._run_grid_sharded(
                campaign, vantages, targets, workers
            )
        return self._run_cells(campaign, vantages, targets, 0, rounds)

    def _run_round_sharded(
        self,
        campaign: GridCampaign,
        vantages: list,
        targets: list,
        workers: int,
    ) -> List[ProbeRecord]:
        """Chunk the round axis over forked workers.

        Workers inherit the parent's shared streams positioned at round
        0 and fast-forward them past the rounds earlier chunks own; the
        per-round draw counts are exact (see
        :meth:`GridCampaign.stream_advances`), so every stream value —
        and therefore every record — is bit-identical to sequential
        execution.  After the join the parent fast-forwards its own
        copies past the whole campaign.
        """
        rounds = campaign.rounds
        bounds = partition(rounds, workers)
        advances = tuple(campaign.stream_advances(self.scenario))
        sink = self.obs.events

        def chunk(index: int):
            lo, hi = bounds[index]
            for stream, per_round in advances:
                advance_gauss(stream, lo * per_round)
            mark = sink.mark()
            produced = self._run_cells(campaign, vantages, targets, lo, hi)
            return produced, (
                sink.take_since(mark) if sink.enabled else None
            )

        with self.obs.tracer.span(
            f"{campaign.name}:fanout",
            category="shard",
            axis="round",
            shards=len(bounds),
        ):
            parts = fork_map(chunk, len(bounds), len(bounds))
        for stream, per_round in advances:
            advance_gauss(stream, rounds * per_round)
        per_round_records = (
            len(vantages) * len(targets) * campaign.probes_per_cell
        )
        records: List[ProbeRecord] = []
        for (lo, hi), (part, events) in zip(bounds, parts):
            if len(part) != (hi - lo) * per_round_records:
                raise RuntimeError(
                    f"campaign {campaign.name!r} shard drift: rounds "
                    f"[{lo}, {hi}) produced {len(part)} records, "
                    f"expected {(hi - lo) * per_round_records}"
                )
            records.extend(part)
            if events:
                sink.emit_many(events)
            self._observe_merge(campaign, len(part))
        return records

    def _run_grid_sharded(
        self,
        campaign: GridCampaign,
        vantages: list,
        targets: list,
        workers: int,
    ) -> List[ProbeRecord]:
        """Chunk the major axis; only valid for stream-free campaigns."""
        if campaign.rounds != 1:
            raise RuntimeError(
                f"campaign {campaign.name!r}: grid sharding requires a "
                f"single round, got {campaign.rounds}"
            )
        if tuple(campaign.stream_advances(self.scenario)):
            raise RuntimeError(
                f"campaign {campaign.name!r}: grid sharding cannot "
                "preserve shared-stream positions; shard by round"
            )
        major = vantages if campaign.vantage_major else targets
        minor_len = len(targets if campaign.vantage_major else vantages)
        bounds = partition(len(major), workers)
        sink = self.obs.events

        def chunk(index: int):
            lo, hi = bounds[index]
            mark = sink.mark()
            if campaign.vantage_major:
                produced = self._run_cells(
                    campaign, vantages[lo:hi], targets, 0, 1,
                    vantage_offset=lo,
                )
            else:
                produced = self._run_cells(
                    campaign, vantages, targets[lo:hi], 0, 1,
                    target_offset=lo,
                )
            return produced, (
                sink.take_since(mark) if sink.enabled else None
            )

        with self.obs.tracer.span(
            f"{campaign.name}:fanout",
            category="shard",
            axis="grid",
            shards=len(bounds),
        ):
            parts = fork_map(chunk, len(bounds), len(bounds))
        records: List[ProbeRecord] = []
        for (lo, hi), (part, events) in zip(bounds, parts):
            expected = (hi - lo) * minor_len * campaign.probes_per_cell
            if len(part) != expected:
                raise RuntimeError(
                    f"campaign {campaign.name!r} shard drift: slice "
                    f"[{lo}, {hi}) produced {len(part)} records, "
                    f"expected {expected}"
                )
            records.extend(part)
            if events:
                sink.emit_many(events)
            self._observe_merge(campaign, len(part))
        return records

    def _observe_merge(self, campaign: GridCampaign, size: int) -> None:
        """Shard-merge accounting (volatile: shard shapes depend on the
        worker count, which never changes outputs)."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "campaign_shards_merged_total", volatile=True
        ).inc()
        metrics.histogram(
            "shard_merge_records", volatile=True, campaign=campaign.name
        ).observe(size)

    # -- cell execution ------------------------------------------------

    def _run_cells(
        self,
        campaign: GridCampaign,
        vantages: list,
        targets: list,
        round_lo: int,
        round_hi: int,
        vantage_offset: int = 0,
        target_offset: int = 0,
    ) -> List[ProbeRecord]:
        records: List[ProbeRecord] = []
        scenario = self.scenario
        policy = self.policy
        seed = self.seed
        probes_per_cell = campaign.probes_per_cell
        apply_policy = not policy.is_default
        sink = self.obs.events
        emit = sink.emit if sink.enabled else None
        campaign_name = campaign.name
        for round_index in range(round_lo, round_hi):
            time_s = campaign.time_of_round(round_index)
            if campaign.vantage_major:
                cells = (
                    (vi, vantage, ti, target)
                    for vi, vantage in enumerate(vantages, vantage_offset)
                    for ti, target in enumerate(targets, target_offset)
                )
            else:
                cells = (
                    (vi, vantage, ti, target)
                    for ti, target in enumerate(targets, target_offset)
                    for vi, vantage in enumerate(vantages, vantage_offset)
                )
            for vi, vantage, ti, target in cells:
                cell = CellContext(
                    round_index=round_index,
                    time_s=time_s,
                    vantage_index=vi,
                    target_index=ti,
                    scenario=scenario,
                    policy=policy,
                    seed=seed,
                )
                produced = campaign.execute_cell(vantage, target, cell)
                if len(produced) != probes_per_cell:
                    raise RuntimeError(
                        f"campaign {campaign.name!r} cell drift: cell "
                        f"({vi}, {ti}, round {round_index}) produced "
                        f"{len(produced)} records, declared "
                        f"{probes_per_cell}"
                    )
                if apply_policy:
                    for record in produced:
                        self._apply_policy(campaign, record)
                if emit is not None:
                    # Deterministic fields only — no wall clock, no
                    # pids — so a sharded run's merged log is
                    # byte-identical to the sequential one.
                    for record in produced:
                        task = record.task
                        emit({
                            "campaign": campaign_name,
                            "kind": task.kind.value,
                            "vantage": task.vantage,
                            "target": task.target,
                            "round": task.round_index,
                            "ok": record.ok,
                            "attempts": record.attempts,
                            "lost": record.lost,
                            "blocked": record.blocked,
                        })
                records.extend(produced)
        return records

    def _apply_policy(
        self, campaign: GridCampaign, record: ProbeRecord
    ) -> None:
        """Deterministic per-lane loss and retry semantics.

        The lane stream is derived from the cell's identity, never from
        a shared cursor, so outcomes are identical under any sharding.
        """
        policy = self.policy
        if policy.loss_rate <= 0.0:
            return
        task = record.task
        lane = derive_rng(
            self.seed, "campaign", campaign.name, "loss",
            task.kind.value, task.vantage, task.target, task.round_index,
        )
        attempts = 0
        delivered = False
        while attempts < policy.attempts:
            attempts += 1
            if lane.random() >= policy.loss_rate:
                delivered = True
                break
        record.attempts = attempts
        if not delivered:
            record.lost = True
            record.ok = False
