"""Forked, bit-identical §2.1 dataset builds.

The ranked domain list is cut into contiguous rank chunks, and each
chunk runs the full enumerate → filter → distributed-lookups → NS-dig
pipeline in a forked worker process against a copy-on-write view of the
world (the same worker discipline as the parallel WAN campaign: nothing
heavy is pickled, closures never cross the process boundary).  One
routine, :func:`build_forked`, serves both kinds of world:

* a batch world forks once: one chunk per worker, cut by
  :func:`partition_sites` so AXFR-heavy zones do not serialize the
  fan-out;
* a deferred world (``World(defer_tenants=True)``) bounds memory: it
  deploys a *group* of fixed-size chunks (one per worker, at least
  one), forks, merges, and releases every tenant the capture will never
  revisit before deploying the next group.  Peak memory is bounded by
  one group's tenants plus the dataset itself, whatever the domain
  count.

What makes naive chunking wrong is rotation state.  Dynamic DNS names
answer from a monotonically increasing per-name query counter, and one
of them — ``proxy.heroku.com``-style shared proxies — is reachable from
*many* tenant domains, so its counter interleaves queries across
chunks.  The fix has three parts:

1. before forking a group, a static reverse-CNAME alias-graph analysis
   flags the dynamic names whose rotation can cross chunks;
2. workers detect digs that terminated on a flagged name (possible
   post-hoc: dynamic answers are alias-graph terminals, so a response's
   addresses are either entirely static or entirely the terminal's),
   exclude those answers from their outputs, and log a compact
   descriptor instead;
3. after the last group, the parent replays the logged queries against
   the real answer functions in exact sequential global order —
   phase-major, then chunk order, then per-chunk sequence — with query
   indices seeded from its own counters, patching the merged records
   (and, for a batch world, the adopted resolver-cache entries) with the
   replayed answers.

Names never flagged need none of this: their whole query history
belongs to one chunk, so the worker's locally observed rotation already
matches the sequential one, and the parent only has to advance its
counters by the workers' reported deltas.  A batch world flags with
:meth:`DnsInfrastructure.shared_dynamic_names` over the final alias
graph (names reachable from two or more tenant domains).  A deferred
world cannot see future chunks, so it flags *conservatively* per group
(:meth:`DnsInfrastructure.cross_chunk_dynamic_names`); the replay runs
against the finalized world, which is sound because every dynamic name
lives in a global provider zone that tenant releases never touch.

The parent stays dig-pristine for the whole fan-out — even a
single-worker group forks — so one counter baseline serves every group
and the replay runs once at the end.  The reconcile fails loud, never
drifts silently, on: a parent that advanced a dynamic counter
mid-build; a replay count that differs from the workers' deltas; a
name flagged for a group that advanced there without descriptors; and
a name that advanced in two or more chunks without descriptors (a name
the conservative analysis missed).

The NS survey is split: workers do the per-record NS digs (fresh, no
cache or rotation side effects), while the parent resolves the distinct
NS hostnames once per group, after adopting the group's worker caches —
that step's first-seen dedup is global, so chunk-local copies would
both re-pay and re-side-effect duplicate resolutions, and NS targets
are static A records, so the parent's digs rotate nothing.

Each worker trims its chunk's ``discovered`` map
(:func:`repro.analysis.dataset.trim_discovered`) before its result is
pickled, as the in-process build trims its own, so every build returns
one dataset product.  A batch build is bit-identical to a sequential
one for any worker count: records, discovered map, NS addresses,
dynamic query counters, resolver caches and query counts
(``tests/test_determinism_caching.py`` holds it to the same standard as
the fresh-vs-warmed comparison).  A deferred build gives up one thing
by design (documented in docs/PERFORMANCE.md): vantage-resolver caches
are not exported (cache keys are domain-unique fqdns no later stage
re-digs); their query-count deltas still apply.  Everything else, the
dataset product included, matches a batch build's bytes
(``tests/analysis/test_streambuild.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataset import AlexaSubdomainsDataset, trim_discovered
from repro.campaign.fanout import fork_map, partition_weighted
from repro.dns.records import DnsResponse, RRType
from repro.net.ipv4 import IPv4Address

#: Ranks a deferred world deploys per forked chunk.  Sized so a chunk's
#: tenant state (zones, records, plans, instances) stays tens of MB
#: while the per-chunk fork/merge overhead stays well under a percent
#: of the build.  Output bytes do not depend on it (any contiguous
#: partition merges identically); tests shrink it to exercise many
#: chunks at small domain counts.
CHUNK_SIZE = 6_250

#: Pipeline phases in sequential execution order; the replay sorts
#: logged descriptors phase-major so cross-shard rotations are assigned
#: the indices sequential execution would have used.
PHASES = ("enumerate", "filter", "lookup", "cloudfront_lookup", "ns_dig")
_PHASE_RANK = {phase: rank for rank, phase in enumerate(PHASES)}


@dataclass(slots=True)
class ShardLogEntry:
    """One worker dig whose answer came from a shared dynamic name.

    ``kind`` says what the replayed answer must patch: a ``"cache"``
    entry the dig wrote, a merged ``"record"``'s address set, or — for
    ``"counter"`` — nothing beyond consuming one query index.
    """

    phase: str
    seq: int
    kind: str
    name: str
    vantage_name: str
    qname: str
    position: int = -1


class ShardRecorder:
    """Collects shared-rotation descriptors inside one shard worker."""

    def __init__(self, shared_names: Set[str]):
        self.shared = shared_names
        self.entries: List[ShardLogEntry] = []
        self.phase: str = PHASES[0]

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def shared_terminal(
        self, qname: str, response: DnsResponse
    ) -> Optional[str]:
        """The shared dynamic name this executed dig terminated on.

        Cache hits never advance rotation state; an executed A dig
        touches a dynamic counter exactly when its chain terminal (or
        the qname itself) is dynamic, since dynamic answers never
        contain CNAMEs.
        """
        if response.from_cache or not self.shared:
            return None
        if response.chain and response.chain[-1] in self.shared:
            return response.chain[-1]
        if qname in self.shared:
            return qname
        return None

    def _log(self, kind: str, name: str, vantage_name: str, qname: str,
             position: int = -1) -> None:
        self.entries.append(
            ShardLogEntry(
                phase=self.phase,
                seq=len(self.entries),
                kind=kind,
                name=name,
                vantage_name=vantage_name,
                qname=qname,
                position=position,
            )
        )

    def note_cached_dig(
        self, vantage_name: str, qname: str, response: DnsResponse
    ) -> None:
        """A non-fresh dig (enumeration or filter) just executed.

        If it rotated a shared name, the addresses it observed — and, if
        it cached, the cache entry it wrote — belong to a query index
        only the merge can assign.  Classification stays local: at full
        range coverage every rotation of a given name classifies
        identically, which is exactly the :meth:`DatasetBuilder.can_shard`
        precondition.
        """
        name = self.shared_terminal(qname, response)
        if name is None:
            return
        if response.exists and response.ttl > 0:
            self._log("cache", name, vantage_name, qname)
        else:
            self._log("counter", name, vantage_name, qname)

    def note_lookup(
        self, position: int, vantage_name: str, qname: str,
        response: DnsResponse,
    ) -> bool:
        """A fresh distributed-lookup dig executed; True when its
        addresses must be withheld for the parent replay."""
        name = self.shared_terminal(qname, response)
        if name is None:
            return False
        self._log("record", name, vantage_name, qname, position)
        return True

    def note_counter_dig(self, qname: str, response: DnsResponse) -> None:
        """A fresh NS dig executed; only the consumed index matters."""
        name = self.shared_terminal(qname, response)
        if name is not None:
            self._log("counter", name, qname, qname)


@dataclass
class ShardResult:
    """Everything one worker sends back for reconciliation."""

    shard_index: int
    discovered: Dict[str, List[str]]
    total: int
    records: list
    cloudfront_records: list
    other_cdn: Dict[str, List[str]]
    ns_name_lists: List[List[str]]
    entries: List[ShardLogEntry]
    #: (zone origin, dynamic name) → how far this shard's queries
    #: advanced the counter.
    counter_deltas: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: vantage name → (query-count delta, cache entries this shard wrote).
    resolver_payload: Dict[str, tuple] = field(default_factory=dict)
    step_timings: Dict[str, float] = field(default_factory=dict)
    #: Probe-level events the shard's engine campaigns emitted, kept
    #: per phase so the parent can merge them phase-major (the order a
    #: sequential build logs them in).  Empty when the sink is off.
    lookup_events: list = field(default_factory=list)
    cloudfront_events: list = field(default_factory=list)
    #: Metrics counter increments this shard's campaigns made
    #: (``MetricsRegistry.take_counter_deltas`` tuples) — a forked
    #: child's registry dies with it, so counts ride back here.
    metric_deltas: list = field(default_factory=list)


def partition_sites(sites, infra, shards: int) -> List[Tuple[int, int]]:
    """Work-balanced contiguous rank slices for a site list.

    Equal-count slices skew badly at paper scale: an AXFR-able domain's
    shard enumerates, filters, and digs every name in its zone, while a
    wordlist-only domain costs a near-constant screening pass — so a
    handful of large zones can serialize the whole fan-out behind one
    worker.  Each site is weighted by its own zone's name count (one
    registry probe, no digs, no side effects), and the cut points come
    from :func:`repro.campaign.fanout.partition_weighted`.  Boundaries
    only affect scheduling — any contiguous partition merges
    bit-identically — so this is pure wall-clock balance.
    """
    weights = []
    for site in sites:
        zone = infra.get_zone(site.domain)
        weights.append(1 + (len(zone.names()) if zone is not None else 0))
    return partition_weighted(weights, shards)


def _build_shard(
    builder,
    bounds: List[Tuple[int, int]],
    shared: Set[str],
    resolver_baselines: Dict[str, tuple],
    counter_baseline: Dict[Tuple[str, str], int],
    shard_index: int,
    export_caches: bool = True,
) -> ShardResult:
    """Worker body: run the pipeline over one contiguous rank slice.

    ``export_caches=False`` (a deferred world) skips the resolver cache
    export: the parent drops worker caches by design, so shipping them
    back through the pool would only cost pickling and transient
    memory.  Query-count deltas still ride back.
    """
    lo, hi = bounds[shard_index]
    world = builder.world
    recorder = ShardRecorder(shared)
    builder._recorder = recorder
    timings: Dict[str, float] = {}
    metrics_checkpoint = builder.obs.metrics.counter_checkpoint()

    start = time.perf_counter()
    recorder.set_phase("enumerate")
    discovered, total = builder.discover_subdomains(
        world.alexa.sites[lo:hi], offset=lo
    )
    timings["enumerate"] = time.perf_counter() - start

    start = time.perf_counter()
    recorder.set_phase("filter")
    cloud_using, cloudfront_using, other_cdn = builder.filter_cloud_using(
        discovered
    )
    timings["filter"] = time.perf_counter() - start

    sink = builder.obs.events
    start = time.perf_counter()
    recorder.set_phase("lookup")
    mark = sink.mark()
    records = builder.distributed_lookups(cloud_using)
    lookup_events = sink.take_since(mark) if sink.enabled else []
    recorder.set_phase("cloudfront_lookup")
    mark = sink.mark()
    cloudfront_records = builder.distributed_lookups(cloudfront_using)
    cloudfront_events = sink.take_since(mark) if sink.enabled else []
    timings["distributed_lookups"] = time.perf_counter() - start

    start = time.perf_counter()
    recorder.set_phase("ns_dig")
    ns_name_lists = builder.ns_dig_survey(records)
    timings["ns_survey"] = time.perf_counter() - start
    discovered = trim_discovered(
        discovered, records, cloudfront_records, other_cdn
    )

    counter_deltas: Dict[Tuple[str, str], int] = {}
    for key, count in world.dns.dynamic_query_counts().items():
        delta = count - counter_baseline.get(key, 0)
        if delta:
            counter_deltas[key] = delta

    resolver_payload: Dict[str, tuple] = {}
    for vantage in world.dns_vantages():
        resolver = world._resolvers.get(vantage.name)
        if resolver is None:
            continue
        baseline_count, baseline_keys = resolver_baselines.get(
            vantage.name, (0, frozenset())
        )
        new_entries = (
            resolver.export_cache_entries(baseline_keys)
            if export_caches else {}
        )
        query_delta = resolver.query_count - baseline_count
        if new_entries or query_delta:
            resolver_payload[vantage.name] = (query_delta, new_entries)

    return ShardResult(
        shard_index=shard_index,
        discovered=discovered,
        total=total,
        records=records,
        cloudfront_records=cloudfront_records,
        other_cdn=other_cdn,
        ns_name_lists=ns_name_lists,
        entries=recorder.entries,
        counter_deltas=counter_deltas,
        resolver_payload=resolver_payload,
        step_timings=timings,
        lookup_events=lookup_events,
        cloudfront_events=cloudfront_events,
        metric_deltas=builder.obs.metrics.take_counter_deltas(
            metrics_checkpoint
        ),
    )


def replay_shared_rotations(
    world,
    results: List[ShardResult],
    counter_baseline: Dict[Tuple[str, str], int],
    patch_cache,
    patch_record,
) -> Dict[Tuple[str, str], int]:
    """Replay logged shared-rotation digs in sequential global order.

    Sorting every result's descriptors by (phase, chunk index, seq)
    puts each logged dig at the position sequential execution would
    have run it, so each shared name's query indices are assigned
    exactly as a one-process build assigns them.  ``patch_cache(result,
    entry, addresses)`` and ``patch_record(result, entry, addresses)``
    apply the replayed answers (``patch_cache`` is None for a deferred
    world, whose worker caches are dropped, so its ``"cache"`` entries
    reduce to counter advances).  Returns per-``(origin, name)`` replay
    counts for the caller's delta reconciliation.
    """
    tagged = sorted(
        (
            (_PHASE_RANK[entry.phase], result.shard_index, entry.seq,
             result, entry)
            for result in results
            for entry in result.entries
        ),
        key=lambda item: item[:3],
    )
    dynamic_zone = {
        name: (origin, zone)
        for origin, zone in ((z.origin, z) for z in world.dns.zones())
        for name in zone.dynamic_names()
    }
    vantage_by_name = {v.name: v for v in world.dns_vantages()}
    next_index: Dict[str, int] = {}
    replay_counts: Dict[Tuple[str, str], int] = {}
    for _, _, _, result, entry in tagged:
        origin, zone = dynamic_zone[entry.name]
        index = next_index.get(entry.name)
        if index is None:
            index = counter_baseline.get((origin, entry.name), 0)
        next_index[entry.name] = index + 1
        replay_counts[(origin, entry.name)] = (
            replay_counts.get((origin, entry.name), 0) + 1
        )
        if entry.kind == "counter":
            continue
        answers = zone.dynamic_answer(
            entry.name, RRType.A, vantage_by_name[entry.vantage_name],
            index,
        )
        addresses = [r.value for r in answers if r.rtype is RRType.A]
        if entry.kind == "record":
            patch_record(result, entry, addresses)
        elif patch_cache is not None:
            patch_cache(result, entry, addresses)
    return replay_counts


class _StepClock:
    """Attributes the parent's wall clock to named dataset steps: each
    :meth:`lap` charges the time since the previous one."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, step: Optional[str] = None) -> float:
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        if step is not None:
            self.add(step, elapsed)
        return elapsed

    def add(self, step: str, seconds: float) -> None:
        self.seconds[step] = self.seconds.get(step, 0.0) + seconds


def build_forked(builder, workers: int):
    """Build the §2.1 dataset in forked rank chunks, bit-identically.

    See the module docstring for the merge/replay/reconcile contract.
    Callers go through :meth:`DatasetBuilder.build`, which gates on
    :meth:`DatasetBuilder.can_shard`.
    """
    world = builder.world
    sites = world.alexa.sites
    deferred = world.pending_tenants
    metrics = builder.obs.metrics
    clock = _StepClock()
    if deferred:
        bounds = [
            (lo, min(lo + CHUNK_SIZE, len(sites)))
            for lo in range(0, len(sites), CHUNK_SIZE)
        ]
        group_size = max(1, workers)
    else:
        bounds = partition_sites(sites, world.dns, workers)
        group_size = len(bounds)
        shared = world.dns.shared_dynamic_names(
            site.domain for site in sites
        )
    counter_baseline = world.dns.dynamic_query_counts()
    vantage_by_name = {v.name: v for v in world.dns_vantages()}
    for vantage in vantage_by_name.values():
        world.resolver_for(vantage)
    clock.lap("shard_setup")

    records: list = []
    cloudfront_records: list = []
    record_offsets: List[int] = []
    cloudfront_offsets: List[int] = []
    discovered: Dict[str, List[str]] = {}
    other_cdn: Dict[str, List[str]] = {}
    ns_addresses: Dict[str, Optional[IPv4Address]] = {}
    total = 0
    # Per chunk: its trimmed result, and the names flagged for its group.
    kept: List[ShardResult] = []
    flagged: List[Set[str]] = []
    released_zones = 0
    for group_lo in range(0, len(bounds), group_size):
        group_count = min(group_size, len(bounds) - group_lo)
        if deferred:
            window = world.ensure_deployed_through(
                bounds[group_lo + group_count - 1][1]
            )
            clock.lap("deploy")
            shared = world.dns.cross_chunk_dynamic_names(
                deployed.plan.domain for deployed in window
            )
        resolver_baselines = {
            name: (resolver.query_count, resolver.cache_keys())
            for name, resolver in world._resolvers.items()
        }
        clock.lap("shard_setup")

        # One chunk per fork via the engine's single fan-out path; the
        # closure (builder, world, bounds, baselines) reaches workers by
        # copy-on-write, never by pickling.  Forking even one chunk
        # keeps the parent dig-pristine.
        with builder.obs.tracer.span(
            "dataset:fanout", category="shard", shards=group_count,
        ):
            results = fork_map(
                lambda index: _build_shard(
                    builder, bounds, shared, resolver_baselines,
                    counter_baseline, group_lo + index,
                    export_caches=not deferred,
                ),
                group_count, group_size, force_fork=True,
            )
        # Forked workers' spans die with them: charge the slowest
        # worker's steps, and the rest of the fan-out's wall time to
        # ``fork`` (process start-up, pickling, and — on fewer cores
        # than workers — the other workers' turns).
        fanout_s = clock.lap()
        slowest = max(
            results, key=lambda result: sum(result.step_timings.values())
        )
        for step, seconds in slowest.step_timings.items():
            clock.add(step, seconds)
        clock.add(
            "fork", max(0.0, fanout_s - sum(slowest.step_timings.values()))
        )

        # -- merge outputs in rank (= chunk) order ---------------------
        # Cache keys are (fqdn, rtype) and fqdns are domain-unique, so
        # the per-chunk exports are disjoint and their union is exactly
        # the sequential cache state at this point in the pipeline.
        for result in results:
            record_offsets.append(len(records))
            cloudfront_offsets.append(len(cloudfront_records))
            records.extend(result.records)
            cloudfront_records.extend(result.cloudfront_records)
            other_cdn.update(result.other_cdn)
            total += result.total
            discovered.update(result.discovered)
            for vantage_name, (query_delta, entries) in (
                result.resolver_payload.items()
            ):
                resolver = world.resolver_for(vantage_by_name[vantage_name])
                resolver.query_count += query_delta
                resolver.adopt_cache_entries(entries)
            if metrics.enabled:
                # Re-applied in chunk order, the counter totals come
                # out identical to a sequential build's.
                metrics.apply_counter_deltas(result.metric_deltas)
                metrics.histogram(
                    "shard_merge_records", volatile=True,
                    campaign="dataset",
                ).observe(len(result.records))
        clock.lap("merge")

        # -- the global half of the NS survey --------------------------
        builder.resolve_ns_hostnames(
            (names for result in results for names in result.ns_name_lists),
            into=ns_addresses,
        )
        clock.lap("ns_survey")

        # Keep only what the replay and reconcile need; the heavy
        # outputs were merged above.
        for result in results:
            result.records = ()
            result.cloudfront_records = ()
            result.discovered = {}
            result.other_cdn = {}
            result.ns_name_lists = []
        kept.extend(results)
        flagged.extend([shared] * group_count)
        if deferred:
            released_zones += world.release_window()
            clock.lap("release")

    # The parent must still be dig-pristine: any parent-side rotation
    # would shift the replay's index assignment away from the
    # sequential one.
    if world.dns.dynamic_query_counts() != counter_baseline:
        raise RuntimeError(
            "forked build: parent advanced dynamic counters mid-build "
            "(NS resolution hit a rotating name?)"
        )
    if deferred:
        world.finalize_tenants()
        clock.lap("deploy")

    # Workers buffered their engine events locally (the parent sink
    # never sees a forked child's emissions); replaying them phase-major
    # in chunk order reproduces the sequential log byte-for-byte,
    # because each chunk's campaign covers a contiguous rank slice in
    # the same relative order.
    sink = builder.obs.events
    if sink.enabled:
        for result in kept:
            sink.emit_many(result.lookup_events)
        for result in kept:
            sink.emit_many(result.cloudfront_events)

    # -- replay shared rotations in sequential global order ------------
    def patch_cache(result, entry, addresses):
        payload = result.resolver_payload[entry.vantage_name][1]
        cached = payload.get((entry.qname, RRType.A))
        if cached is None:
            raise RuntimeError(
                f"shard {result.shard_index} logged a cache patch for "
                f"{entry.qname} but exported no matching entry"
            )
        cached.response.addresses = list(addresses)

    def patch_record(result, entry, addresses):
        if entry.phase == "lookup":
            offsets, target = record_offsets, records
        else:
            offsets, target = cloudfront_offsets, cloudfront_records
        target[offsets[result.shard_index] + entry.position].addresses.update(
            addresses
        )

    replay_counts = replay_shared_rotations(
        world, kept, counter_baseline,
        None if deferred else patch_cache, patch_record,
    )

    # -- reconcile rotation counters -----------------------------------
    total_deltas: Dict[Tuple[str, str], int] = {}
    chunks_touching: Dict[Tuple[str, str], int] = {}
    for result in kept:
        for key, delta in result.counter_deltas.items():
            total_deltas[key] = total_deltas.get(key, 0) + delta
            chunks_touching[key] = chunks_touching.get(key, 0) + 1
            # Flags are per group: a name flagged for one group may
            # legally rotate unlogged in another.
            if (
                key[1] in flagged[result.shard_index]
                and key not in replay_counts
            ):
                raise RuntimeError(
                    f"shared name {key[1]} advanced {delta} queries in "
                    f"chunk {result.shard_index} that no worker "
                    f"descriptor accounts for"
                )
    for key, count in replay_counts.items():
        if total_deltas.get(key, 0) != count:
            raise RuntimeError(
                f"shared-name replay drift for {key[1]}: replayed {count} "
                f"queries, workers reported {total_deltas.get(key, 0)}"
            )
    for key, touched in chunks_touching.items():
        if touched >= 2 and key not in replay_counts:
            raise RuntimeError(
                f"dynamic name {key[1]} rotated in {touched} chunks "
                f"with no replay descriptors — the shared-name analysis "
                f"missed it"
            )
    world.dns.apply_dynamic_query_deltas(total_deltas)

    if metrics.enabled:
        metrics.counter(
            "dataset_shards_merged_total", volatile=True
        ).inc(len(kept))
        if deferred:
            metrics.gauge(
                "dataset_zones_released", volatile=True
            ).set(released_zones)
    clock.lap("merge")

    tracer = builder.obs.tracer
    if tracer.enabled:
        for step, seconds in clock.seconds.items():
            tracer.record(
                step, category="dataset-step", seconds=seconds,
                shards=len(bounds),
            )

    return AlexaSubdomainsDataset(
        records=records,
        discovered=discovered,
        ns_addresses=ns_addresses,
        total_discovered_subdomains=total,
        cloudfront_records=cloudfront_records,
        other_cdn_subdomains=other_cdn,
    )
