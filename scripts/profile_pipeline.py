"""Time the measurement pipeline at bench scale; write BENCH_pipeline.json.

Every pass builds one :class:`~repro.experiments.ExperimentContext`
(the object ``repro`` runs) from one ``WorldConfig``, capture
included, and measures its five pipeline stages — world construction,
the Alexa subdomains dataset, the campus packet capture, the §5 WAN
campaign, and the §5.2 traceroute sweep — end to end.  It records
per-stage wall times (with per-step timings inside the dataset stage
and per-engine-campaign timings from :mod:`repro.campaign`), per-stage
RSS, and digests of the stage outputs — all four probe kinds the
engine schedules — so two runs (or two revisions, or two worker
counts) can be compared for bit-identical results as well as speed.
Usage:

    PYTHONPATH=src python scripts/profile_pipeline.py \
        [--scale seed|mid|paper] \
        [--seed S] [--domains N] [--wan-rounds R] [--workers W] \
        [--no-streaming] [--max-rss-mib M] \
        [--verify-workers "0,2,4"] [--repeat K] [--compare-scalar] \
        [--no-cache-check] [--epochs N] [--epoch-plan NAME] \
        [--baseline FILE [--require-baseline-identical]] \
        [--trace-out F] [--metrics-out F] [--events-out F] \
        [--out BENCH_pipeline.json]

``--scale`` picks a domain-count tier — ``seed`` (2.5k, the committed
bench), ``mid`` (100k), ``paper`` (1M, the paper's top-1M crawl) — and
a matching default ``--out`` file, so each tier keeps its own
trajectory; explicit ``--domains``/``--out`` override the tier.  Each
tier also scales the campus capture (client population, flow and byte
budgets; the seed tier keeps the committed defaults so its digests
hold).  ``--workers`` drives both parallel campaigns (dataset shards
and WAN rounds).  By default the context builds a deferred world
(``ExperimentContext(defer_tenants=True)``), whose forked chunk build
releases tenant state as it goes (see docs/PERFORMANCE.md);
``--no-streaming`` builds the batch world ``repro`` builds, with
identical digests.  ``--max-rss-mib`` fails the run when the process's
true peak RSS exceeds the budget (the CI memory gate).
``--verify-workers`` re-runs the whole pipeline per worker count and
fails unless every digest agrees.  ``--compare-scalar`` also runs the
pipeline with the columnar data plane disabled (the scalar reference
paths), fails unless every digest is identical, and records per-stage
scalar-vs-columnar speedups.  Unless ``--no-cache-check`` is given,
the script also runs the pipeline twice through a throwaway artifact
cache, in the same world mode — a cold run that stores the WAN
matrices and a warm run that must be served them without a miss — and
fails unless both match the uncached digests.

With ``--repeat K`` each stage's reported time is the best of K full
pipeline runs (the digests must agree across runs, and do — caching is
output-transparent; see docs/PERFORMANCE.md).

``--epochs N`` additionally runs an N-epoch incremental series (the
longitudinal plane; ``--epoch-plan`` picks the evolution recipe)
through a fresh artifact cache and records per-epoch wall times and
cache hit/miss deltas in the bench JSON's ``epoch_series`` section —
the first-epoch vs steady-state epoch cost.  Two gates fail the run:
epoch 0 must reproduce the single-shot digests bit-for-bit, and every
later epoch must be served at least partly from the cache (the epoch
fingerprints must reuse unchanged artifact kinds).

Every pass records its own ``rss_kib`` block, so the bench file shows
which pass set the invocation's peak.  All timings come from the
:mod:`repro.obs` tracer (the context's own ``stage`` spans, plus the
WAN and traceroute spans this script opens), not ad-hoc stopwatch
dicts.  Before overwriting ``--out``, the script compares the fresh
stage times against the committed file and warns on any stage that
regressed by more than 20%; the committed file's ``trajectory`` (one
entry per code fingerprint) is carried forward and extended, so the
bench records the repo's performance history alongside its current
numbers.  ``--trace-out``/``--metrics-out``/``--events-out`` export the
first run's instrumentation, as in ``repro-experiments``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager

from repro.analysis.wan import WanConfig
from repro.artifacts import ArtifactStore
from repro.artifacts.keys import code_fingerprint
from repro.capture.generator import CaptureConfig
from repro.experiments.context import ExperimentContext
from repro.flags import set_columnar_enabled
from repro.obs import Observability
from repro.obs.trace import nested_stage_seconds
from repro.sim import set_rng_observer
from repro.world import WorldConfig

#: A stage must slow down by more than this (vs the committed bench)
#: before the script warns about it.
REGRESSION_THRESHOLD = 0.20

#: Domain-count tiers: the committed seed bench, a mid tier for CI
#: speedup gates, and the paper's full top-1M crawl.  Each tier keeps
#: its own bench file (and therefore its own trajectory history), and
#: scales the campus capture with the crawl — the seed tier must keep
#: the CaptureConfig defaults (1500 clients, 28k flows) so the
#: committed seed digests stay bit-identical.
SCALES = {
    "seed": {
        "domains": 2_500, "out": "BENCH_pipeline.json", "capture": {},
    },
    "mid": {
        "domains": 100_000, "out": "BENCH_pipeline_mid.json",
        "capture": {
            "num_clients": 150_000,
            "total_flows": 120_000,
            "total_bytes": 6_000_000_000,
        },
    },
    "paper": {
        "domains": 1_000_000, "out": "BENCH_pipeline_paper.json",
        "capture": {
            # The paper's capture: 1.4 TB of border traffic from a
            # campus population of millions of clients.
            "num_clients": 2_000_000,
            "total_flows": 250_000,
            "total_bytes": 1_400_000_000_000,
        },
    },
}


def _rss_sample() -> tuple:
    """``(VmRSS, VmHWM)`` in KiB from ``/proc/self/status``.

    ``VmRSS`` is the *current* resident set, so per-stage before/after
    deltas attribute memory to the stage that allocated (or released)
    it; ``VmHWM`` is the process-lifetime high-water mark — the number
    a memory budget gates on.  ``ru_maxrss`` alone cannot do the former
    job: it is monotone, so sampling it after each stage makes every
    stage after the peak echo the same number.  Where ``/proc`` is
    unavailable (macOS), both fields fall back to ``ru_maxrss`` and
    the deltas degrade to high-water increments.
    """
    try:
        with open("/proc/self/status") as fh:
            rss = hwm = None
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
        if rss is not None and hwm is not None:
            return rss, hwm
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak, peak


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _pipeline_digests(dataset, wan, trace, isp) -> dict:
    """The six bench digests of one pass's products."""
    records = sorted(
        (
            record.fqdn,
            record.domain,
            record.rank,
            tuple(sorted(str(a) for a in record.addresses)),
            tuple(sorted(record.cnames)),
            tuple(sorted(record.ns_names)),
            record.lookups,
        )
        for record in dataset.records
    )
    return {
        "records": _digest(records),
        "ns_addresses": _digest(
            sorted((k, str(v)) for k, v in dataset.ns_addresses.items())
        ),
        "wan_latency": _digest(
            sorted((k, tuple(v)) for k, v in wan._latency.items())
        ),
        "wan_throughput": _digest(
            sorted((k, tuple(v)) for k, v in wan._throughput.items())
        ),
        # len()/total_bytes() are columnar reductions on a ColumnarTrace
        # and plain loops on a scalar Trace; the values (and so the
        # digest) are identical, without materializing row objects.
        "trace": _digest((len(trace), trace.total_bytes())),
        "isp_diversity": _digest(
            sorted(
                (
                    region,
                    tuple(sorted(info["per_zone"].items())),
                    info["region_total"],
                    info["top_isp_route_share"],
                )
                for region, info in isp.items()
            )
        ),
    }


def _injected_stage_delay(name: str) -> float:
    """Fault injection for the regression-sentinel smoke test.

    ``REPRO_PROFILE_STAGE_DELAY="dataset:0.8,wan:0.2"`` sleeps the
    given seconds inside each named stage's tracer span — the recorded
    wall clock slows, every output byte (and digest) stays identical.
    """
    spec = os.environ.get("REPRO_PROFILE_STAGE_DELAY", "")
    for part in spec.split(","):
        stage, _, seconds = part.strip().partition(":")
        if stage == name:
            try:
                return max(0.0, float(seconds))
            except ValueError:
                return 0.0
    return 0.0


@contextmanager
def _sampled(name: str, into: dict):
    """RSS sampling (and the injected delay) for one stage, run inside
    that stage's tracer span.

    Records ``{"end_kib", "delta_kib", "hwm_raise_kib"}`` per stage —
    the resident set after the stage, how much the stage grew (or,
    negative, shrank) it, and how far it raised the process high-water
    mark (``VmHWM`` after minus before).  The raise is non-zero only
    for a stage that set a new peak, so the last stage with a raise is
    the one whose transient set the run's peak, even when that
    transient is gone by the stage's end.  The high-water mark itself
    is reported once per pass: ``VmHWM`` is monotone, so per-stage
    copies would just echo the peak.
    """
    before, hwm_before = _rss_sample()
    yield
    delay = _injected_stage_delay(name)
    if delay:
        time.sleep(delay)
    end, hwm = _rss_sample()
    into[name] = {
        "end_kib": end, "delta_kib": end - before,
        "hwm_raise_kib": hwm - hwm_before,
    }


class _SampledContext(ExperimentContext):
    """An :class:`ExperimentContext` whose stage builds (world,
    dataset, capture) also sample RSS, inside the context's own stage
    spans and collector pause."""

    def __init__(self, rss: dict, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rss = rss

    @contextmanager
    def _stage(self, name):
        with super()._stage(name), _sampled(name, self.rss):
            yield

    @contextmanager
    def campaign_stage(self, name):
        """A stage the context does not open itself (``wan``,
        ``traceroute``): its span and its RSS sample."""
        with self.obs.tracer.span(name, category="stage"):
            with _sampled(name, self.rss):
                yield


def measure(
    config: WorldConfig, wan_rounds: int, workers: int, *,
    deferred: bool = False, columnar: bool = True,
    store: ArtifactStore | None = None, epoch=None,
    events: bool = False,
) -> dict:
    """One pass: a fresh context's stages, timed, sampled and digested.

    ``deferred`` builds a deferred world, ``columnar=False`` forces the
    scalar reference paths, ``store`` serves the pass through an
    artifact cache and ``epoch`` through a world timeline; outputs,
    and the probe event log, must be bit-identical any way around.
    The products are read in the order dataset → capture → WAN →
    traceroute, so every pass builds its world, dataset and capture
    first, and a warm pass serves the WAN matrices from the store and
    replays the campaign's side effects on that world.  Returns the
    stage timings (each stage's self time: its span less the stage
    spans nested in it, :func:`~repro.obs.trace.nested_stage_seconds`),
    the dataset steps and campaigns, the six digests, the pass's
    ``rss_kib`` and wall clock, and its observability plane; the
    context itself is dropped.
    """
    obs = Observability.collecting(events=events)
    previous_observer = obs.install_rng_counter()
    previous_columnar = set_columnar_enabled(columnar)
    rss = {}
    try:
        context = _SampledContext(
            rss, config, WanConfig(rounds=wan_rounds, workers=workers),
            workers=workers, artifact_store=store, obs=obs, epoch=epoch,
            defer_tenants=deferred,
        )
        start = time.perf_counter()
        dataset = context.dataset
        trace = context.trace
        wan = context.wan
        with context.campaign_stage("wan"):
            wan._measure()
        with context.campaign_stage("traceroute"):
            isp = wan.isp_diversity()
        elapsed = time.perf_counter() - start
        digests = _pipeline_digests(dataset, wan, trace, isp)
    finally:
        set_columnar_enabled(previous_columnar)
        set_rng_observer(previous_observer)

    tracer = obs.tracer
    nested = nested_stage_seconds(tracer, "stage")
    timings = {
        f"{name}_s": seconds - nested.get(name, 0.0)
        for name, seconds in tracer.seconds_by_name("stage").items()
    }
    timings["total_s"] = sum(timings.values())
    _, high_water = _rss_sample()
    return {
        "timings": timings,
        "dataset_steps": tracer.seconds_by_name("dataset-step"),
        "campaigns": tracer.seconds_by_name("campaign"),
        "digests": digests,
        "rss_kib": {"stages": rss, "high_water_kib": high_water},
        "elapsed_s": round(elapsed, 3),
        "obs": obs,
    }


def cache_check(
    args, config: WorldConfig, expected_digests: dict, *, deferred: bool
) -> dict:
    """Cold-vs-warm artifact-cache passes in the timed passes' world
    mode; both must match the uncached digests and the warm pass must
    be served without a single miss.  Only the WAN matrices pass
    through the store: the warm pass rebuilds the world, dataset and
    capture, and must still match once the campaign is served."""
    cache_dir = tempfile.mkdtemp(prefix="repro-artifacts-bench-")
    try:
        result = {}
        for label in ("cold", "warm"):
            store = ArtifactStore(cache_dir)
            run = measure(
                config, args.wan_rounds, args.workers, deferred=deferred,
                store=store,
            )
            result[f"{label}_s"] = run["elapsed_s"]
            result[f"{label}_stats"] = store.stats.as_dict()
            result[f"{label}_rss_kib"] = run["rss_kib"]
            if run["digests"] != expected_digests:
                raise SystemExit(
                    f"{label} artifact-cache run diverged from the "
                    f"uncached pipeline: {run['digests']} vs "
                    f"{expected_digests}"
                )
        if result["warm_stats"]["misses"]:
            raise SystemExit(
                "warm artifact-cache run was not fully served from the "
                f"cache: {result['warm_stats']}"
            )
        result["outputs_identical"] = True
        return result
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def epoch_series_check(
    args, config: WorldConfig, expected_digests: dict
) -> dict:
    """``--epochs``: an N-epoch incremental series through one fresh
    artifact cache, gated on (a) epoch 0 reproducing the single-shot
    digests and (b) every later epoch being served at least partly
    from the cache.

    Epoch 0 carries no fingerprint components, so its WAN key — and
    its digests — are exactly the single-shot pipeline's.  Every epoch
    builds its own world, dataset and capture; a later epoch is served
    the WAN matrices from the store unless its plan's steps touched
    them (no bundled plan's do), and the per-epoch cache deltas record
    that.
    """
    from repro.epochs import Epoch, resolve_epoch_plan

    plan = resolve_epoch_plan(args.epoch_plan)
    cache_dir = tempfile.mkdtemp(prefix="repro-epochs-bench-")
    try:
        store = ArtifactStore(cache_dir)
        per_epoch = []
        for index in range(args.epochs):
            before = store.stats.as_dict()
            run = measure(
                config, args.wan_rounds, args.workers, store=store,
                epoch=Epoch(plan, index, config),
            )
            after = store.stats.as_dict()
            if index == 0 and run["digests"] != expected_digests:
                raise SystemExit(
                    "epoch 0 diverged from the single-shot pipeline: "
                    f"{run['digests']} vs {expected_digests}"
                )
            per_epoch.append({
                "epoch": index,
                "elapsed_s": run["elapsed_s"],
                "cache": {
                    name: after[name] - before[name] for name in after
                },
                "rss_kib": run["rss_kib"],
            })
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    stale = [
        entry["epoch"] for entry in per_epoch[1:]
        if entry["cache"]["hits"] <= 0
    ]
    if stale:
        raise SystemExit(
            f"epochs {stale} re-ran without a single artifact-cache "
            "hit — the epoch fingerprints are not reusing unchanged "
            "artifact kinds"
        )
    series = {
        "plan": plan.name,
        "epochs": args.epochs,
        "per_epoch": per_epoch,
        "outputs_identical": True,
        "first_epoch_s": per_epoch[0]["elapsed_s"],
    }
    if len(per_epoch) > 1:
        series["steady_state_epoch_s"] = round(
            sum(e["elapsed_s"] for e in per_epoch[1:])
            / (len(per_epoch) - 1),
            3,
        )
    return series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="seed",
        help="domain-count tier: seed=2.5k (committed bench), mid=100k, "
             "paper=1M; picks a matching default --out",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--domains", type=int, default=None,
        help="override the tier's domain count",
    )
    parser.add_argument("--wan-rounds", type=int, default=24)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="forked workers for the dataset shards and the WAN rounds "
             "(0 = sequential; results identical)",
    )
    parser.add_argument(
        "--no-streaming", action="store_true",
        help="build a batch world (every tenant deployed up front, "
             "all-at-once dataset build) instead of a deferred one",
    )
    parser.add_argument(
        "--max-rss-mib", type=int, default=None,
        help="fail if the process's peak RSS (VmHWM, covering every "
             "run in this invocation) exceeds this budget",
    )
    parser.add_argument(
        "--verify-workers", default=None, metavar="W1,W2,...",
        help="re-run the pipeline at each worker count and fail unless "
             "all digests agree",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="full pipeline runs; per-stage times are the best of K",
    )
    parser.add_argument(
        "--no-cache-check", action="store_true",
        help="skip the cold-vs-warm artifact-cache runs",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="also run an N-epoch incremental series through a fresh "
             "artifact cache and record per-epoch timings and cache "
             "deltas; gates on epoch 0 reproducing the single-shot "
             "digests and later epochs hitting the cache",
    )
    parser.add_argument(
        "--epoch-plan", default="steady-growth", metavar="NAME",
        help="named epoch plan for --epochs (see repro.epochs.plan)",
    )
    parser.add_argument(
        "--compare-scalar", action="store_true",
        help="also run the scalar pipeline, fail unless its digests "
             "match, and record per-stage speedups",
    )
    parser.add_argument(
        "--out", default=None,
        help="bench JSON file (default: the tier's file, e.g. "
             "BENCH_pipeline.json for --scale seed)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="earlier bench file whose digests this run is compared "
             "with (recorded as baseline_outputs_identical)",
    )
    parser.add_argument(
        "--require-baseline-identical", action="store_true",
        help="fail unless the baseline file's digests match this run's "
             "(the sequential-vs-sharded CI gate)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the first run's span tree as Chrome trace_event "
             "JSON",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the first run's metrics as Prometheus text "
             "exposition",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="write the first run's probe-level NDJSON event log",
    )
    args = parser.parse_args()
    if args.domains is None:
        args.domains = SCALES[args.scale]["domains"]
    if args.out is None:
        args.out = SCALES[args.scale]["out"]
    if args.epochs is not None and args.epochs < 1:
        parser.error("--epochs needs at least 1 epoch")

    deferred = not args.no_streaming
    collect_events = bool(args.events_out)
    capture = CaptureConfig(**SCALES[args.scale]["capture"])
    config = WorldConfig(
        seed=args.seed, num_domains=args.domains, capture=capture
    )
    runs = [
        measure(
            config, args.wan_rounds, args.workers, deferred=deferred,
            events=collect_events,
        )
        for _ in range(args.repeat)
    ]
    digests = runs[0]["digests"]
    for run in runs[1:]:
        if run["digests"] != digests:
            raise SystemExit(
                "digest mismatch across repeats — outputs are not "
                f"deterministic: {runs[0]['digests']} vs {run['digests']}"
            )
    best = {
        key: round(min(run["timings"][key] for run in runs), 3)
        for key in runs[0]["timings"]
    }
    dataset_steps = {
        key: round(min(run["dataset_steps"][key] for run in runs), 3)
        for key in runs[0]["dataset_steps"]
    }
    campaigns = {
        key: round(min(run["campaigns"][key] for run in runs), 3)
        for key in runs[0]["campaigns"]
    }

    committed = None
    if os.path.exists(args.out):
        try:
            with open(args.out) as fh:
                committed = json.load(fh)
        except (OSError, ValueError):
            committed = None
    if committed is not None:
        for stage, seconds in best.items():
            base = committed.get("timings_s", {}).get(stage)
            if (
                base
                and seconds > base * (1 + REGRESSION_THRESHOLD)
            ):
                print(
                    f"warning: stage {stage} regressed "
                    f"{100 * (seconds / base - 1):.0f}% vs committed "
                    f"{args.out} ({seconds:.3f}s vs {base:.3f}s)",
                    file=sys.stderr,
                )

    # The bench's performance history: one entry per code fingerprint,
    # carried forward from the committed file so re-profiling the same
    # revision refreshes its entry instead of appending a duplicate.
    trajectory = (
        list(committed.get("trajectory", []))
        if committed is not None else []
    )
    entry = {
        "fingerprint": code_fingerprint()[:12],
        "scale": args.scale,
        "timings_s": best,
        "rss_high_water_kib": runs[0]["rss_kib"]["high_water_kib"],
        # Wall-clock stamp for the telemetry timeline: trajectory
        # entries order by it (older, pre-stamp entries fall back to
        # the bench file's mtime).
        "recorded_unix": round(time.time(), 3),
    }
    if (
        trajectory
        and trajectory[-1].get("fingerprint") == entry["fingerprint"]
    ):
        trajectory[-1] = entry
    else:
        trajectory.append(entry)

    report = {
        "bench": {
            "scale": args.scale,
            "seed": args.seed,
            "domains": args.domains,
            "wan_rounds": args.wan_rounds,
            "workers": args.workers,
            "repeat": args.repeat,
            "columnar": True,
            "streaming": deferred,
            "capture_clients": capture.num_clients,
            "capture_flows": capture.total_flows,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "timings_s": best,
        "dataset_steps_s": dataset_steps,
        "campaigns_s": campaigns,
        "rss_kib": runs[0]["rss_kib"],
        "digests": digests,
        "trajectory": trajectory,
    }
    if len(runs) > 1:
        report["repeat_rss_kib"] = [run["rss_kib"] for run in runs[1:]]
    first = runs[0]["obs"]

    if args.compare_scalar:
        scalar = measure(
            config, args.wan_rounds, args.workers, deferred=deferred,
            columnar=False, events=collect_events,
        )
        if scalar["digests"] != digests:
            raise SystemExit(
                "scalar pipeline digests differ from columnar: "
                f"{scalar['digests']} vs {digests}"
            )
        report["scalar_comparison"] = {
            "timings_s": {
                key: round(value, 3)
                for key, value in scalar["timings"].items()
            },
            # Its stages' hwm_raise_kib show whether this pass, not
            # the gated one, set the invocation's peak.
            "rss_kib": scalar["rss_kib"],
            "outputs_identical": True,
            "speedup": {
                key: round(scalar["timings"][key] / best[key], 2)
                for key in best
                if best[key] > 0
            },
        }

    if args.verify_workers:
        counts = [int(part) for part in args.verify_workers.split(",")]
        workers_rss = {}
        for count in counts:
            if count == args.workers:
                continue
            other = measure(
                config, args.wan_rounds, count, deferred=deferred,
                events=collect_events,
            )
            if other["digests"] != digests:
                raise SystemExit(
                    f"digest mismatch at workers={count}: "
                    f"{other['digests']} vs {digests}"
                )
            # The event log must be byte-identical too — sharded runs
            # log in the same deterministic grid order.
            if collect_events and (
                other["obs"].events.to_ndjson()
                != first.events.to_ndjson()
            ):
                raise SystemExit(f"event-log mismatch at workers={count}")
            workers_rss[str(count)] = other["rss_kib"]
        report["workers_verified"] = counts
        report["workers_rss_kib"] = workers_rss

    if not args.no_cache_check:
        report["artifact_cache"] = cache_check(
            args, config, digests, deferred=deferred
        )

    if args.epochs is not None:
        report["epoch_series"] = epoch_series_check(args, config, digests)

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        identical = baseline.get("digests") == digests
        report["baseline_outputs_identical"] = identical
        if args.require_baseline_identical and not identical:
            raise SystemExit(
                "baseline digests differ from this run's: "
                f"{baseline.get('digests')} vs {digests}"
            )
    out_parent = os.path.dirname(args.out)
    if out_parent:
        os.makedirs(out_parent, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out}")

    if args.trace_out:
        first.tracer.write_chrome(args.trace_out)
        print(f"wrote trace {args.trace_out}")
    if args.metrics_out:
        metrics_parent = os.path.dirname(args.metrics_out)
        if metrics_parent:
            os.makedirs(metrics_parent, exist_ok=True)
        with open(args.metrics_out, "w") as fh:
            fh.write(first.metrics.render_prometheus())
        print(f"wrote metrics {args.metrics_out}")
    if args.events_out:
        first.events.write(args.events_out)
        print(f"wrote events {args.events_out}")

    if args.max_rss_mib is not None:
        # Gate on the process-lifetime high-water mark sampled *now*,
        # so every run this invocation made (repeats, scalar
        # comparison, worker verification) counts against the budget.
        # The bench JSON is already on disk for CI artifact upload.
        _, high_water_kib = _rss_sample()
        budget_kib = args.max_rss_mib * 1024
        if high_water_kib > budget_kib:
            raise SystemExit(
                f"peak RSS {high_water_kib / 1024:.0f} MiB exceeds the "
                f"--max-rss-mib budget of {args.max_rss_mib} MiB"
            )
        print(
            f"peak RSS {high_water_kib / 1024:.0f} MiB within the "
            f"{args.max_rss_mib} MiB budget"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
