"""One pipeline repetition, in a fresh interpreter.

``run.py`` starts this file once per repetition, so the program's
module-level memo caches start cold, as they do for a user's ``repro``.
It drives the product the way ``repro --out-dir`` does: one
``ExperimentContext`` over a fresh, empty artifact store, every
experiment through ``ExperimentSpec.run`` in registry order, then
``RunManifest.from_run`` and ``RunManifest.write``.  The result (times,
``VmHWM``, the output digest and, with ``--trace``, per-layer spans and
counts) goes to the JSON file named by ``--result``.

With ``--trace`` the stages are forced in the order world -> dataset
-> capture before the experiments, so each gets its own span; the
WAN and traceroute campaigns still run lazily, in registry order,
because measuring them ahead of the zone experiments changes the
measured values.

    PYTHONPATH=src python3 perfbench/pipeline.py --seed 7 --work DIR \\
        --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import common


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def rss_mib() -> float:
    return common.proc_status_kib("VmRSS") / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs = common.pipeline_inputs(args.tiny)

    from repro.analysis.wan import WanConfig
    from repro.artifacts import ArtifactStore
    from repro.artifacts.keys import code_fingerprint
    from repro.capture.generator import CaptureConfig
    from repro.experiments.context import ExperimentContext
    from repro.experiments.manifest import RunManifest
    from repro.experiments.registry import all_experiments
    from repro.obs import Observability
    from repro.sim import set_rng_observer
    from repro.world import WorldConfig

    imported_at = time.monotonic()

    experiments = all_experiments()
    world_config = WorldConfig(
        seed=args.seed, num_domains=inputs["domains"],
        capture=CaptureConfig(**inputs["capture"]),
    )
    wan_config = WanConfig(rounds=inputs["wan_rounds"], workers=0)
    obs = Observability.collecting()
    store = ArtifactStore(args.work / "artifacts", obs=obs)
    spans = common.Spans(pid=args.rep, enabled=args.trace)
    enum = {"found": 0, "queries": 0}
    if args.trace:
        instrument(store, spans, enum)
    ids = [spec.experiment_id for spec in experiments]

    layer_rss = {}
    campaign_s = {}
    started = time.perf_counter()
    context = ExperimentContext(
        world_config, wan_config, workers=0, artifact_store=store,
        obs=obs,
    )
    if args.trace:
        stages = [("world", lambda: context.world),
                  ("dataset", lambda: context.dataset),
                  ("capture", lambda: context.trace)]
        for name, build in stages:
            before = rss_mib()
            with spans.span(name):
                build()
            layer_rss[name] = rss_mib() - before
    runs = []
    previous_observer = obs.install_rng_counter()
    try:
        for spec in experiments:
            if args.trace:
                before = campaign_seconds(context)
            with spans.span("experiment:" + spec.experiment_id):
                tick = time.perf_counter()
                result = spec.run(context)
                elapsed = time.perf_counter() - tick
            if args.trace:
                campaign_s[spec.experiment_id] = (
                    campaign_seconds(context) - before
                )
            runs.append((spec, result, elapsed))
    finally:
        set_rng_observer(previous_observer)
    with spans.span("manifest.write"):
        manifest = RunManifest.from_run(context, runs)
        paths = manifest.write(
            args.work / "runs",
            results=[result for _, result, _ in runs],
            context=context,
        )
    run_s = time.perf_counter() - started

    with open(paths["manifest"]) as fh:
        written = json.load(fh)
    record = {
        "imported_at": imported_at,
        "run_s": run_s,
        "peak_rss_kib": common.proc_status_kib("VmHWM"),
        "digest": common.manifest_digest(written),
        "stamp": {
            "code_fingerprint": code_fingerprint(),
            "inputs": {
                "seed": args.seed, "domains": inputs["domains"],
                "wan_rounds": inputs["wan_rounds"],
                "capture": asdict(world_config.capture),
                "experiments": ids,
                "workers": 0,
            },
        },
    }
    if args.trace:
        record["layers"], record["counts"] = layers(
            context, store, written, spans, enum, layer_rss, campaign_s,
            ids, run_s,
        )
        record["events"] = spans.chrome_events(started)
    args.result.write_text(json.dumps(record))
    return 0


def instrument(store, spans: common.Spans, enum: dict) -> None:
    """Wrap the public calls the traced run attributes: artifact
    stores (a span each) and subdomain enumeration (query counts)."""
    from repro.dns.enumeration import SubdomainEnumerator

    original_store = store.store

    def timed_store(kind, key, artifact):
        with spans.span("artifacts.store", kind=kind):
            return original_store(kind, key, artifact)

    store.store = timed_store
    original_enumerate = SubdomainEnumerator.enumerate

    def counted_enumerate(self, domain):
        result = original_enumerate(self, domain)
        enum["found"] += len(result.subdomains)
        # A zone transfer is one query that returns every name.
        enum["queries"] += result.queries_issued + int(result.via_axfr)
        return result

    SubdomainEnumerator.enumerate = counted_enumerate


def campaign_seconds(context) -> float:
    return sum(context.telemetry()["campaigns_s"].values())


def layers(context, store, manifest, spans, enum, layer_rss, campaign_s,
           ids, run_s):
    """Per-layer numbers and exact counts of one traced repetition."""
    telemetry = context.telemetry()
    steps = telemetry["dataset_steps_s"]
    campaigns = telemetry["campaigns_s"]
    names = {event["id"]: event["name"] for event in spans.events}
    store_in = {}
    for event in spans.events:
        if event["name"] == "artifacts.store":
            parent = names.get(event["parent"])
            store_in[parent] = store_in.get(parent, 0.0) + (
                event["end"] - event["start"]
            )
    probes = {
        kind: 0 for kind in ("dns-lookup", "tcp-ping", "http-get",
                             "traceroute")
    }
    counters = manifest["metrics"].get("counters", {})
    for key, value in counters.items():
        if key.startswith('probes_total{kind="'):
            probes[key.split('"')[1]] = value
    retries = counters.get("probe_retries_total", 0)
    stats = store.stats
    lookups = stats.hits + stats.misses
    values = {
        "world.build_s": spans.seconds("world"),
        "world.rss_mib": layer_rss["world"],
        "dataset.build_s": (
            spans.seconds("dataset") - store_in.get("dataset", 0.0)
        ),
        "dataset.enumerate_s": steps.get("enumerate", 0.0),
        "dataset.filter_s": steps.get("filter", 0.0),
        "dataset.lookups_s": steps.get("distributed_lookups", 0.0),
        "dataset.ns_survey_s": steps.get("ns_survey", 0.0),
        "dataset.rss_mib": layer_rss["dataset"],
        "capture.generate_s": (
            spans.seconds("capture") - store_in.get("capture", 0.0)
        ),
        "capture.rss_mib": layer_rss["capture"],
        "traffic.analyze_s": sum(
            spans.seconds("experiment:" + e) for e in ids
            if e in common.TRAFFIC_EXPERIMENTS
        ),
        "campaign.wan_s": campaigns.get("wan-measure", 0.0),
        "campaign.traceroute_s": sum(
            seconds for name, seconds in campaigns.items()
            if name.startswith("traceroute:")
        ),
        "manifest.write_s": spans.seconds("manifest.write"),
        "artifacts.store_s": spans.seconds("artifacts.store"),
        "artifacts.hit_ratio": stats.hits / lookups if lookups else 0.0,
        "unattributed_s": run_s - spans.top_level_seconds(),
    }
    for experiment_id in ids:
        name = "experiment:" + experiment_id
        values[f"experiment.{experiment_id}_s"] = (
            spans.seconds(name) - campaign_s[experiment_id]
            - store_in.get(name, 0.0)
        )
    total_probes = sum(probes.values())
    counts = {
        "world.domains": len(context.world.alexa),
        "dataset.subdomains": len(context.dataset),
        "dns.enum_yield": (
            enum["found"] / enum["queries"] if enum["queries"] else 0.0
        ),
        "capture.flows": len(context.trace),
        "artifacts.stores": stats.stores,
        "campaign.retry_ratio": (
            retries / total_probes if total_probes else 0.0
        ),
        **{f"campaign.probes.{kind}": n for kind, n in probes.items()},
    }
    return values, counts


if __name__ == "__main__":
    sys.exit(main())
