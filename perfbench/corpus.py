"""Catalog helpers that import the program, run in their own process.

``build`` writes the corpus the ``repro serve`` daemon indexes, through
the public API only: one ``ExperimentContext`` per corpus seed, every
catalog experiment through ``ExperimentSpec.run``, then one
``RunManifest.write`` per experiment subset -- the first subsets into
the root, the rest into a staging directory the client drops in while
it measures.  A short epoch series (``run_series``) and copies of the
committed ``BENCH_*.json`` files join the root.

``index`` times the catalog's indexes on a finished root, with the
daemon stopped: ``RunRepository.scan``/``rebuild``,
``TimelineStore.scan``/``rebuild`` and the sentinel's ``check_store``.

    PYTHONPATH=src python3 perfbench/corpus.py build --seed 7 \\
        --root DIR --staging DIR --result FILE
    PYTHONPATH=src python3 perfbench/corpus.py index --root DIR \\
        --result FILE
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import common

#: Timed passes over the indexes in ``index``; counts must agree
#: across them.
INDEX_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    build = commands.add_parser("build")
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--root", type=Path, required=True)
    build.add_argument("--staging", type=Path, required=True)
    build.add_argument("--result", type=Path, required=True)
    build.add_argument("--tiny", action="store_true")
    index = commands.add_parser("index")
    index.add_argument("--root", type=Path, required=True)
    index.add_argument("--result", type=Path, required=True)
    return parser.parse_args(argv)


def corpus_seeds(seed: int, count: int) -> list:
    return [seed * 100 + i for i in range(count)]


def build(args) -> dict:
    from repro.analysis.wan import WanConfig
    from repro.artifacts.keys import code_fingerprint
    from repro.epochs import DEFAULT_EPOCH_PLAN, resolve_epoch_plan
    from repro.epochs.series import run_series
    from repro.experiments.context import ExperimentContext
    from repro.experiments.manifest import RunManifest
    from repro.experiments.registry import get_experiment
    from repro.world import WorldConfig

    inputs = common.catalog_inputs(args.tiny)
    wan_config = WanConfig(rounds=inputs["wan_rounds"], workers=0)
    experiments = [get_experiment(e) for e in inputs["experiments"]]
    subsets = common.experiment_subsets(
        inputs["experiments"],
        inputs["subsets_per_seed"] + inputs["staged_per_seed"],
    )
    aliases = {}
    seeds = {}
    base, staged = [], []
    for seed in corpus_seeds(args.seed, inputs["seeds"]):
        context = ExperimentContext(
            WorldConfig(seed=seed, num_domains=inputs["domains"]),
            wan_config,
        )
        results = {}
        for spec in experiments:
            started = time.perf_counter()
            result = spec.run(context)
            results[spec.experiment_id] = (
                spec, result, time.perf_counter() - started
            )
        for position, subset in enumerate(subsets):
            runs = [results[e] for e in subset]
            manifest = RunManifest.from_run(context, runs)
            landing = position < inputs["subsets_per_seed"]
            manifest.write(
                args.root if landing else args.staging,
                results=[result for _, result, _ in runs],
            )
            aliases[manifest.run_id] = f"s{seed}:{'+'.join(subset)}"
            seeds[manifest.run_id] = seed
            (base if landing else staged).append(manifest.run_id)
    series_seed = corpus_seeds(args.seed, inputs["seeds"] + 1)[-1]
    series = run_series(
        [get_experiment(e) for e in inputs["series_experiments"]],
        WorldConfig(seed=series_seed, num_domains=inputs["domains"]),
        wan_config,
        resolve_epoch_plan(DEFAULT_EPOCH_PLAN),
        inputs["series_epochs"],
        out_dir=args.root,
    )
    aliases[series.series_id] = f"series-s{series_seed}"
    for run in series.epochs:
        aliases[run.run_id] = f"s{series_seed}:epoch{run.epoch.index}"
        seeds[run.run_id] = series_seed
        base.append(run.run_id)
    bench_dir = args.root / "bench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    bench_files = sorted(Path.cwd().glob("BENCH_*.json"))
    for path in bench_files:
        shutil.copy(path, bench_dir / path.name)
    return {
        "aliases": aliases, "seeds": seeds, "base": base,
        "staged": staged, "series": series.series_id,
        "bench_files": [p.name for p in bench_files],
        "code_fingerprint": code_fingerprint(),
        "inputs": {
            "seed": args.seed,
            "corpus_seeds": corpus_seeds(args.seed, inputs["seeds"] + 1),
            **inputs,
        },
    }


def index(args) -> dict:
    from repro.obs.sentinel import check_store
    from repro.obs.timeline import TIMELINE_FILENAME, TimelineStore
    from repro.service.repository import INDEX_FILENAME, RunRepository

    timings = {name: [] for name in (
        "repository.scan_ms", "repository.rebuild_ms", "timeline.scan_ms",
        "timeline.rebuild_ms", "sentinel.check_ms",
    )}
    counts = []

    def timed(name, call):
        started = time.perf_counter()
        value = call()
        timings[name].append((time.perf_counter() - started) * 1000)
        return value

    with RunRepository(args.root) as repository, \
            TimelineStore(args.root) as timeline:
        for _ in range(INDEX_PASSES):
            timed("repository.scan_ms", repository.scan)
            timed("timeline.scan_ms", timeline.scan)
            timed("repository.rebuild_ms", repository.rebuild)
            timed("timeline.rebuild_ms", timeline.rebuild)
            timed("sentinel.check_ms", lambda: check_store(timeline))
            index_bytes = sum(
                (args.root / name).stat().st_size
                for name in (INDEX_FILENAME, TIMELINE_FILENAME)
            )
            counts.append({
                "catalog.runs": repository.counts()["runs"],
                "timeline.entries": timeline.counts()["entries"],
                "catalog.index_kib": index_bytes / 1024,
            })
    return {
        "layers": {
            name: common.median(values) for name, values in timings.items()
        },
        "counts": counts,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = build(args) if args.command == "build" else index(args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
