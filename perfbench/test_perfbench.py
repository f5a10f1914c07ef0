"""Self-test of the benchmark at tiny inputs.

    python3 -m pytest perfbench -q

Run from the root of the checkout.  Checks that every workload prints
exactly the metrics of ``BENCHMARK.json`` with their units, that a
tampered output counts as a failed operation, that the catalog daemon
is reaped even when a request fails, and that a directory without the
program fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

import catalog
import common
import run

ROOT = common.BENCH_DIR.parent
BENCH = common.load_json(ROOT / "BENCHMARK.json")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, cwd=ROOT, tiny=True):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def tiny_args(workload, trace=0):
    return argparse.Namespace(workload=workload, seed=3, seconds=1.0,
                              trace=trace, tiny=True)


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = common.WORK_DIR / f"test-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload != "catalog":
        layers = result["metrics"]
        assert layers["unattributed_s"]["value"] >= 0


def test_tampered_pipeline_output_counts_as_failed(monkeypatch, work):
    clean = run.run_pipeline(tiny_args("paper-run"), ROOT, work / "a")
    assert clean["failed"] == 0
    # A copy of the program whose table03 renders another title.
    mutant = work / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tables = mutant / "src" / "repro" / "experiments" / "tables.py"
    source = tables.read_text()
    assert '"Cloud-use breakdown by provider"' in source
    tables.write_text(source.replace(
        '"Cloud-use breakdown by provider"', '"Tampered title"'
    ))
    monkeypatch.setattr(common, "expected_digest",
                        lambda *args: clean["stamp"]["digest"])
    outcome = run.run_pipeline(tiny_args("paper-run"), mutant,
                               work / "b")
    assert outcome["attempted"] >= 1
    assert outcome["failed"] == outcome["attempted"]


def test_catalog_schedule_times_enough_reads():
    inputs = common.catalog_inputs()
    rounds = inputs["seeds"] * inputs["staged_per_seed"]
    assert inputs["reads_per_round"] % len(common.ROUTES) == 0
    assert rounds * inputs["reads_per_round"] >= common.MIN_READS


def test_tampered_catalog_output_counts_as_failed(monkeypatch, work):
    env = run.child_env(ROOT)
    clean = catalog.run(tiny_args("catalog"), ROOT, work / "a", env)
    assert clean["failed"] == 0
    pristine = clean["stamp"]["digest"]
    build_corpus = catalog.build_corpus

    def tampered(args, root, staging, *rest):
        corpus = build_corpus(args, root, staging, *rest)
        path = root / corpus["base"][0] / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["experiments"][0]["status"] = "tampered"
        path.write_text(json.dumps(manifest))
        return corpus

    monkeypatch.setattr(catalog, "build_corpus", tampered)
    monkeypatch.setattr(common, "expected_digest", lambda *args: pristine)
    outcome = catalog.run(tiny_args("catalog"), ROOT, work / "b", env)
    assert outcome["stamp"]["digest"] != pristine
    assert outcome["failed"] == 1


def test_daemon_reaped_when_requests_fail(monkeypatch, work):
    daemons = []
    calls = {"n": 0}
    original_init = catalog.Daemon.__init__
    original_request = catalog.Daemon.request

    def tracking_init(self, *args):
        original_init(self, *args)
        daemons.append(self)

    def flaky_request(self, method, path, headers=None):
        calls["n"] += 1
        if path != "/health" and calls["n"] % 3 == 0:
            raise ConnectionResetError("injected failure")
        return original_request(self, method, path, headers)

    monkeypatch.setattr(catalog.Daemon, "__init__", tracking_init)
    monkeypatch.setattr(catalog.Daemon, "request", flaky_request)
    try:
        outcome = catalog.run(tiny_args("catalog"), ROOT, work,
                              run.child_env(ROOT))
    except common.BenchError:
        pass  # too few operations succeeded to report a result
    else:
        assert outcome["failed"] > 0
    assert len(daemons) == catalog.SETUPS
    assert all(d.proc.poll() is not None for d in daemons)


def test_bare_directory_fails_without_result(work):
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, work / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "traces",
                                                  "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=work, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
