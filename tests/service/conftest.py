"""Shared service-plane fixtures.

Real run directories dominate these tests' runtime, so one session
fixture produces a tiny repository tree — a healthy run, the same
config under a region outage, and a 2-epoch series — through the
actual experiments CLI, and every test opens repositories/APIs over
copies or reads of it.
"""

import shutil

import pytest

from repro.experiments.cli import main

SEED = 7
DOMAINS = 300
WAN_ROUNDS = 2
#: One DNS-plane table plus one WAN figure: the figure's latency keys
#: actually move under the outage scenario, so /compare has deltas.
EXPERIMENTS = ["table03", "figure10"]
SCENARIO = "ec2.us-east-1-outage"


def cli_config_args():
    return [
        "--seed", str(SEED),
        "--domains", str(DOMAINS),
        "--wan-rounds", str(WAN_ROUNDS),
    ]


@pytest.fixture(scope="session")
def populated_root(tmp_path_factory):
    """A repository root with two runs (healthy + outage) and one
    2-epoch series, all produced by the real CLI."""
    root = tmp_path_factory.mktemp("service-repo")
    base = [*EXPERIMENTS, *cli_config_args(), "--no-artifact-cache",
            "--out-dir", str(root)]
    assert main(base) == 0
    assert main([*base, "--scenario", SCENARIO]) == 0
    assert main(["table03", *cli_config_args(), "--no-artifact-cache",
                 "--epochs", "2", "--out-dir", str(root)]) == 0
    return root


@pytest.fixture()
def repo_root(populated_root, tmp_path):
    """A throwaway copy of the populated tree for tests that mutate
    it (corrupt dirs, index deletion, job execution).  Only the source
    of truth is copied — the index file or job queues other tests left
    in the shared tree stay behind."""
    root = tmp_path / "repo"
    shutil.copytree(
        populated_root, root,
        ignore=shutil.ignore_patterns(".repro-index.sqlite", "jobs"),
    )
    return root


def run_ids(root):
    return sorted(p.name for p in root.glob("run-*") if p.is_dir())


def healthy_and_drilled(repository):
    """The fixture tree's (healthy, outage) single-shot run ids.

    The series' epoch-0 run is deliberately indistinguishable from a
    single-shot table03 run, so the healthy one is pinned down by its
    figure10 membership instead of by the absence of an epoch plan.
    """
    drilled = [
        r.run_id for r in repository.runs(scenario=SCENARIO)
    ]
    healthy = [
        r.run_id for r in repository.runs(experiment="figure10")
        if r.scenario is None
    ]
    assert len(drilled) == 1 and len(healthy) == 1
    return healthy[0], drilled[0]
