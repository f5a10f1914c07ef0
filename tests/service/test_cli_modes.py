"""One client, two transports: ``--root`` runs the daemon's handlers in
process, so every ``jobs`` and ``runs`` query prints exactly what the
same query against a daemon serving that root prints."""

import pytest

from repro.service.api import ServiceAPI
from repro.service.cli import service_main
from repro.service.client import LocalServiceClient
from repro.service.daemon import ReproService
from repro.service.errors import ServiceError
from repro.service.repository import RunRepository
from tests.service.conftest import cli_config_args, healthy_and_drilled


@pytest.fixture()
def served(repo_root, capsys):
    """A copy of the fixture tree holding one completed job, and a
    daemon with a scheduler serving that same root."""
    assert service_main([
        "jobs", "submit", "--root", str(repo_root), "table03",
        *cli_config_args(), "--run-now",
    ]) == 0
    capsys.readouterr()
    service = ReproService(
        repo_root, port=0, poll_interval=0.1, access_log=False
    )
    service.start()
    yield repo_root, service.url
    service.stop()


def _stdout(capsys, argv):
    assert service_main(argv) == 0
    return capsys.readouterr().out


def test_root_and_url_print_identical_bytes(served, capsys):
    root, url = served
    with RunRepository(root) as repository:
        a, b = healthy_and_drilled(repository)
    (job_id,) = [path.stem for path in (root / "jobs").glob("job-*.json")]
    commands = [
        ["runs", "list"],
        ["runs", "list", "--json"],
        ["runs", "show", a],
        ["runs", "compare", a, b],
        ["runs", "compare", a, b, "--json"],
        ["jobs", "list"],
        ["jobs", "list", "--json"],
        ["jobs", "show", job_id],
    ]
    for command in commands:
        local = _stdout(capsys, [*command, "--root", str(root)])
        remote = _stdout(capsys, [*command, "--url", url])
        assert local, command
        assert local == remote, command


def test_runs_commands_leave_no_jobs_dir(repo_root, capsys):
    root = str(repo_root)
    with RunRepository(repo_root) as repository:
        repository.scan()
        a, b = healthy_and_drilled(repository)
    for command in (
        ["runs", "list"],
        ["runs", "show", a],
        ["runs", "compare", a, b],
    ):
        _stdout(capsys, [*command, "--root", root])
    assert not (repo_root / "jobs").exists()


def test_local_client_raises_error_statuses(repo_root):
    with RunRepository(repo_root) as repository:
        client = LocalServiceClient(ServiceAPI(repository))
        with pytest.raises(ServiceError, match="HTTP 404 — unknown run"):
            client.run("run-000000000000")
        # A catalog without a scheduler answers job queries with 503.
        with pytest.raises(ServiceError, match="HTTP 503"):
            client.jobs()
