"""Service CLI tests: thin-client subcommands and the exit-code
contract (0 success, 2 usage, 3 fidelity gate, 4 service error)."""

import json

import pytest

from repro.experiments.cli import build_parser, main
from repro.service.cli import (
    EXIT_CODES_HELP,
    EXIT_SERVICE,
    build_service_parser,
    service_main,
)
from repro.service.repository import INDEX_FILENAME, RunRepository
from tests.service.conftest import SCENARIO, cli_config_args, run_ids


@pytest.fixture(scope="module")
def root(populated_root):
    return str(populated_root)


def test_exit_codes_documented_in_both_helps():
    assert "4  service error" in EXIT_CODES_HELP
    assert "exit codes:" in build_parser().format_help()
    assert "exit codes:" in build_service_parser().format_help()


def test_main_dispatches_service_subcommands(root, capsys):
    # Through the `repro` entry point, not service_main directly.
    assert main(["runs", "list", "--root", root, "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 4


def test_runs_list_renders_a_table(root, capsys):
    assert service_main(["runs", "list", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "Indexed runs" in out
    assert "4 runs" in out


def test_runs_list_filters(root, capsys):
    assert service_main([
        "runs", "list", "--root", root,
        "--scenario", SCENARIO, "--json",
    ]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["scenario"] for r in records] == [SCENARIO]


def test_runs_show_prints_the_manifest(root, capsys):
    service_main(["runs", "list", "--root", root, "--json"])
    run_id = json.loads(capsys.readouterr().out)[0]["run_id"]
    assert service_main(["runs", "show", "--root", root, run_id]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["run_id"] == run_id


def test_unknown_run_exits_4(root, capsys):
    code = service_main(
        ["runs", "show", "--root", root, "run-000000000000"]
    )
    assert code == EXIT_SERVICE
    assert "service error" in capsys.readouterr().err


def test_unknown_job_exits_4(root, capsys):
    code = service_main(
        ["jobs", "show", "--root", root, "job-000000000000"]
    )
    assert code == EXIT_SERVICE


def test_usage_errors_exit_2(root):
    with pytest.raises(SystemExit) as excinfo:
        service_main(["runs", "list", "--no-such-flag"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        # --url and --root are mutually exclusive.
        service_main([
            "runs", "list", "--url", "http://x", "--root", "y",
        ])
    assert excinfo.value.code == 2


def test_runs_compare(root, capsys):
    service_main(["runs", "list", "--root", root, "--json"])
    records = json.loads(capsys.readouterr().out)
    drilled = [r for r in records if r["scenario"] == SCENARIO]
    healthy = [
        r for r in records
        if r["scenario"] is None and "figure10" in str(r["experiments"])
    ]
    a, b = healthy[0]["run_id"], drilled[0]["run_id"]
    assert service_main([
        "runs", "compare", "--root", root, a, b, "--changed-only",
    ]) == 0
    out = capsys.readouterr().out
    assert "keys changed" in out and SCENARIO in out

    assert service_main([
        "runs", "compare", "--root", root, a, b, "--json",
    ]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["summary"]["keys_changed"] > 0


def test_rebuild_index_subcommand(repo_root, capsys):
    index = repo_root / ".repro-index.sqlite"
    assert service_main(
        ["runs", "rebuild-index", "--root", str(repo_root)]
    ) == 0
    assert "rebuilt index" in capsys.readouterr().out
    assert index.exists()


def test_rebuild_index_recovers_a_corrupt_index(repo_root, capsys):
    """Garbage in the index file must not stop the command meant to
    fix it: the rebuilt catalog lists every run."""
    (repo_root / INDEX_FILENAME).write_bytes(b"garbage, not sqlite")
    assert service_main(
        ["runs", "rebuild-index", "--root", str(repo_root)]
    ) == 0
    assert "rebuilt index" in capsys.readouterr().out
    with RunRepository(repo_root) as catalog:
        assert [r.run_id for r in catalog.runs()] == run_ids(repo_root)


def test_jobs_submit_run_now_and_list(tmp_path, capsys):
    root = str(tmp_path / "svc")
    assert service_main([
        "jobs", "submit", "--root", root, "table03",
        *cli_config_args(), "--run-now",
    ]) == 0
    out = capsys.readouterr().out
    assert "submitted job-" in out
    assert "completed" in out

    assert service_main(["jobs", "list", "--root", root]) == 0
    listing = capsys.readouterr().out
    assert "completed" in listing and "-> run-" in listing

    assert service_main([
        "jobs", "list", "--root", root, "--json",
    ]) == 0
    (record,) = json.loads(capsys.readouterr().out)
    assert record["status"] == "completed"
    run_id = record["outcome"]["run_id"]

    # The produced run is queryable through the same root.
    assert service_main([
        "runs", "show", "--root", root, run_id,
    ]) == 0
    assert json.loads(capsys.readouterr().out)["run_id"] == run_id


def test_jobs_submit_bad_spec_exits_4(tmp_path, capsys):
    code = service_main([
        "jobs", "submit", "--root", str(tmp_path / "svc"),
        "no-such-experiment",
    ])
    assert code == EXIT_SERVICE
    assert "unknown experiments" in capsys.readouterr().err
