"""Fault injection for the files the catalog reads: a file cut to its
first few hundred bytes (a crashed writer, a full disk) and valid JSON
of the wrong shape.  Each loader raises the error its docstring names
and each command exits with its documented code; the catalog's own
skip-and-report contract for a scan is pinned in
``test_repository.py::test_corrupt_dirs_are_skipped_with_a_warning``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.epochs.series import load_series
from repro.experiments.manifest import load_manifest
from repro.obs.timeline import entries_from_bench_file
from repro.service.cli import EXIT_SERVICE, service_main
from repro.service.repository import RunRepository
from tests.service.test_repository import _truncate

REPO = Path(__file__).resolve().parents[2]

#: Valid JSON that is no manifest, series or bench file.
WRONG_SHAPES = [
    pytest.param([], id="list"),
    pytest.param("text", id="string"),
    pytest.param({"unrelated": 1}, id="object"),
]


def _truncated_bench(tmp_path):
    path = tmp_path / "BENCH_truncated.json"
    path.write_bytes((REPO / "BENCH_pipeline.json").read_bytes())
    return _truncate(path)


def _written(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_manifest_on_a_truncated_file(repo_root):
    run_dir = sorted(repo_root.glob("run-*"))[0]
    _truncate(run_dir / "manifest.json")
    with pytest.raises(json.JSONDecodeError):
        load_manifest(run_dir)


@pytest.mark.parametrize("payload", WRONG_SHAPES)
def test_load_manifest_on_the_wrong_shape(tmp_path, payload):
    path = _written(tmp_path, "manifest.json", payload)
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(path)


def test_load_series_on_a_truncated_file(repo_root):
    (series_dir,) = repo_root.glob("series-*")
    _truncate(series_dir / "series.json")
    with pytest.raises(json.JSONDecodeError):
        load_series(series_dir)


@pytest.mark.parametrize("payload", WRONG_SHAPES)
def test_load_series_on_the_wrong_shape(tmp_path, payload):
    path = _written(tmp_path, "series.json", payload)
    with pytest.raises(ValueError, match="not a series payload"):
        load_series(path)


def test_bench_extraction_on_a_truncated_file(tmp_path):
    with pytest.raises(ValueError):
        entries_from_bench_file(_truncated_bench(tmp_path))


@pytest.mark.parametrize("payload", WRONG_SHAPES + [
    pytest.param({"trajectory": {}}, id="trajectory-object"),
    pytest.param({"trajectory": [1]}, id="trajectory-entry-number"),
])
def test_bench_extraction_on_the_wrong_shape(tmp_path, payload):
    path = _written(tmp_path, "BENCH_shape.json", payload)
    with pytest.raises(ValueError, match="trajectory"):
        entries_from_bench_file(path)


def test_runs_show_exits_4_on_a_manifest_truncated_after_indexing(
    repo_root, capsys
):
    with RunRepository(repo_root) as repository:
        repository.scan()
        run_id = repository.runs()[0].run_id
    _truncate(repo_root / run_id / "manifest.json")
    code = service_main(["runs", "show", "--root", str(repo_root), run_id])
    assert code == EXIT_SERVICE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert run_id in captured.err


def _retired_shape(key):
    """The committed seed bench plus one retired key."""

    def make(tmp_path):
        payload = json.loads((REPO / "BENCH_pipeline.json").read_text())
        if key == "rss_peak_kib":
            payload["trajectory"][-1][key] = {"world": 1, "dataset": 2}
        else:
            payload[key] = 1.0
        return _written(tmp_path, "BENCH_retired.json", payload)

    return make


@pytest.mark.parametrize("make, message", [
    pytest.param(_truncated_bench, "unreadable", id="truncated"),
    pytest.param(
        lambda tmp_path: _written(tmp_path, "BENCH_shape.json", []),
        "top level is not a JSON object", id="wrong-shape",
    ),
] + [
    pytest.param(_retired_shape(key), f"retired key {key!r}", id=key)
    for key in ("baseline_timings_s", "speedup", "rss_peak_kib")
])
def test_check_bench_exits_1(tmp_path, make, message):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench.py"),
         str(make(tmp_path))],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert message in result.stderr
