"""The comparison in `tools/same_reports.py`, on made-up output directories:
two runs differ by their exit codes or by any output file but the timing
sidecar `report.meta.json`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"
_spec = importlib.util.spec_from_file_location("same_reports", TOOL)
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)

FILES = {
    "report.json": b'{"summary": {"passed": true}}\n',
    "closure.csv": b"step,rank\n0,2\n1,3\n",
    "report.meta.json": b'{"wall_s": 1.25}\n',
}


def _without(name: str) -> dict:
    return {k: v for k, v in FILES.items() if k != name}


def _run(root: Path, files: dict) -> Path:
    root.mkdir(parents=True)
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


def test_runs_that_differ_only_in_their_sidecar_are_the_same(tmp_path):
    parent = _run(tmp_path / "parent", FILES)
    change = _run(tmp_path / "change", {**FILES, "report.meta.json": b'{"wall_s": 2.5}\n'})
    assert same_reports.differences((0, parent), (0, change)) == []
    no_sidecar = _run(tmp_path / "no-sidecar", _without("report.meta.json"))
    assert same_reports.differences((1, parent), (1, no_sidecar)) == []


def test_a_changed_csv_byte_a_missing_file_and_an_exit_code_differ(tmp_path):
    parent = _run(tmp_path / "parent", FILES)
    flipped = _run(tmp_path / "flipped", {**FILES, "closure.csv": b"step,rank\n0,2\n1,2\n"})
    missing = _run(tmp_path / "missing", _without("report.json"))
    assert same_reports.differences((0, parent), (0, flipped)) == ["closure.csv differs"]
    assert same_reports.differences((0, parent), (0, missing)) == ["only the parent wrote report.json"]
    assert same_reports.differences((0, missing), (0, parent)) == ["only the change wrote report.json"]
    assert same_reports.differences((0, parent), (1, parent)) == ["exit code 0 against 1"]
