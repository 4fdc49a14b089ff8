"""The comparison in `tools/same_reports.py`, on made-up output directories:
two runs differ by their exit codes or by any output file but the timing
sidecar `report.meta.json`."""

import importlib.util
import json
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


REPORT = {
    "summary": {"passed": True, "failures": []},
    "tasks": [
        {
            "label": "chain",
            "passed": True,
            "results": {"ranks": {"ihol": 15}, "singular_values": [2.0, 1.25e-7, 0.5]},
            "checks": [{"name": "chain-monotone", "value": 0.0, "passed": True}],
        }
    ],
}


def _report_runs(tmp_path, edit):
    """A parent run writing REPORT and a change run writing REPORT after edit(report)."""
    changed = json.loads(json.dumps(REPORT))
    edit(changed)
    return [
        _run(tmp_path / side, {**FILES, "report.json": json.dumps(report).encode()})
        for side, report in (("parent", REPORT), ("change", changed))
    ]


def test_a_moved_digit_names_its_scaled_move_and_path(tmp_path):
    def edit(report):
        report["tasks"][0]["results"]["singular_values"][2] = 0.5 + 3e-15
        report["tasks"][0]["results"]["singular_values"][1] = 1.25e-7 * (1 + 1e-9)

    parent, change = _report_runs(tmp_path, edit)
    # 1.25e-16 on 1.25e-7 scales by max(|a|, |b|, 1) = 1, below the 3e-15 move
    assert same_reports.differences((0, parent), (0, change)) == [
        "report.json differs (verdicts agree; largest move 3.0e-15 at tasks/0/results/singular_values/2)"
    ]


def test_a_flipped_verdict_is_named(tmp_path):
    def edit(report):
        report["tasks"][0]["checks"][0].update(value=1.0, passed=False)
        report["tasks"][0]["passed"] = False
        report["summary"]["passed"] = False

    parent, change = _report_runs(tmp_path, edit)
    (line,) = same_reports.differences((0, parent), (1, change))[1:]
    # the three flipped verdicts are three structural differences
    assert line == (
        "report.json differs (verdicts differ at summary/passed; "
        "structure differs at summary/passed: True against False and 2 more; "
        "largest move 1.0e+00 at tasks/0/checks/0/value)"
    )


def test_a_structural_difference_is_named_beside_the_moves(tmp_path):
    def edit(report):
        report["tasks"][0]["results"]["singular_values"].append(1e-3)
        report["tasks"][0]["results"]["singular_values"][2] = 0.75
        report["tasks"][0]["checks"][0]["value"] = 0.5

    parent, change = _report_runs(tmp_path, edit)
    assert same_reports.differences((0, parent), (0, change)) == [
        "report.json differs (verdicts agree; structure differs at"
        " tasks/0/results/singular_values: 3 against 4 entries;"
        " largest move 5.0e-01 at tasks/0/checks/0/value)"
    ]
    assert same_reports.report_move(
        json.dumps({"value": 1.0}).encode(), json.dumps({"value": None}).encode()
    ) == "verdicts agree; structure differs at value: 1.0 against None; largest move 0.0e+00 at (no numbers)"


def test_the_keys_each_side_lacks_are_named_and_the_walk_goes_on():
    # the change drops summary.failures and adds summary.num_tasks and a
    # provenance object, and a singular value moves beyond them
    change = json.loads(json.dumps(REPORT))
    change["summary"] = {"passed": True, "num_tasks": 1}
    change["provenance"] = {"seed": 1}
    change["tasks"][0]["results"]["singular_values"][0] = 2.5
    assert same_reports.report_move(json.dumps(REPORT).encode(), json.dumps(change).encode()) == (
        "verdicts agree; structure differs at (root): only the change has 'provenance' and 1 more; "
        "largest move 2.0e-01 at tasks/0/results/singular_values/0"
    )
    moves, structure = [], []
    same_reports._walk(REPORT, change, "", moves, structure)
    assert structure == [
        "(root): only the change has 'provenance'",
        "summary: only the parent has 'failures'; only the change has 'num_tasks'",
    ]
