"""Check that two holonomylab source trees write the same reports.

    python tools/same_reports.py PARENT_SRC CHANGE_SRC

Each argument is a `src` directory holding the `holonomylab` package.  The
CLI runs from each tree on ten runs: `demos/batch_config.json` at seeds 1 and
7 under the default and the strict tolerance profile, and the perfbench
`transport` and `algebra` configs at seeds 1-3, all with `--format json,csv`.
Every run is a process of its own, with PYTHONPATH set to its tree and one
BLAS thread.  A run matches when both sides exit with the same code and write
the same files with the same bytes, `report.meta.json` aside, which holds
timings.  One line is printed per run, and the exit code is 1 when any run
differs.  When both sides wrote a `report.json` and it differs, the line also
says whether every verdict agrees (`summary.passed`, each task's `passed` and
`error`, each check's `passed`), the first structural difference and how
many more there are (the keys only one side has, a list's length, or a
non-number that differs), and how far the report moved: the largest
|a - b| / max(|a|, |b|, 1) over the numbers at one JSON path, with that path,
over every number both sides hold at the same path.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# (workload, seed, tolerance profile)
RUNS = [("demo", seed, profile) for seed in (1, 7) for profile in ("default", "strict")] + [
    (workload, seed, "default") for workload in ("transport", "algebra") for seed in (1, 2, 3)
]
SIDECAR = "report.meta.json"


def outputs(out: Path) -> dict:
    """{path relative to out: bytes} of every file a run wrote, but the sidecar."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != SIDECAR
    }


def verdicts(report: dict) -> dict:
    """{JSON path: verdict} of a report: summary.passed, and each task's
    passed and error and each of its checks' passed."""
    found = {"summary/passed": report.get("summary", {}).get("passed")}
    for i, task in enumerate(report.get("tasks", [])):
        found[f"tasks/{i}/passed"] = task.get("passed")
        found[f"tasks/{i}/error"] = task.get("error")
        for j, check in enumerate(task.get("checks", [])):
            found[f"tasks/{i}/checks/{j}/passed"] = check.get("passed")
    return found


def _walk(a, b, path: str, moves: list, structure: list) -> None:
    """Append (scaled move, path) for each pair of numbers under a and b to
    moves, and each structural difference to structure.  The walk goes on
    past a difference: into the keys both objects have and the entries two
    lists of different lengths share."""
    where = path or "(root)"
    if isinstance(a, dict) and isinstance(b, dict):
        lacks = [
            f"only the {side} has {', '.join(map(repr, sorted(keys)))}"
            for side, keys in (("parent", a.keys() - b.keys()), ("change", b.keys() - a.keys()))
            if keys
        ]
        if lacks:
            structure.append(f"{where}: {'; '.join(lacks)}")
        items = [(str(k), a[k], b[k]) for k in a if k in b]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structure.append(f"{where}: {len(a)} against {len(b)} entries")
        items = [(str(i), x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        moves.append((abs(a - b) / max(abs(a), abs(b), 1), where))
        return
    else:
        if a != b:
            structure.append(f"{where}: {a!r} against {b!r}")
        return
    for key, x, y in items:
        _walk(x, y, f"{path}/{key}" if path else key, moves, structure)


def report_move(parent: bytes, change: bytes) -> str:
    """Whether two report.json files agree in every verdict, where their
    structure differs (the first place, and how many more), and how far
    their numbers moved."""
    a, b = json.loads(parent), json.loads(change)
    va, vb = verdicts(a), verdicts(b)
    flipped = [path for path in {**va, **vb} if va.get(path) != vb.get(path)]
    said = [f"verdicts differ at {flipped[0]}" if flipped else "verdicts agree"]
    moves, structure = [], []
    _walk(a, b, "", moves, structure)
    if structure:
        more = f" and {len(structure) - 1} more" if len(structure) > 1 else ""
        said.append(f"structure differs at {structure[0]}{more}")
    largest, where = max(moves, default=(0.0, "(no numbers)"))
    return "; ".join([*said, f"largest move {largest:.1e} at {where}"])


def differences(parent: tuple, change: tuple) -> list:
    """What differs between two runs, each given as (exit code, output directory)."""
    found = [f"exit code {parent[0]} against {change[0]}"] if parent[0] != change[0] else []
    a, b = outputs(parent[1]), outputs(change[1])
    found += [f"only the parent wrote {name}" for name in sorted(a.keys() - b.keys())]
    found += [f"only the change wrote {name}" for name in sorted(b.keys() - a.keys())]
    for name in sorted(a.keys() & b.keys()):
        if a[name] != b[name]:
            moved = f" ({report_move(a[name], b[name])})" if name == "report.json" else ""
            found.append(f"{name} differs{moved}")
    return found


def _start(src: Path, config: Path, seed: int, profile: str, out: Path) -> subprocess.Popen:
    argv = [
        sys.executable, "-m", "holonomylab.cli", "--config", str(config), "--out", str(out),
        "--format", "json,csv", "--seed", str(seed), "--tolerance-profile", profile,
    ]
    env = dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)
    return subprocess.Popen(
        argv, env=env, cwd=out.parent, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the reports of two source trees.")
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    trees = (args.parent_src.resolve(), args.change_src.resolve())
    for src in trees:
        if not (src / "holonomylab" / "cli.py").is_file():
            parser.error(f"{src} holds no holonomylab package")
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import workload_config

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, profile in RUNS:
            name = f"{workload}-seed{seed}-{profile}"
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(workload_config(workload, seed, ROOT)), encoding="utf-8")
            outs = [Path(tmp) / name / side / "out" for side in ("parent", "change")]
            for out in outs:
                out.parent.mkdir(parents=True)
            # the two sides run at once, one BLAS thread each
            runs = [_start(src, config, seed, profile, out) for src, out in zip(trees, outs)]
            codes = [run.wait() for run in runs]
            found = differences((codes[0], outs[0]), (codes[1], outs[1]))
            failed += bool(found)
            files = len(outputs(outs[0]))
            verdict = "; ".join(found) if found else f"same (exit {codes[0]}, {files} files)"
            print(f"{name}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
