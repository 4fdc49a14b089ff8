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
differs.
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


def differences(parent: tuple, change: tuple) -> list:
    """What differs between two runs, each given as (exit code, output directory)."""
    found = [f"exit code {parent[0]} against {change[0]}"] if parent[0] != change[0] else []
    a, b = outputs(parent[1]), outputs(change[1])
    found += [f"only the parent wrote {name}" for name in sorted(a.keys() - b.keys())]
    found += [f"only the change wrote {name}" for name in sorted(b.keys() - a.keys())]
    found += [f"{name} differs" for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
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
