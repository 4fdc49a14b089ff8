"""Benchmark of the holonomylab CLI: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload demo|transport|algebra --seed N \
        --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file,
whose `src/` supplies holonomylab.  Every CLI process is a fresh child, one
at a time, with BLAS and OpenMP limited to one thread.  Outputs go to
`perfbench/out/<workload>/`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 runs whole rounds of the workload config (at least two, and more
until S seconds have passed), checks every report, and reports the medians of
wall_s, solve_s and peak_rss_mb over rounds and of setup_s over every cold
start (rounds plus set-up probes).  The three times are scaled to a reference
machine speed by `speed.py`; the raw ones go to the log.  --trace 1 runs one
untraced round and one traced child and reports the per-layer metrics, raw.
"""

from __future__ import annotations

import os

# the benchmark process itself stays on one BLAS thread as well
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
MIN_ROUNDS = 2
MIN_SETUPS = 10  # counted cold starts per run: rounds plus probes
CHILD_TIMEOUT_S = 170.0
COMMANDS = ("metric-check", "transport", "holonomy", "parallelogram", "curvature", "closure", "chain", "grouplab")
MODULES = ("cli", "expressions", "jets", "finsler", "transport", "curvature", "liealg", "grouplab")


class Child:
    """One finished CLI child: exit code, resource usage and its time marks.

    wall_s, setup_s and solve_s are raw; scaled() gives them at the reference
    speed of `speed.py`, from the samples a run or probe child records.
    """

    def __init__(self, spawned: float, exited: float, code: int, rusage, marks: dict):
        self.code = code
        self.marks = marks
        self.spans = {
            "wall_s": (spawned, exited),
            "setup_s": (spawned, marks.get("solve_start", exited)),
            "solve_s": (marks.get("solve_start", 0.0), marks.get("solve_end", 0.0)),
        }
        self.wall_s, self.setup_s, self.solve_s = (b - a for a, b in self.spans.values())
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime

    def scaled(self, name: str) -> float:
        if "speed" not in self.marks:  # the child died early; child_problems says so
            return getattr(self, name)
        return speed.scaled(self.marks["speed"], *self.spans[name])


def spawn(mode: str, workload: str, config: Path, seed: int, out: Path, logs: Path) -> Child:
    """Run launch.py in MODE as a child and wait for it; out is emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs.mkdir(parents=True, exist_ok=True)
    marks_path = logs / f"{mode}.marks.json"
    marks_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), **THREAD_ENV)
    argv = [
        sys.executable, str(LAUNCH), str(marks_path), mode, workload, "--",
        "--config", str(config), "--out", str(out), "--format", "json,csv", "--seed", str(seed),
    ]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(logs / f"{mode}.stdout"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(logs / f"{mode}.stderr"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    guard = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    guard.start()
    try:
        _, status, rusage = os.wait4(pid, 0)
    finally:
        guard.cancel()
    exited = time.monotonic()
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    return Child(spawned, exited, os.waitstatus_to_exitcode(status), rusage, marks)


def child_problems(child: Child, logs: Path, mode: str) -> list:
    if child.code == 0 and "main_end" in child.marks:
        return []
    err = (logs / f"{mode}.stderr").read_text(errors="replace").strip().splitlines()
    return [f"{mode} child exited {child.code}: {err[-1] if err else 'no stderr'}"]


def failed_tasks(out: Path) -> int:
    """Tasks of a report that errored or failed a check; all of them if unreadable."""
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError):
        return -1
    return sum(1 for entry in report["tasks"] if "error" in entry or not entry["passed"])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, config, seed, seconds, schema, base):
    logs = base / "logs"
    config_path = write_config(workload, config, base)
    tasks = len(config["tasks"])
    problems, reference = [], None
    walls, setups, solves, rss = [], [], [], []
    attempted = failed = 0

    unscaled = {"wall_s": [], "setup_s": [], "solve_s": []}

    def probe():
        child = spawn("probe", workload, config_path, seed, base / "probe", logs)
        problems.extend(child_problems(child, logs, "probe"))
        setups.append(child.scaled("setup_s"))
        unscaled["setup_s"].append(child.setup_s)

    probe()  # writes bytecode and warms the page cache; not counted
    setups.clear()
    unscaled["setup_s"].clear()
    began = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - began < seconds:
        out = base / "round"
        child = spawn("run", workload, config_path, seed, out, logs)
        problems.extend(child_problems(child, logs, "run"))
        found, raw = checks.check_output(out, config, seed, schema)
        problems.extend(found)
        if reference is None:
            reference = raw
        elif raw != reference:
            problems.append(f"round {rounds} report.json differs from round 0 for seed {seed}")
        bad = failed_tasks(out)
        attempted += tasks
        failed += tasks if bad < 0 else bad
        walls.append(child.scaled("wall_s"))
        setups.append(child.scaled("setup_s"))
        solves.append(child.scaled("solve_s"))
        rss.append(child.peak_rss_mb)
        for name in unscaled:
            unscaled[name].append(getattr(child, name))
        rounds += 1
        probe()
    while len(setups) < MIN_SETUPS:
        probe()
    samples = {"wall_s": walls, "setup_s": setups, "solve_s": solves, "peak_rss_mb": rss,
               "unscaled": unscaled}
    (logs / "samples.json").write_text(json.dumps(samples, indent=1) + "\n", encoding="utf-8")
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "solve_s": metric(statistics.median(solves), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    return problems, attempted, failed, metrics


def traced(workload, config, seed, schema, base):
    logs = base / "logs"
    config_path = write_config(workload, config, base)
    tasks = config["tasks"]
    spawn("probe", workload, config_path, seed, base / "probe", logs)
    plain = spawn("run", workload, config_path, seed, base / "round", logs)
    problems = child_problems(plain, logs, "run")
    found, _ = checks.check_output(base / "round", config, seed, schema)
    problems += found
    failed = max(failed_tasks(base / "round"), 0)

    child = spawn("trace", workload, config_path, seed, base / "traced", logs)
    problems += child_problems(child, logs, "trace")
    summary = json.loads((base / "traced" / "trace.json").read_text())
    if summary["missing"]:
        problems.append(f"traced functions never reached on {workload}: {summary['missing']}")
    plain_report = json.loads((base / "round" / "report.json").read_text())
    for index, task in enumerate(tasks):
        out = base / "traced" / f"task-{index:02d}"
        found, _ = checks.check_output(out, {"tasks": [task]}, seed, schema)
        problems += [f"traced {line}" for line in found]
        failed += max(failed_tasks(out), 0)
        if "seed" in task:
            # a task with its own seed draws the same alone as in the batch
            alone = json.loads((out / "report.json").read_text())["tasks"][0]
            if alone != plain_report["tasks"][index]:
                problems.append(f"traced task {index} result differs from the untraced run")

    groups = summary["groups"]
    counters = summary["counters"]

    def calls(group):
        return metric(groups[group]["calls"], "count")

    def busy(group):
        return metric(groups[group]["s"], "s")

    written = sum(p.stat().st_size for p in (base / "round").iterdir())
    steps = counters["transport.steps_accepted"] + counters["transport.steps_rejected"]
    m = plain.marks
    out = {
        "cli.import_s": metric(m["imported"] - m["import_start"], "s"),
        "cli.validate_s": metric(m["validate_end"] - m["validate_start"], "s"),
        "cli.run_config_s": busy("cli.run_config"),
    }
    for command in COMMANDS:
        out[f"cli.task_s.{command}"] = metric(summary["task_s"].get(command, 0.0), "s")
    out.update({
        "cli.emit_s": metric(m["main_end"] - m["solve_end"], "s"),
        "cli.report_bytes": metric(written, "bytes"),
        "cli.cpu_s": metric(plain.cpu_s, "s"),
        "expressions.parse_calls": calls("expressions.parse"),
        "expressions.parse_s": busy("expressions.parse"),
        "jets.multiply_calls": calls("jets.multiply"),
        "jets.multiply_pairs": metric(counters["jets.multiply_pairs"], "count"),
        "jets.multiply_s": busy("jets.multiply"),
        "jets.elementary_calls": calls("jets.elementary"),
        "jets.elementary_s": busy("jets.elementary"),
        "jets.space_builds": calls("jets.space_build"),
        "jets.space_build_s": busy("jets.space_build"),
        "finsler.spray_jets_calls": calls("finsler.spray_jets"),
        "finsler.spray_jets_distinct": metric(summary["spray_jets_distinct"], "count"),
        "finsler.spray_jets_s": busy("finsler.spray_jets"),
        "finsler.energy_jet_s": busy("finsler.energy_jet"),
        "finsler.connection_values_calls": calls("finsler.connection_values"),
        "finsler.connection_values_s": busy("finsler.connection_values"),
        "transport.integrate_calls": calls("transport.integrate"),
        "transport.rhs_evals": metric(counters["transport.rhs_evals"], "count"),
        "transport.steps_accepted": metric(counters["transport.steps_accepted"], "count"),
        "transport.steps_rejected": metric(counters["transport.steps_rejected"], "count"),
        "transport.rhs_per_step": metric(counters["transport.rhs_evals"] / steps if steps else 0.0, "rhs/step"),
        "transport.integrate_s": busy("transport.integrate"),
        "transport.loop_build_s": busy("transport.loop_build"),
        "curvature.bundle_jets_calls": calls("curvature.bundle_jets"),
        "curvature.bundle_jets_distinct": metric(summary["bundle_jets_distinct"], "count"),
        "curvature.bundle_jets_s": busy("curvature.bundle_jets"),
        "curvature.ihol_generators_s": busy("curvature.ihol_generators"),
        "liealg.lie_closure_calls": calls("liealg.lie_closure"),
        "liealg.lie_closure_s": busy("liealg.lie_closure"),
        "liealg.field_values_s": busy("liealg.field_values"),
        "liealg.numerical_rank_s": busy("liealg.numerical_rank"),
        "grouplab.curve_jets_calls": calls("grouplab.curve_jets"),
        "grouplab.curve_jets_s": busy("grouplab.curve_jets"),
        "grouplab.exp_iterate_s": busy("grouplab.exp_iterate"),
        "grouplab.order_of_contact_s": busy("grouplab.order_of_contact"),
    })
    for module in MODULES:
        out[f"{module}.self_s"] = metric(summary["module_self_s"][module], "s")
    out["trace.overhead_s"] = metric(groups["cli.run_config"]["s"] - plain.solve_s, "s")
    return problems, 2 * len(tasks), failed, out


def write_config(workload: str, config: dict, base: Path) -> Path:
    if workload == "demo":
        return ROOT / "demos" / "batch_config.json"  # the shipped file itself
    path = base / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    schema_path = SRC / "holonomylab" / "schemas" / "report.schema.json"
    if not (SRC / "holonomylab" / "cli.py").is_file() or not schema_path.is_file():
        print(f"holonomylab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        config = workloads.workload_config(args.workload, args.seed, ROOT)
    except OSError as exc:
        print(f"workload config unavailable: {exc}", file=sys.stderr)
        return 2
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    base = HERE / "out" / args.workload
    base.mkdir(parents=True, exist_ok=True)
    if args.trace:
        problems, attempted, failed, metrics = traced(args.workload, config, args.seed, schema, base)
    else:
        problems, attempted, failed, metrics = measure(
            args.workload, config, args.seed, args.seconds, schema, base
        )
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
