"""Child process of the benchmark: runs the holonomylab CLI and records when.

    python3 launch.py MARKS MODE WORKLOAD -- <holonomylab CLI arguments>

MODE is one of
  run    call `holonomylab.cli.main` with the CLI arguments, exactly as the
         `holonomylab` console script does;
  probe  the same, but stop where `run_config` is entered: one cold start;
  trace  install the span tracer, then validate the config and call
         `run_config` and `emit` once per task (each task's report goes to
         `<out>/task-NN/`); spans go to `<out>/spans.npz`.

MARKS receives a JSON object of CLOCK_MONOTONIC timestamps, which the parent
compares with its own spawn time; the clock is shared by all processes.  In
run and probe modes it also holds the samples of `speed.Sampler`, which runs
from the import mark to the end.  Only the standard library is imported
before the import mark, so the span from it to the `imported` mark covers
numpy, scipy and jsonschema as the CLI loads them (in run and probe modes,
numpy comes in with the sampler a few milliseconds earlier).
"""

import json
import os
import sys
import time

START = time.monotonic()


class _Probe(Exception):
    pass


def _stamp(marks: dict, name: str) -> None:
    marks[name] = time.monotonic()


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def _option(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_source() -> None:
    import holonomylab

    src = os.environ["PERFBENCH_SRC"]
    where = os.path.realpath(holonomylab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"holonomylab imported from {where}, not from {src}")


def run(marks: dict, mode: str, argv: list) -> int:
    _stamp(marks, "import_start")
    from speed import Sampler

    sampler = Sampler()
    sampler.start()
    try:
        return _run(marks, mode, argv)
    finally:
        sampler.stop()
        marks["speed"] = sampler.samples()


def _run(marks: dict, mode: str, argv: list) -> int:
    import holonomylab.cli as cli

    _stamp(marks, "imported")
    _check_source()
    validate, run_config = cli.validate_config, cli.run_config

    def timed_validate(config):
        _stamp(marks, "validate_start")
        try:
            return validate(config)
        finally:
            _stamp(marks, "validate_end")

    def timed_run_config(*args, **kwargs):
        _stamp(marks, "solve_start")
        if mode == "probe":
            raise _Probe
        result = run_config(*args, **kwargs)
        _stamp(marks, "solve_end")
        return result

    cli.validate_config = timed_validate
    cli.run_config = timed_run_config
    try:
        code = cli.main(argv)
    except _Probe:
        code = 0
    _stamp(marks, "main_end")
    return code


def trace(marks: dict, workload: str, argv: list) -> int:
    _stamp(marks, "import_start")
    import holonomylab.cli as cli

    _stamp(marks, "imported")
    _check_source()
    from tracer import REQUIRED, Tracer

    tracer = Tracer()
    tracer.install()
    with open(_option(argv, "--config"), encoding="utf-8") as fh:
        config = json.load(fh)
    if cli.validate_config(config):
        raise SystemExit("config does not validate")
    normalized = cli.normalize_config(config)
    seed = int(_option(argv, "--seed", normalized.get("seed", 0)))
    profile = normalized.get("tolerance_profile", "default")
    formats = _option(argv, "--format", "json").split(",")
    out = _option(argv, "--out")
    task_s: dict = {}
    _stamp(marks, "solve_start")
    for index, task in enumerate(normalized["tasks"]):
        began = time.perf_counter()
        report, tables = cli.run_config({"tasks": [task]}, seed, profile)
        took = time.perf_counter() - began
        task_s[task["command"]] = task_s.get(task["command"], 0.0) + took
        cli.emit(report, tables, os.path.join(out, f"task-{index:02d}"), formats)
    _stamp(marks, "solve_end")
    summary = tracer.summary()
    summary["task_s"] = task_s
    summary["missing"] = [g for g in REQUIRED[workload] if summary["groups"].get(g, {}).get("calls", 0) == 0]
    tracer.save(os.path.join(out, "spans.npz"))
    _write(os.path.join(out, "trace.json"), summary)
    _stamp(marks, "main_end")
    return 0


def main() -> int:
    marks_path, mode, workload = sys.argv[1:4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    marks = {"start": START}
    code = trace(marks, workload, argv) if mode == "trace" else run(marks, mode, argv)
    _write(marks_path, marks)
    return code


if __name__ == "__main__":
    sys.exit(main())
