"""Span tracer for holonomylab, installed from outside the package.

`Tracer.install` replaces public functions and methods of holonomylab with
wrappers that record one span per call: group, parent span, start and end.
Module-level functions are rebound in every holonomylab module that imported
them by name (curvature holds its own `spray_jets`, transport its own
`connection_values`, cli most of the library), so no binding keeps calling
the bare function.  Spans stay in memory in flat arrays; `summary` derives
call counts, times and self times from them and `save` writes them out.

A group's time sums only its outermost spans, so a wrapped function that
calls another member of its group is not counted twice.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "expressions", "jets", "finsler", "transport", "curvature", "liealg", "grouplab")

# (group, module, attribute path); a group is "<module>.<name>".  Some groups
# (resolve_metric, evaluate, norm_diagnostics, parallel_transport,
# curvature_field, inclusion_chain_report) feed no metric of their own: their
# spans keep that module's work out of the caller's self time.
TARGETS = (
    ("cli.validate", "cli", "validate_config"),
    ("cli.run_config", "cli", "run_config"),
    ("cli.resolve_metric", "cli", "resolve_metric"),
    ("cli.emit", "cli", "emit"),
    ("expressions.parse", "expressions", "parse_expression"),
    ("expressions.evaluate", "expressions", "Expression.__call__"),
    ("expressions.evaluate", "expressions", "Expression.evaluate"),
    ("jets.multiply", "jets", "JetSpace.multiply"),
    ("jets.space_build", "jets", "JetSpace.__init__"),
    ("jets.elementary", "jets", "Jet.sqrt"),
    ("jets.elementary", "jets", "Jet.exp"),
    ("jets.elementary", "jets", "Jet.log"),
    ("jets.elementary", "jets", "Jet.sin"),
    ("jets.elementary", "jets", "Jet.cos"),
    ("jets.elementary", "jets", "Jet.__truediv__"),
    ("jets.elementary", "jets", "Jet.__rtruediv__"),
    ("finsler.spray_jets", "finsler", "spray_jets"),
    ("finsler.energy_jet", "finsler", "FinslerNorm.energy_jet"),
    ("finsler.connection_values", "finsler", "connection_values"),
    ("finsler.norm_diagnostics", "finsler", "norm_diagnostics"),
    ("transport.integrate", "transport", "integrate"),
    ("transport.loop_build", "transport", "CurveSpec.line_segment"),
    ("transport.loop_build", "transport", "CurveSpec.from_expressions"),
    ("transport.loop_build", "transport", "LoopSpec.rectangle"),
    ("transport.loop_build", "transport", "ParallelogramTransporter.loop"),
    ("transport.parallel_transport", "transport", "parallel_transport"),
    ("curvature.bundle_jets", "curvature", "IndicatrixVectorField.bundle_jets"),
    ("curvature.ihol_generators", "curvature", "ihol_generators"),
    ("curvature.curvature_field", "curvature", "curvature_field"),
    ("liealg.lie_closure", "liealg", "lie_closure"),
    ("liealg.field_values", "liealg", "field_values"),
    ("liealg.numerical_rank", "liealg", "numerical_rank"),
    ("liealg.inclusion_chain_report", "liealg", "inclusion_chain_report"),
    ("grouplab.curve_jets", "grouplab", "MatrixCurve.jets"),
    ("grouplab.exp_iterate", "grouplab", "exp_iterate"),
    ("grouplab.order_of_contact", "grouplab", "order_of_contact"),
)

# groups each workload must reach; a binding the tracer missed reads zero
REQUIRED = {
    "demo": (
        "cli.validate", "cli.run_config", "jets.multiply", "jets.elementary", "jets.space_build",
        "finsler.spray_jets", "finsler.energy_jet", "finsler.connection_values",
        "finsler.norm_diagnostics", "transport.integrate", "transport.loop_build",
        "curvature.bundle_jets", "curvature.ihol_generators", "liealg.lie_closure",
        "liealg.field_values", "liealg.numerical_rank", "grouplab.curve_jets",
        "grouplab.exp_iterate", "grouplab.order_of_contact",
    ),
    "transport": (
        "cli.validate", "cli.run_config", "expressions.parse", "jets.multiply",
        "jets.elementary", "jets.space_build", "finsler.spray_jets", "finsler.energy_jet",
        "finsler.connection_values", "transport.integrate", "transport.loop_build",
        "curvature.bundle_jets",
    ),
    "algebra": (
        "cli.validate", "cli.run_config", "expressions.parse", "expressions.evaluate",
        "jets.multiply", "jets.elementary", "jets.space_build", "finsler.spray_jets",
        "finsler.energy_jet", "finsler.norm_diagnostics", "curvature.bundle_jets",
        "curvature.ihol_generators", "liealg.lie_closure", "liealg.field_values",
        "liealg.numerical_rank", "grouplab.curve_jets", "grouplab.exp_iterate",
        "grouplab.order_of_contact",
    ),
}


def _pair_count(space) -> int:
    """Pair products one truncated multiply does in `space`, from its index set.

    Two retained multi-indices multiply into a retained one exactly when
    their degrees add up to at most each group's cap.
    """
    cols = np.cumsum([0] + [size for size, _ in space.groups])
    deg = np.stack(
        [space.multi[:, a:b].sum(axis=1) for a, b in zip(cols[:-1], cols[1:])], axis=1
    ) if space.groups else np.zeros((space.size, 0), dtype=np.int64)
    caps = np.array(space.caps, dtype=np.int64)
    return int(np.all(deg[:, None, :] + deg[None, :, :] <= caps, axis=2).sum())


def _key_bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.group_of = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: list[int] = []
        self.counters = {
            "jets.multiply_pairs": 0,
            "transport.rhs_evals": 0,
            "transport.steps_accepted": 0,
            "transport.steps_rejected": 0,
        }
        self._pairs: dict[int, int] = {}
        self._spray_keys: set = set()
        self._bundle_keys: set = set()
        self._alive: dict = {}  # id -> object, see _keep

    # -- wrapping ---------------------------------------------------------

    def _group_id(self, group: str) -> int:
        if group not in self._gid:
            self._gid[group] = len(self.groups)
            self.groups.append(group)
            self._depth.append(0)
        return self._gid[group]

    def wrap(self, group: str, fn, before=None, after=None):
        gid = self._group_id(group)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        group_of, parent, outer = self.group_of, self.parent, self.outer
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(group_of)
            group_of.append(gid)
            parent.append(stack[-1])
            outer.append(depth[gid] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[gid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[gid] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _keep(self, obj) -> int:
        """id(obj), with obj kept alive so the id is not reused for another object."""
        self._alive.setdefault(id(obj), obj)
        return id(obj)

    def _hooks(self, group: str, fn):
        counters = self.counters
        if group == "jets.multiply":
            pairs = self._pairs

            def before(args, kwargs):
                space, a, b = args
                n = pairs.get(id(space))
                if n is None:
                    n = pairs[self._keep(space)] = _pair_count(space)
                batch = a.shape[1] if a.ndim > 1 else (b.shape[1] if b.ndim > 1 else 1)
                counters["jets.multiply_pairs"] += n * batch
                return args, kwargs

            return before, None
        if group == "finsler.spray_jets":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self._spray_keys.add((
                    self._keep(a["norm"]), _key_bytes(a["x"]), _key_bytes(a["y"]),
                    int(a["xorder"]), int(a["yorder"]),
                ))
                return args, kwargs

            return before, None
        if group == "curvature.bundle_jets":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                a = signature.bind(*args, **kwargs).arguments
                self._bundle_keys.add((
                    self._keep(a["self"]), int(a["xcap"]), int(a["ycap"]), _key_bytes(a["y_center"]),
                ))
                return args, kwargs

            return before, None
        if group == "transport.integrate":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                rhs = bound.arguments["rhs"]

                def counted(t, y):
                    counters["transport.rhs_evals"] += 1
                    return rhs(t, y)

                bound.arguments["rhs"] = counted
                return bound.args, bound.kwargs

            def after(result):
                stats = result[1]
                counters["transport.steps_accepted"] += int(stats["accepted"])
                counters["transport.steps_rejected"] += int(stats["rejected"])

            return before, after
        return None, None

    def install(self):
        """Wrap every target and rebind module-level names across holonomylab."""
        mods = {name: importlib.import_module(f"holonomylab.{name}") for name in MODULES}
        package = [m for k, m in sys.modules.items() if k == "holonomylab" or k.startswith("holonomylab.")]
        for group, mod_name, path in TARGETS:
            owner = mods[mod_name]
            *outer_names, attr = path.split(".")
            for name in outer_names:
                owner = getattr(owner, name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if descriptor else raw
                wrapped = self.wrap(group, fn, *self._hooks(group, fn))
                setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(group, original, *self._hooks(group, original))
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "group": np.frombuffer(self.group_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-group calls, time and self time, per-module self time, counters."""
        a = self.arrays()
        ngroups = len(self.groups)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["group"], minlength=ngroups)
        busy = np.bincount(a["group"], weights=dur * a["outer"], minlength=ngroups)
        own = np.bincount(a["group"], weights=self_time, minlength=ngroups)
        groups = {
            g: {"calls": int(calls[i]), "s": float(busy[i]), "self_s": float(own[i])}
            for i, g in enumerate(self.groups)
        }
        modules = {m: 0.0 for m in MODULES}
        for g, rec in groups.items():
            modules[g.split(".")[0]] += rec["self_s"]
        return {
            "groups": groups,
            "module_self_s": modules,
            "counters": dict(self.counters),
            "spray_jets_distinct": len(self._spray_keys),
            "bundle_jets_distinct": len(self._bundle_keys),
            "spans": int(len(dur)),
        }

    def save(self, path) -> None:
        np.savez(path, groups=np.array(self.groups), **self.arrays())
