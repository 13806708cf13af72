"""Per-layer spans of one CLI run, recorded from outside the ``sal`` package.

The layers are the package modules.  A wrapper is installed on every
binding a caller looks a name up through: each ``sal`` module that holds
the function (``sal.cli.evolve`` and ``sal.metrics.evolve`` are separate
bindings of one function), and the class for methods.  Every wrapped call
records a span ``[name, start, end, parent, run]`` in memory; the spans are
written out once the run ends.

A group's time counts its outermost spans only (a span with no ancestor of
the same group), so ``SuperadiabaticHamiltonian.__call__`` calling ``total``
is one evaluation.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter

# (module, function) -> span name
FUNCTIONS = {
    ("sal.cli", "main"): "cli",
    ("sal.counterdiabatic", "cd_teleport_block"): "counterdiabatic.build",
    ("sal.counterdiabatic", "cd_tensor_sum"): "counterdiabatic.build",
    ("sal.counterdiabatic", "cd_rotate"): "counterdiabatic.build",
    ("sal.counterdiabatic", "cd_controlled"): "counterdiabatic.build",
    ("sal.counterdiabatic", "cd_generic"): "counterdiabatic.build",
    ("sal.hamiltonians", "h_xi"): "hamiltonians.h_eval",
    ("sal.dynamics", "evolve"): "dynamics.evolve",
    ("sal.metrics", "qsl_check"): "metrics.qsl",
    ("sal.metrics", "energy_cost"): "metrics.cost",
    ("sal.metrics", "teleport_sigma_sing"): "metrics.cost",
    ("sal.linalg", "random_state"): "linalg",
    ("sal.linalg", "embed"): "linalg",
    ("sal.linalg", "state_from_factors"): "linalg",
}
# (module, class, method) -> span name
METHODS = {
    ("sal.counterdiabatic", "SuperadiabaticHamiltonian", "total"): "counterdiabatic.h_eval",
    ("sal.counterdiabatic", "SuperadiabaticHamiltonian", "__call__"): "counterdiabatic.h_eval",
    ("sal.hamiltonians", "TimeDepHamiltonian", "__call__"): "hamiltonians.h_eval",
}
# (module, class, method) -> counter name; counted, not timed
COUNTED = {("sal.schedules", "Schedule", "eta"): "schedules.eta_calls"}
# calls whose arguments and result are kept for the metrics
CAPTURED = frozenset({"dynamics.evolve", "metrics.cost"})
# evolve calls with track_qsl=True get their own span name in the same group
QSL_EVOLVE = "dynamics.qsl_evolve"
GROUP = {QSL_EVOLVE: "dynamics.evolve"}

UNITS = {
    "counterdiabatic.h_eval_s": "s",
    "counterdiabatic.h_eval_calls": "count",
    "hamiltonians.h_eval_s": "s",
    "hamiltonians.h_eval_calls": "count",
    "schedules.eta_calls": "count",
    "counterdiabatic.build_s": "s",
    "counterdiabatic.build_calls": "count",
    "dynamics.evolve_s": "s",
    "dynamics.evolve_calls": "count",
    "dynamics.steps": "count",
    "dynamics.qsl_evolve_s": "s",
    "dynamics.norm_drift": "1",
    "metrics.cost_s": "s",
    "metrics.cost_calls": "count",
    "metrics.cost_points": "count",
    "linalg.self_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Spans and counts of the CLI calls made while installed."""

    def __init__(self):
        self.run_id = 1  # one traced CLI call per benchmark run
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.captured: dict[int, tuple[dict, object]] = {}  # span -> (arguments, result)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if name in CAPTURED else None

        def wrapper(*args, **kwargs):
            label = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments.get("track_qsl"):
                    label = QSL_EVOLVE
            span = [label, clock(), None, stack[-1] if stack else -1, self.run_id]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if sig is not None:
                self.captured[index] = (dict(bound.arguments), result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed
        in ``missing`` and its metrics read zero."""
        modules = [m for key, m in list(sys.modules.items()) if key == "sal" or key.startswith("sal.")]
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._span(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)
        for table, make in ((METHODS, self._span), (COUNTED, self._counter)):
            for (module, cls_name, attr), name in table.items():
                cls = getattr(sys.modules.get(module), cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    self.missing.append(f"{module}.{cls_name}.{attr}")
                    continue
                self._set(cls, attr, make(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------

    def _tree(self) -> tuple[list[float], list[bool]]:
        """Per span: self time, and whether no ancestor shares its group."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        outer = []
        for span in spans:
            parent = span[3]
            while parent >= 0 and _group(spans[parent][0]) != _group(span[0]):
                parent = spans[parent][3]
            outer.append(parent < 0)
        return [s[2] - s[1] - c for s, c in zip(spans, child)], outer

    def captures(self, group: str) -> list[tuple[dict, object]]:
        """(arguments, result) of the outermost calls of a group, in call order."""
        _, outer = self._tree()
        return [self.captured[i] for i in sorted(self.captured)
                if outer[i] and _group(self.spans[i][0]) == group]

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        self_time, outer = self._tree()

        def inclusive(group: str) -> tuple[float, int]:
            picked = [s[2] - s[1] for s, o in zip(spans, outer) if o and _group(s[0]) == group]
            return sum(picked), len(picked)

        def self_sum(name: str) -> float:
            return sum(t for s, t in zip(spans, self_time) if s[0] == name)

        evolves = self.captures("dynamics.evolve")
        out = {}
        out["counterdiabatic.h_eval_s"], out["counterdiabatic.h_eval_calls"] = inclusive(
            "counterdiabatic.h_eval")
        out["hamiltonians.h_eval_s"], out["hamiltonians.h_eval_calls"] = inclusive(
            "hamiltonians.h_eval")
        out["schedules.eta_calls"] = self.counts["schedules.eta_calls"]
        out["counterdiabatic.build_s"], out["counterdiabatic.build_calls"] = inclusive(
            "counterdiabatic.build")
        out["dynamics.evolve_s"] = self_sum("dynamics.evolve")
        out["dynamics.evolve_calls"] = len(evolves)
        out["dynamics.steps"] = sum(result.steps for _, result in evolves)
        out["dynamics.qsl_evolve_s"] = self_sum(QSL_EVOLVE)
        out["dynamics.norm_drift"] = max(
            (abs(_norm(result.final_state) - 1.0) for _, result in evolves), default=0.0)
        out["metrics.cost_s"], out["metrics.cost_calls"] = inclusive("metrics.cost")
        out["metrics.cost_points"] = sum(args["grid"] for args, _ in self.captures("metrics.cost"))
        out["linalg.self_s"] = self_sum("linalg")
        out["cli.self_s"] = self_sum("cli")
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "run": run}) + "\n")


def _group(name: str) -> str:
    return GROUP.get(name, name)


def _norm(psi) -> float:
    return float((abs(psi) ** 2).sum()) ** 0.5
