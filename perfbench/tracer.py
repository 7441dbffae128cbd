"""Run one dropoutlab invocation in process with per-layer spans and counters.

Usage: python3 perfbench/tracer.py STATS.json DROPOUTLAB-ARGS...

The tracer imports the package, replaces every traced function in every
module namespace that binds it (the modules use ``from .x import y``, so
``paradigms.train_logreg`` and ``cli.train_logreg`` are separate bindings),
calls ``dropoutlab.cli.main(argv)`` and writes the layer statistics as JSON.
No file of the program is changed; spans are timed around calls from outside.

A layer's call count is the number of calls into it from another module, so
a from-import binding the tracer missed leaves its layer's count short.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("dataset", "features", "linear", "paradigms", "evaluate", "deepnet", "cli")

# Per-student helpers run hundreds of thousands of times per pass; a wrapper
# around them would cost more than the work it measures.
UNTRACED = frozenset({"encode_demographics", "cumulative_clickstream", "days_since_last_action"})

# The solver entry point: its (iterations, converged) return is the only view
# of solver work from outside the linear layer.
PRIVATE_TRACED = frozenset({"_minimize"})

# Metric groups: inclusive time and call count of the outermost span among
# the named functions, so nested calls inside a group are not counted twice.
GROUPS = {
    "dataset.synth": {"synthesize_corpus", "synthesize_course"},
    "dataset.write": {"write_course"},
    "dataset.load": {"load_course_dir", "load_course"},
    "features.build_matrix": {"build_matrix"},
    "features.normalize": {"fit_zscore", "apply_zscore", "fit_percentile", "apply_percentile", "normalize"},
    "features.write_matrix": {"write_matrix"},
    "linear.fit": {"_minimize"},
    "linear.predict": {"predict_proba", "decision_values", "score_demographics"},
    "evaluate.auc": {"auc_values", "auc"},
    "evaluate.emit_report": {"emit_report"},
    "deepnet.cell": {"run_cell"},
    "deepnet.train_sgd": {"train_sgd"},
    "deepnet.grow_ops": {"net2wider", "net2deeper"},
}


class Tracer:
    """Spans kept in memory as per-layer totals; written once at the end."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.group_calls: Counter = Counter()
        self.group_s: defaultdict = defaultdict(float)
        self.fit_ms: list[float] = []
        self.fit_iters: list[int] = []
        self.nonconverged = 0
        self.fit_keys: set[str] = set()
        self.activity_rows = 0
        self.csv_bytes = 0
        self.sgd_steps = 0
        self.cells = 0

    def wrap(self, layer: str, fn):
        """Time fn, a function of `layer`; a call from another module enters the layer."""
        module = fn.__module__
        groups = [g for g, names in GROUPS.items() if fn.__name__ in names]
        observe = getattr(self, "_after_" + fn.__name__.lstrip("_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entering = sys._getframe(1).f_globals.get("__name__") != module
            self.stack.append([0.0])
            for g in groups:
                self.depth[g] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()[0]
                self.calls[layer] += entering
                self.self_s[layer] += dt - child
                if self.stack:
                    self.stack[-1][0] += dt
                for g in groups:
                    self.depth[g] -= 1
                    if self.depth[g] == 0:
                        self.group_calls[g] += 1
                        self.group_s[g] += dt
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result, dt)
            return result

        return traced

    # Counters read from the arguments and results of single calls.

    def _after_minimize(self, a, result, dt):
        _, _, iterations, converged = result
        self.fit_ms.append(dt * 1e3)
        self.fit_iters.append(int(iterations))
        self.nonconverged += not converged
        h = hashlib.blake2b(digest_size=16)
        for arr in (a["X"], a["y"]):
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(repr(float(a["C"])).encode())
        self.fit_keys.add(h.hexdigest())

    def _after_synthesize_course(self, a, result, dt):
        self.activity_rows += len(result.activity)

    def _after_load_course(self, a, result, dt):
        self.activity_rows += len(result.activity)
        self.csv_bytes += sum(Path(a[k]).stat().st_size for k in
                              ("meta_path", "demographics_path", "activity_path", "grades_path"))

    def _after_write_course(self, a, result, dt):
        self.csv_bytes += sum(p.stat().st_size for p in result.values())

    def _after_train_sgd(self, a, result, dt):
        n = len(getattr(a["X"], "values", a["X"]))
        cfg = a["cfg"]
        self.sgd_steps += cfg.epochs * math.ceil(n / cfg.minibatch_size)

    def _after_run_experiment(self, a, result, dt):
        self.cells += len(result.rows) + len(result.skipped)

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "group_calls": dict(self.group_calls),
            "group_s": dict(self.group_s),
            "fit_ms": self.fit_ms,
            "fit_iters": self.fit_iters,
            "nonconverged": self.nonconverged,
            "fit_keys": sorted(self.fit_keys),
            "activity_rows": self.activity_rows,
            "csv_bytes": self.csv_bytes,
            "sgd_steps": self.sgd_steps,
            "cells": self.cells,
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every layer namespace that binds it."""
    modules = [importlib.import_module(f"dropoutlab.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in PRIVATE_TRACED)
                    and name not in UNTRACED):
                wrappers[obj] = tracer.wrap(layer, obj)

    def wrapped(obj):
        return wrappers.get(obj) if isinstance(obj, types.FunctionType) else None

    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if (w := wrapped(obj)) is not None:
                setattr(mod, name, w)
            elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                for key, value in obj.items():
                    if (w := wrapped(value)) is not None:
                        obj[key] = w


def main(argv: list[str]) -> int:
    stats_path, args = Path(argv[0]), argv[1:]
    cli = importlib.import_module("dropoutlab.cli")
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(args)
    except SystemExit as e:  # argparse exits for --help and usage errors
        code = e.code if isinstance(e.code, int) else 1
    stats_path.write_text(json.dumps(tracer.stats()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
