"""Layer tracer: span recording around every function of the renyivar layers.

The tracer wraps each function (and each hand-written method of a class)
defined in a layer module, then rebinds the wrapper under every name that
holds the original in any ``renyivar`` module namespace.  Calls between
modules of the package (``from .spectral import classes``) and calls inside
one module (``_solve`` recursing into itself) therefore go through the
wrapper too.  Module-level containers that captured a function object at
import (the CLI's command table) keep the original; those calls are timed as
part of the calling span, which lies in the same layer.

Spans are kept in flat arrays (function id, parent span, op id, start, end)
and summarised when tracing ends:

* the self time of a span is its duration minus the durations of its direct
  child spans; a layer's self time sums the self times of its spans;
* a *stage* (a named function such as ``spectral._tropical_balance``) also
  owns the self time of same-layer helpers it calls that are not stages
  themselves, so ``classes`` includes Tarjan's search.

A stage whose function no longer exists is reported as absent, with zero
calls and time, instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from functools import wraps

import numpy as np

PACKAGE = "renyivar"

LAYERS = (
    "numerics",
    "distributions",
    "variational",
    "spectral",
    "markov",
    "markov_variational",
    "oracles",
    "cli",
)

# Metric prefix -> (layer, function name).  The ROADMAP's spectral stages.
STAGES = {
    "spectral.classes": ("spectral", "classes"),
    "spectral.tropical_balance": ("spectral", "_tropical_balance"),
    "spectral.power_iteration": ("spectral", "_power_iteration"),
    "spectral.perron_from_log": ("spectral", "perron_from_log"),
    "spectral.growth_rate_from_log": ("spectral", "growth_rate_from_log"),
}


def _own_functions(module):
    """(qualified name, owner, attribute, function) for code written in the module."""
    path = module.__file__
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__code__.co_filename == path:
            yield name, module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and member.__code__.co_filename == path:
                    yield f"{name}.{attr}", obj, attr, member


class Tracer:
    """Context manager that records spans of every layer function while active.

    Set ``op`` to the index of the op being run before each op, so its spans
    share that identifier.
    """

    def __init__(self, stages=STAGES) -> None:
        self.stages = dict(stages)
        self.op = -1
        self.layer_of: list[int] = []
        self.stage_of: list[int] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fid: int, fn):
        fns, parents, ops, starts, ends = self.fn, self.parent, self.op_of, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        stage_ids = {target: k for k, target in enumerate(self.stages.values())}
        wrappers: dict[int, object] = {}
        found: set[tuple[str, str]] = set()
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for qualname, owner, attr, fn in _own_functions(module):
                fid = len(self.layer_of)
                self.layer_of.append(layer_index)
                self.stage_of.append(stage_ids.get((layer, qualname), -1))
                found.add((layer, qualname))
                wrapper = self._wrap(fid, fn)
                wrappers[id(fn)] = (fn, wrapper)
                if owner is not module:
                    self._patch(owner, attr, wrapper)
        self.absent = [name for name, target in self.stages.items() if target not in found]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, n_ops: int, wall_s: float) -> dict[str, float]:
        """Per-layer and per-stage metrics over everything recorded so far.

        ``wall_s`` is the traced wall time of the ops, the base of each
        layer's ``share``.
        """
        n = len(self.fn)
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        span_layer = np.asarray(self.layer_of, dtype=np.int64)[fn]
        n_layers = len(LAYERS)
        layer_calls = np.bincount(span_layer, minlength=n_layers)
        layer_self = np.bincount(span_layer, weights=self_time, minlength=n_layers)

        # A span's owning stage: its own, else its parent's if same layer.
        stage_of = self.stage_of
        owner = [-1] * n
        fn_list, parent_list = fn.tolist(), parent.tolist()
        for i in range(n):
            s = stage_of[fn_list[i]]
            if s < 0:
                p = parent_list[i]
                if p >= 0 and self.layer_of[fn_list[p]] == self.layer_of[fn_list[i]]:
                    s = owner[p]
            owner[i] = s
        owner_arr = np.asarray(owner, dtype=np.int64)
        span_is_stage = np.asarray(stage_of, dtype=np.int64)[fn]

        metrics: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            metrics[f"{layer}.calls"] = int(layer_calls[k])
            metrics[f"{layer}.self_s"] = float(layer_self[k])
            metrics[f"{layer}.share"] = float(layer_self[k] / wall_s) if wall_s > 0 else 0.0
        for k, name in enumerate(self.stages):
            owned = owner_arr == k
            calls = int(np.count_nonzero(span_is_stage == k))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = float(self_time[owned].sum())
            metrics[f"{name}.per_op"] = calls / n_ops if n_ops else 0.0
        return metrics
