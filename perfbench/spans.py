"""Span tracing of the sflr layers from outside the package.

``Tracer.install`` replaces every public function of the traced sflr
modules with a timing wrapper, at every module that binds it (modules
import with ``from .x import f``, so ``design.gram_block`` and
``basis.gram_block`` are separate bindings of one function). It also
replaces the ``ThreadPoolExecutor`` binding of the modules that run pools,
so a span opened in a pool thread finds its parent: the innermost open span
of the thread that submitted the work. ``Tracer.remove`` puts every
original binding back. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import warnings
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# Modules whose public functions are wrapped, in the order they are layered.
LAYERS = ("basis", "design", "solver", "tuning", "simulate", "model",
          "metrics", "dataio", "cli")

# Per-layer metrics: name -> unit. Every traced run reports all of them.
PER_LAYER_UNITS = {
    "basis.eval_basis_many.calls": "calls/op",
    "basis.eval_basis_many.points": "points/op",
    "basis.eval_basis_many.self_s": "s/op",
    "basis.eval_basis_many.bytes_out": "B/op-computed",
    "basis.gram_block.calls": "calls/op",
    "basis.gram_block.self_s": "s/op",
    "design.build_design.calls": "calls/op",
    "design.build_design.self_s": "s/op",
    "design.compute_U.calls": "calls/op",
    "design.compute_U.self_s": "s/op",
    "solver.fit.calls": "calls/op",
    "solver.fit.self_s": "s/op",
    "solver.fit_initial.self_s": "s/op",
    "solver.newton_step.calls": "calls/op",
    "solver.newton_step.self_s": "s/op",
    "solver.newton_step.mean_s": "s",
    "solver.lqa_weight_matrix.self_s": "s/op",
    "solver.interval_norms.self_s": "s/op",
    "solver.log_likelihood.calls": "calls/op",
    "solver.newton_iters": "iters/op",
    "solver.step_accept_ratio": "ratio",
    "solver.converged_ratio": "ratio",
    "solver.lstsq_fallbacks": "count/op",
    "solver.degenerate_labels": "count/op",
    "tuning.tune.calls": "calls/op",
    "tuning.tune.self_s": "s/op",
    "tuning.tune.concurrency": "ratio",
    "tuning.grid_converged_ratio": "ratio",
    "simulate.run_replicate.calls": "calls/op",
    "simulate.run_replicate.self_s": "s/op",
    "simulate.replicate_experiment.concurrency": "ratio",
    "simulate.failed_replicates": "count/op",
    "model.predict_proba.self_s": "s/op",
    "model.beta_hat.self_s": "s/op",
    "model.save.self_s": "s/op",
    "model.load.self_s": "s/op",
    "metrics.ise.self_s": "s/op",
    "metrics.classification_metrics.self_s": "s/op",
    "dataio.read_dataset.calls": "calls/op",
    "dataio.read_dataset.bytes": "B/op",
    "dataio.read_dataset.self_s": "s/op",
    "dataio.write_dataset.calls": "calls/op",
    "dataio.write_dataset.bytes": "B/op",
    "dataio.write_dataset.self_s": "s/op",
    "cli.main.calls": "calls/op",
    "cli.main.self_s": "s/op",
}

# RuntimeWarning message prefixes sflr emits, and the counter each feeds.
_WARNING_COUNTERS = (
    ("ill-conditioned Newton system", "lstsq_fallbacks"),
    ("all labels identical", "degenerate_labels"),
    ("replicate ", "failed_replicates"),
)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of it covered
    by its child spans. Children may run in other threads and overlap."""
    children = defaultdict(list)
    for sid, _, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - union_length(children[sid], t0, t1)
            for sid, _, _, _, t0, t1 in spans}


class Tracer:
    """Records spans ``(id, name, parent_id, thread_id, start, end)`` and
    layer counters while installed; ``summary`` turns them into the
    per-layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.wall: Counter = Counter()
        self.child_wall: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent,
                                     threading.get_ident(), t0, t1))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _executor_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedThreadPoolExecutor

    # -- installing and removing ------------------------------------------
    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules at every
        binding inside the package, and trace its thread pools."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = sflr_modules(package)
        replacements = {}
        for layer in LAYERS:
            mod = modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replacements[id(fn)] = self._wrap(name, fn,
                                                      _OBSERVERS.get(name))
        executor = self._executor_class()
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is ThreadPoolExecutor:
                    new = executor
                elif id(value) in replacements:
                    new = replacements[id(value)]
                else:
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, new)

    def remove(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def on_warning(self, message, category, *args, **kwargs):
        """``warnings.showwarning`` hook: count sflr's RuntimeWarnings."""
        text = str(message)
        for prefix, key in _WARNING_COUNTERS:
            if issubclass(category, RuntimeWarning) and text.startswith(prefix):
                self.count(key)
                return
        self.count("other_warnings")

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` with every RuntimeWarning shown (the default filter
        shows a location once) and routed to ``on_warning``."""
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = self.on_warning
            return fn(*args, **kwargs)

    # -- aggregation ----------------------------------------------------------
    def fold(self) -> None:
        """Add the recorded spans to the per-function totals and drop them,
        so memory stays bounded over a run. Call it between ops."""
        spans, self.spans = self.spans, []
        selfs = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        for sid, name, parent, _, t0, t1 in spans:
            self.calls[name] += 1
            self.self_s[name] += selfs[sid]
            self.wall[name] += t1 - t0
            if parent in names:
                self.child_wall[(names[parent], name)] += t1 - t0

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics per op over every folded span and counter."""
        self.fold()
        calls, self_s, c = self.calls, self.self_s, self.counters
        out = {}
        for key in PER_LAYER_UNITS:
            head, _, stat = key.rpartition(".")
            if stat == "calls":
                out[key] = calls[head] / n_ops
            elif stat == "self_s":
                out[key] = self_s[head] / n_ops
            elif stat == "mean_s":
                out[key] = _ratio(self_s[head], calls[head])
        out["basis.eval_basis_many.points"] = c["points"] / n_ops
        out["basis.eval_basis_many.bytes_out"] = c["bytes_out"] / n_ops
        out["solver.newton_iters"] = c["newton_iters"] / n_ops
        out["solver.step_accept_ratio"] = _ratio(
            c["accepted_steps"], calls["solver.log_likelihood"])
        out["solver.converged_ratio"] = _ratio(c["converged"], calls["solver.fit"])
        out["solver.lstsq_fallbacks"] = c["lstsq_fallbacks"] / n_ops
        out["solver.degenerate_labels"] = c["degenerate_labels"] / n_ops
        out["tuning.tune.concurrency"] = _ratio(
            self.child_wall[("tuning.tune", "solver.fit")],
            self.wall["tuning.tune"])
        out["tuning.grid_converged_ratio"] = _ratio(
            c["grid_converged"], c["grid_points"])
        out["simulate.replicate_experiment.concurrency"] = _ratio(
            self.child_wall[("simulate.replicate_experiment",
                             "simulate.run_replicate")],
            self.wall["simulate.replicate_experiment"])
        out["simulate.failed_replicates"] = c["failed_replicates"] / n_ops
        out["dataio.read_dataset.bytes"] = c["read_bytes"] / n_ops
        out["dataio.write_dataset.bytes"] = c["write_bytes"] / n_ops
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sflr_modules(package) -> dict:
    """The package and every loaded submodule of it, by name."""
    prefix = package.__name__ + "."
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == package.__name__ or name.startswith(prefix))}


# -- observers: counts taken from a traced call's arguments and result ------

def _observe_eval_basis_many(tracer, args, kwargs, result):
    # bytes_out is computed, points x L x 8, not measured traffic
    tracer.count("points", result.shape[0])
    tracer.count("bytes_out", result.shape[0] * result.shape[1] * 8)


def _observe_fit(tracer, args, kwargs, result):
    tracer.count("newton_iters", result.iterations)
    tracer.count("accepted_steps", max(len(result.objective_trace) - 1, 0))
    tracer.count("converged", int(bool(result.converged)))


def _observe_tune(tracer, args, kwargs, result):
    tracer.count("grid_points", len(result.table))
    tracer.count("grid_converged", sum(bool(r["converged"]) for r in result.table))


def _observe_read(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("read_bytes", os.path.getsize(path))


def _observe_write(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("write_bytes", os.path.getsize(path))


_OBSERVERS = {
    "basis.eval_basis_many": _observe_eval_basis_many,
    "solver.fit": _observe_fit,
    "tuning.tune": _observe_tune,
    "dataio.read_dataset": _observe_read,
    "dataio.write_dataset": _observe_write,
}
