"""Span tracing for the benchmark's traced run.

The tracer wraps gbmixed's public functions from outside the package: each
target is replaced, for the duration of the run, at the name its caller looks
up (``gbmixed.boosting.fit_learner`` rather than ``gbmixed.learners``, since
``boosting`` imported the function into its own namespace). Every call
records one span (name, start, end, parent) in memory plus any counts taken
from its arguments or result. Per-layer metrics are derived from the spans
of one repetition; a span's self time is its duration minus that of its
direct children.

A target that no longer exists (renamed or deleted by a refactor) is not an
error: the layer metrics that depend on it are reported as absent and the
run continues. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(arg_index):
    return lambda args, kwargs, result: len(args[arg_index])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (object path, attribute, span name, counter or None). A counter maps
# (args, kwargs, result) to a number added to the span name's count.
TARGETS = (
    ("gbmixed.simulate", "generate", "simulate.generate", None),
    ("gbmixed.data", "load_csv", "data.load_csv", lambda a, k, r: r.n_obs),
    ("gbmixed.boosting", "fit", "boosting.fit", None),
    ("gbmixed.boosting", "fit_learner", "learners.fit", _rows(1)),
    ("gbmixed.likelihood", "batched_quantities", "likelihood.kernel", _rows(0)),
    ("gbmixed.likelihood", "group_gradients", "likelihood.fallback", None),
    ("gbmixed.likelihood", "group_loglik", "likelihood.fallback", None),
    ("gbmixed.learners.TreeLearner", "predict", "learners.predict", _rows(1)),
    ("gbmixed.learners.LinearLearner", "predict", "learners.predict", _rows(1)),
    ("gbmixed.learners.ConstantLearner", "predict", "learners.predict", _rows(1)),
    ("gbmixed.model_io", "save_model", "model_io.save", _file_bytes),
    ("gbmixed.model_io", "load_model", "model_io.load", None),
    ("gbmixed.prediction", "predict_dataset", "prediction.predict_dataset", None),
    ("gbmixed.prediction", "blup", "prediction.blup", None),
    ("gbmixed.prediction", "chol_with_jitter", "likelihood.chol", None),
    ("gbmixed.prediction", "cate", "prediction.effects", None),
    ("gbmixed.prediction", "ite_variance", "prediction.effects", None),
    ("gbmixed.simulate", "cate", "prediction.effects", None),
    ("gbmixed.simulate", "ite_variance", "prediction.effects", None),
    ("gbmixed.prediction", "eval_mean", "boosting.eval", _rows(1)),
    ("gbmixed.prediction", "eval_resid_var", "boosting.eval", _rows(1)),
    ("gbmixed.prediction", "eval_gcov_rows", "boosting.eval", _rows(1)),
    ("gbmixed.diagnostics", "eval_mean", "boosting.eval", _rows(1)),
    ("gbmixed.diagnostics", "eval_resid_var", "boosting.eval", _rows(1)),
    ("gbmixed.diagnostics", "eval_gcov_rows", "boosting.eval", _rows(1)),
    ("gbmixed.simulate", "eval_resid_var", "boosting.eval", _rows(1)),
    ("gbmixed.simulate", "eval_gcov_rows", "boosting.eval", _rows(1)),
    ("gbmixed.simulate", "score", "simulate.score", None),
    ("gbmixed.diagnostics", "partial_dependence", "diagnostics.explain", None),
    ("gbmixed.diagnostics", "variable_importance", "diagnostics.explain", None),
)

def _resolve(path: str):
    """Module or module attribute named by a dotted path, or None if gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """In-memory span recorder that wraps call targets while installed."""

    def __init__(self):
        self.spans: list = []            # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)  # span name -> summed counter
        self.absent: set = set()         # span names with a missing target
        self.enabled = False
        self._stack: list = []
        self._undo: list = []

    def install(self) -> None:
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        rec["count"] = counter(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError, OSError):
                        # the call's shape changed under a refactor
                        tracer.absent.add(name)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields a dict for an optional count."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        rec = {}
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]
            if "count" in rec:
                self.counts[name] += rec["count"]

    @contextmanager
    def active(self, phase: str):
        """Trace the body as one benchmark phase."""
        self.enabled = True
        try:
            with self.span(phase):
                yield
        finally:
            self.enabled = False

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


# Derived metric -> (unit, span names it needs). Metrics whose spans include
# an absent target are left out of the result.
LAYER_METRICS = {
    "likelihood.kernel_s": ("s", ("likelihood.kernel",)),
    "likelihood.kernel_calls": ("count", ("likelihood.kernel",)),
    "likelihood.kernel_groups": ("count", ("likelihood.kernel",)),
    "likelihood.groups_per_call": ("groups", ("likelihood.kernel",)),
    "likelihood.kernel_share_of_fit": ("ratio", ("likelihood.kernel", "boosting.fit")),
    "likelihood.fallback_groups": ("count", ("likelihood.fallback",)),
    "likelihood.chol_s": ("s", ("likelihood.chol",)),
    "likelihood.chol_calls": ("count", ("likelihood.chol",)),
    "learners.fit_s": ("s", ("learners.fit",)),
    "learners.fit_calls": ("count", ("learners.fit",)),
    "learners.fit_rows": ("count", ("learners.fit",)),
    "learners.fit_share_of_fit": ("ratio", ("learners.fit", "boosting.fit")),
    "learners.predict_s": ("s", ("learners.predict",)),
    "learners.predict_calls": ("count", ("learners.predict",)),
    "learners.rows_per_predict": ("rows", ("learners.predict",)),
    "learners.predict_share_of_infer": ("ratio", ("learners.predict",)),
    "boosting.fit_s": ("s", ("boosting.fit",)),
    "boosting.fit_self_s": ("s", ("boosting.fit", "learners.fit", "likelihood.kernel",
                                  "likelihood.fallback", "learners.predict")),
    "boosting.eval_s": ("s", ("boosting.eval",)),
    "boosting.eval_calls": ("count", ("boosting.eval",)),
    "boosting.eval_rows": ("count", ("boosting.eval",)),
    "prediction.predict_dataset_s": ("s", ("prediction.predict_dataset",)),
    "prediction.blup_s": ("s", ("prediction.blup",)),
    "prediction.blup_calls": ("count", ("prediction.blup",)),
    "prediction.effects_s": ("s", ("prediction.effects",)),
    "diagnostics.explain_s": ("s", ("diagnostics.explain",)),
    "model_io.save_s": ("s", ("model_io.save",)),
    "model_io.load_s": ("s", ("model_io.load",)),
    "model_io.bytes": ("B", ("model_io.save",)),
    "data.load_csv_s": ("s", ("data.load_csv",)),
    "data.load_csv_rows": ("count", ("data.load_csv",)),
    "simulate.generate_s": ("s", ("simulate.generate",)),
    "simulate.score_s": ("s", ("simulate.score",)),
}


def layer_metrics(spans, counts, absent=frozenset()) -> dict:
    """Per-layer numbers of one repetition from its spans and counts."""
    busy = defaultdict(float)        # name -> summed duration
    calls = defaultdict(int)
    child_time = defaultdict(float)  # span index -> duration of direct children
    root_of = []                     # span index -> index of its root phase span
    in_infer = defaultdict(float)    # name -> duration spent under phase.infer
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        busy[name] += dur
        calls[name] += 1
        root_of.append(i if parent < 0 else root_of[parent])
        if parent >= 0:
            child_time[parent] += dur
        if spans[root_of[i]][0] == "phase.infer":
            in_infer[name] += dur

    def per(a, b):
        return a / b if b > 0 else 0.0

    fit_s = busy["boosting.fit"]
    values = {
        "likelihood.kernel_s": busy["likelihood.kernel"],
        "likelihood.kernel_calls": calls["likelihood.kernel"],
        "likelihood.kernel_groups": counts.get("likelihood.kernel", 0.0),
        "likelihood.groups_per_call": per(counts.get("likelihood.kernel", 0.0), calls["likelihood.kernel"]),
        "likelihood.kernel_share_of_fit": per(busy["likelihood.kernel"], fit_s),
        "likelihood.fallback_groups": calls["likelihood.fallback"],
        "likelihood.chol_s": busy["likelihood.chol"],
        "likelihood.chol_calls": calls["likelihood.chol"],
        "learners.fit_s": busy["learners.fit"],
        "learners.fit_calls": calls["learners.fit"],
        "learners.fit_rows": counts.get("learners.fit", 0.0),
        "learners.fit_share_of_fit": per(busy["learners.fit"], fit_s),
        "learners.predict_s": busy["learners.predict"],
        "learners.predict_calls": calls["learners.predict"],
        "learners.rows_per_predict": per(counts.get("learners.predict", 0.0), calls["learners.predict"]),
        "learners.predict_share_of_infer": per(in_infer["learners.predict"], busy["phase.infer"]),
        "boosting.fit_s": fit_s,
        "boosting.fit_self_s": sum(
            (end - start) - child_time[i]
            for i, (name, start, end, _) in enumerate(spans)
            if name == "boosting.fit"
        ),
        "boosting.eval_s": busy["boosting.eval"],
        "boosting.eval_calls": calls["boosting.eval"],
        "boosting.eval_rows": counts.get("boosting.eval", 0.0),
        "prediction.predict_dataset_s": busy["prediction.predict_dataset"],
        "prediction.blup_s": busy["prediction.blup"],
        "prediction.blup_calls": calls["prediction.blup"],
        "prediction.effects_s": busy["prediction.effects"],
        "diagnostics.explain_s": busy["diagnostics.explain"],
        "model_io.save_s": busy["model_io.save"],
        "model_io.load_s": busy["model_io.load"],
        "model_io.bytes": counts.get("model_io.save", 0.0),
        "data.load_csv_s": busy["data.load_csv"],
        "data.load_csv_rows": counts.get("data.load_csv", 0.0),
        "simulate.generate_s": busy["simulate.generate"],
        "simulate.score_s": busy["simulate.score"],
    }
    return {
        name: float(values[name])
        for name, (_, needs) in LAYER_METRICS.items()
        if not absent.intersection(needs)
    }
