"""Per-layer spans for the benchmark, recorded from outside the program.

``instrument`` wraps public fingerbci functions and rebinds every module
attribute that holds one of them (``ecoc.et_tune``, ``cli.decompose``, ...),
so calls made through any import name are recorded.  Nothing under ``src/``
is edited.  Spans carry their parent id; self time is a span's duration
minus the durations of its direct children.  Hot inner helpers (``_grow``,
``tree_predict``) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Reported span name -> (module, public function) pairs folded into it.
SPANS = {
    "dsp.decompose": [("dsp", "decompose")],
    "dsp.apply_filter": [("dsp", "apply_filter")],
    "csp.trial_covariance": [("csp", "trial_covariance")],
    "csp.extract_features_batch": [("csp", "extract_features_batch")],
    "csp.fit_csp_from_covariances": [("csp", "fit_csp_from_covariances")],
    "bandselect.score": [("bandselect", "score_bands_for_labels"), ("bandselect", "score_bands")],
    "extratrees.tune": [("extratrees", "tune")],
    "extratrees.fit": [("extratrees", "fit")],
    "extratrees.predict": [("extratrees", "predict")],
    "ecoc.fit_column": [("ecoc", "fit_column")],
    "ecoc.predict_trials": [("ecoc", "predict_trials")],
    "ecoc.decode": [("ecoc", "decode")],
    "ecoc.save_model": [("ecoc", "save_model")],
    "ecoc.load_model": [("ecoc", "load_model")],
    "evaluation.repeated_holdout": [("evaluation", "repeated_holdout")],
    "trialstore.save_dataset": [("trialstore", "save_dataset")],
    "trialstore.load_dataset": [("trialstore", "load_dataset")],
    "synthgen.generate": [("synthgen", "generate")],
}

# Wrapped only to feed counters; not reported as spans.
_COUNTER_ONLY = {"bandselect.select_bands": [("bandselect", "select_bands")]}

COUNTERS = {
    "dsp.filter_passes_per_trial_band": "ratio",
    "bandselect.cv_fold_fits": "count",
    "bandselect.selected_frac": "ratio",
    "extratrees.trees_grown": "count",
    "extratrees.nodes_grown": "count",
    "extratrees.kept_tree_frac": "ratio",
}


class NullTracer:
    """Stand-in used by the untraced run: phase spans cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """In-memory span recorder: ``[id, parent, name, start, end]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        # Observed objects are kept and measured in counters(), so counting
        # adds nothing to any span's self time.
        self.filter_inputs: list[tuple] = []
        self.fold_fits = 0
        self.selections: list = []
        self.forests_grown: list = []
        self.columns_fitted: list = []

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        row = [span_id, self._stack[-1] if self._stack else None, name, 0.0, 0.0]
        self.spans.append(row)
        self._stack.append(span_id)
        self._open[name] = self._open.get(name, 0) + 1
        row[3] = time.perf_counter()
        try:
            yield
        finally:
            row[4] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            entry = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return table

    def counters(self) -> dict[str, float]:
        pairs = {(_trial_key(trial), tuple(fir.band), fir.taps) for trial, fir in self.filter_inputs}
        trees_grown = sum(len(forest.trees) for forest in self.forests_grown)
        return {
            "dsp.filter_passes_per_trial_band": _ratio(len(self.filter_inputs), len(pairs)),
            "bandselect.cv_fold_fits": self.fold_fits,
            "bandselect.selected_frac": _ratio(
                sum(len(s.selected) for s in self.selections), sum(len(s.scores) for s in self.selections)
            ),
            "extratrees.trees_grown": trees_grown,
            "extratrees.nodes_grown": sum(
                _count_nodes(tree) for forest in self.forests_grown for tree in forest.trees
            ),
            "extratrees.kept_tree_frac": _ratio(
                sum(len(column.forest.trees) for column in self.columns_fitted), trees_grown
            ),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _trial_key(trial) -> tuple:
    # Identifies a trial by content, so a trial reloaded or re-wrapped by
    # subset_classes still counts as the same one.  A strided sample keeps
    # the key cheap next to the filtering it accounts for.
    samples = trial.samples
    return samples.shape, hash(samples[:, ::101].tobytes())


def _count_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return count


def _observe_filter(tracer: Tracer, args, result) -> None:
    # Only the workload's command counts: synthesis filters noise, and the
    # client itself predicts each test trial twice (single and batch).
    if tracer.inside("bench.command"):
        tracer.filter_inputs.append((args[0], args[1]))


def _observe_csp(tracer: Tracer, args, result) -> None:
    if tracer.inside("bandselect.score"):
        tracer.fold_fits += 1


# Called after a wrapped call returns, outside its span.
_OBSERVERS = {
    "dsp.apply_filter": _observe_filter,
    "csp.fit_csp_from_covariances": _observe_csp,
    "bandselect.select_bands": lambda tracer, args, result: tracer.selections.append(result),
    "extratrees.fit": lambda tracer, args, result: tracer.forests_grown.append(result),
    "ecoc.fit_column": lambda tracer, args, result: tracer.columns_fitted.append(result),
}


@contextmanager
def instrument(tracer: Tracer):
    """Route every import name of the listed functions through ``tracer``.

    Functions that a later version of the program no longer defines are
    skipped, and their spans report zero calls.
    """
    replacements = {}
    for name, targets in {**SPANS, **_COUNTER_ONLY}.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"fingerbci.{module_name}")
            original = getattr(module, attr, None)
            if original is not None:
                replacements[id(original)] = (original, tracer.wrap(name, original))
    rebound = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "fingerbci" and not module_name.startswith("fingerbci."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
