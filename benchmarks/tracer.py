"""Outside-in tracing: spans around the package's public functions.

The traced run replaces module attributes that callers look up at call
time (``fuzzml.optimizer.update_mixing``, ``fuzzml.experiments.train``
...) with wrappers that record a span: name, start, end, parent and
thread. Nothing inside the package changes. Spans stay in memory and
are written out when the run ends.

A span's self time is its duration minus the part of it covered by its
child spans. Work the tracer itself does inside a span (hashing inputs,
computing residuals) runs in a ``trace.*`` child span, so it is
excluded from every layer's self time and shows up only as overhead.
"""

import hashlib
import itertools
import json
import threading
import time
from collections import defaultdict
from statistics import median

import numpy as np

from fuzzml import experiments, metrics, optimizer, predictor


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "thread", "pass_index", "data")

    def __init__(self, span_id, parent, name, thread, pass_index):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.pass_index = pass_index
        self.start = time.perf_counter()
        self.end = None
        self.data = {}


class Tracer:
    """Records spans from wrapped functions; ``install`` and ``uninstall`` wrap and restore.

    Spans opened on a worker thread with nothing open on that thread get
    the innermost open ``fan_out`` span (``experiments.run_cv``) as parent,
    so fold work on the thread pool is attributed to the run that started it.
    """

    def __init__(self):
        self.spans = []
        self.pass_index = 0
        self.wrapped = []
        self.skipped = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fan_out = []
        self._originals = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        elif self._fan_out:
            parent = self._fan_out[-1].span_id
        else:
            parent = None
        span = Span(next(self._ids), parent, name, threading.get_ident(), self.pass_index)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)

    def _wrap(self, name, fn, before, after, fan_out):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if before is not None:
                inner = tracer.open("trace.inspect")
                before(span, args)
                tracer.close(inner)
            if fan_out:
                tracer._fan_out.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.data["error"] = True
                tracer.close(span)
                raise
            finally:
                if fan_out:
                    tracer._fan_out.remove(span)
            if after is not None:
                inner = tracer.open("trace.inspect")
                after(span, args, result)
                tracer.close(inner)
            tracer.close(span)
            return result

        return wrapper

    def install(self, targets):
        """Wrap each (module, attribute, span name, before, after, fan_out) target.

        A target whose attribute no longer exists is skipped and listed in
        ``skipped``, so the tracer keeps working when a later version of
        the package deletes a function.
        """
        for module, attr, name, before, after, fan_out in targets:
            label = "%s.%s" % (module.__name__, attr)
            fn = getattr(module, attr, None)
            if fn is None:
                self.skipped.append(label)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, before, after, fan_out))
            self.wrapped.append(label)

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def dump(self, path):
        payload = {
            "wrapped": self.wrapped,
            "skipped": self.skipped,
            "columns": ["id", "parent", "name", "start", "end", "thread", "pass"],
            "spans": [[s.span_id, s.parent, s.name, s.start, s.end, s.thread, s.pass_index]
                      for s in sorted(self.spans, key=lambda s: s.span_id)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- inspection hooks: run inside a trace.inspect span --------------------


def _fuzzify_key(span, args):
    features, rulebase = args
    h = hashlib.blake2b(digest_size=16)
    for array in (features, rulebase.centers, rulebase.widths):
        a = np.ascontiguousarray(array, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    span.data["key"] = h.hexdigest()
    span.data["columns"] = int(np.shape(features)[1])


def _train_result(span, args, result):
    span.data["iterations"] = result[1].n_iterations


def _sylvester_result(span, args, result):
    a, b, z = (np.asarray(m, dtype=np.float64) for m in args[:3])
    num = np.linalg.norm(a @ result + result @ b - z)
    span.data["residual"] = float(num / max(np.linalg.norm(z), np.finfo(np.float64).tiny))
    span.data["unknowns"] = int(z.size)


def _grid_result(span, args, result):
    span.data["winner"] = (result.best.alpha, result.best.n_rules)


def targets():
    """Every public function the traced run wraps, at its callers' lookup site."""
    t = []

    def add(module, attr, name, before=None, after=None, fan_out=False):
        t.append((module, attr, name, before, after, fan_out))

    add(optimizer, "train", "optimizer.train", after=_train_result)
    add(experiments, "train", "optimizer.train", after=_train_result)
    add(optimizer, "normalize_features", "dataset.normalize")
    add(predictor, "apply_norm", "dataset.normalize")
    add(experiments, "kfold_split", "dataset.split")
    add(experiments, "take_samples", "dataset.split")
    add(optimizer, "fit_antecedents", "rules.fit_antecedents")
    add(optimizer, "fuzzy_feature_matrix", "rules.fuzzify", before=_fuzzify_key)
    add(predictor, "fuzzy_feature_matrix", "rules.fuzzify", before=_fuzzify_key)
    add(optimizer, "update_consequents", "optimizer.update_consequents")
    add(optimizer, "update_mixing", "optimizer.update_mixing")
    add(optimizer, "reweight_diagonals", "optimizer.reweight")
    add(optimizer, "correlation_laplacian", "optimizer.laplacian")
    add(optimizer, "objective", "optimizer.objective")
    add(optimizer, "stopping_loss", "optimizer.stopping_loss")
    add(optimizer, "solve_sylvester", "sylvester.solve", after=_sylvester_result)
    add(optimizer, "least_norm_solve", "sylvester.least_norm", after=_sylvester_result)
    add(predictor, "score", "predictor.score")
    add(experiments, "score", "predictor.score")
    add(metrics, "evaluate", "metrics.evaluate")
    add(experiments, "evaluate", "metrics.evaluate")
    add(metrics, "average_precision", "metrics.average_precision")
    add(metrics, "ranking_loss", "metrics.ranking_loss")
    add(metrics, "coverage", "metrics.coverage")
    add(metrics, "hamming_loss", "metrics.hamming_loss")
    add(experiments, "run_cv", "experiments.run_cv", fan_out=True)
    add(experiments, "run_grid", "experiments.run_grid", after=_grid_result)
    return t


# -- per-layer metrics ------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to its duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.span_id: (s.end - s.start) - _covered(children[s.span_id]) for s in spans}


LAYER_METRICS = (
    ("dataset.normalize_s", "s"),
    ("dataset.split_s", "s"),
    ("rules.fit_antecedents_s", "s"),
    ("rules.fuzzify_s", "s"),
    ("rules.fuzzify_calls", "count"),
    ("rules.fuzzify_columns", "count"),
    ("rules.fuzzify_distinct_ratio", "1"),
    ("optimizer.train_self_s", "s"),
    ("optimizer.update_consequents_s", "s"),
    ("optimizer.update_mixing_s", "s"),
    ("optimizer.reweight_s", "s"),
    ("optimizer.laplacian_s", "s"),
    ("optimizer.objective_s", "s"),
    ("optimizer.stopping_loss_s", "s"),
    ("optimizer.reweight_calls_per_iter", "1"),
    ("optimizer.laplacian_calls_per_iter", "1"),
    ("optimizer.iterations", "count"),
    ("optimizer.nondescending_steps", "count"),
    ("optimizer.stop_reason.margin", "count"),
    ("optimizer.stop_reason.max_iters", "count"),
    ("optimizer.stop_reason.nonpositive_loss", "count"),
    ("sylvester.solve_s", "s"),
    ("sylvester.least_norm_s", "s"),
    ("sylvester.calls.schur", "count"),
    ("sylvester.calls.least_norm", "count"),
    ("sylvester.mixing_s_per_call", "s"),
    ("sylvester.max_rel_residual", "1"),
    ("sylvester.kron_bytes_computed", "B"),
    ("predictor.score_self_s", "s"),
    ("metrics.average_precision_s", "s"),
    ("metrics.ranking_loss_s", "s"),
    ("metrics.coverage_s", "s"),
    ("metrics.hamming_loss_s", "s"),
    ("metrics.evaluate_self_s", "s"),
    ("experiments.run_cv_s", "s"),
    ("experiments.train_calls", "count"),
    ("experiments.busy_ratio", "1"),
    ("experiments.winner_alpha", "1"),
    ("experiments.winner_rules", "count"),
)

# Layer seconds and call counts are per pass of the workload.
_SELF_SECONDS = {
    "dataset.normalize_s": "dataset.normalize",
    "dataset.split_s": "dataset.split",
    "rules.fit_antecedents_s": "rules.fit_antecedents",
    "rules.fuzzify_s": "rules.fuzzify",
    "optimizer.train_self_s": "optimizer.train",
    "optimizer.update_consequents_s": "optimizer.update_consequents",
    "optimizer.update_mixing_s": "optimizer.update_mixing",
    "optimizer.reweight_s": "optimizer.reweight",
    "optimizer.laplacian_s": "optimizer.laplacian",
    "optimizer.objective_s": "optimizer.objective",
    "optimizer.stopping_loss_s": "optimizer.stopping_loss",
    "sylvester.solve_s": "sylvester.solve",
    "sylvester.least_norm_s": "sylvester.least_norm",
    "predictor.score_self_s": "predictor.score",
    "metrics.average_precision_s": "metrics.average_precision",
    "metrics.ranking_loss_s": "metrics.ranking_loss",
    "metrics.coverage_s": "metrics.coverage",
    "metrics.hamming_loss_s": "metrics.hamming_loss",
    "metrics.evaluate_self_s": "metrics.evaluate",
}


def stop_metrics(trace) -> dict:
    """Iterations, non-descending steps and stop reason of one TrainTrace."""
    totals = trace.stopping_totals
    out = {
        "optimizer.iterations": trace.n_iterations,
        "optimizer.nondescending_steps": sum(1 for a, b in zip(totals, totals[1:]) if b >= a),
    }
    for reason in ("margin", "max_iters", "nonpositive_loss"):
        out["optimizer.stop_reason." + reason] = int(trace.stop_reason == reason)
    return out


def layer_metrics(spans, n_passes: int, workers: int, default_trace) -> dict:
    """Per-layer numbers from the spans of ``n_passes`` traced passes.

    The timed trains run to the iteration budget, so the iteration count,
    the non-descending steps and the stop reason come from
    ``default_trace``, the TrainTrace of one untimed default-config train.
    """
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for metric, name in _SELF_SECONDS.items():
        out[metric] = sum(selfs[s.span_id] for s in by_name[name]) / n_passes

    fuzzify = by_name["rules.fuzzify"]
    out["rules.fuzzify_calls"] = len(fuzzify) / n_passes
    out["rules.fuzzify_columns"] = sum(s.data["columns"] for s in fuzzify) / n_passes
    ratios = []
    for index in sorted({s.pass_index for s in fuzzify}):
        keys = [s.data["key"] for s in fuzzify if s.pass_index == index]
        ratios.append(len(set(keys)) / len(keys))
    out["rules.fuzzify_distinct_ratio"] = median(ratios) if ratios else 0.0

    trains = [s for s in by_name["optimizer.train"] if "iterations" in s.data]
    iterations = sum(s.data["iterations"] for s in trains)
    per_iter = max(iterations, 1)
    out["optimizer.reweight_calls_per_iter"] = len(by_name["optimizer.reweight"]) / per_iter
    out["optimizer.laplacian_calls_per_iter"] = len(by_name["optimizer.laplacian"]) / per_iter
    if default_trace is not None:  # None when that train raised
        out.update(stop_metrics(default_trace))

    solves = by_name["sylvester.solve"] + by_name["sylvester.least_norm"]
    out["sylvester.calls.schur"] = len(by_name["sylvester.solve"]) / n_passes
    out["sylvester.calls.least_norm"] = len(by_name["sylvester.least_norm"]) / n_passes
    mixing = [s for s in solves
              if s.parent in by_id and by_id[s.parent].name == "optimizer.update_mixing"]
    out["sylvester.mixing_s_per_call"] = (
        sum(selfs[s.span_id] for s in mixing) / len(mixing) if mixing else 0.0)
    out["sylvester.max_rel_residual"] = max(
        (s.data["residual"] for s in solves if "residual" in s.data), default=0.0)
    # computed, not measured: the dense (mn x mn) system is built once per call
    out["sylvester.kron_bytes_computed"] = sum(
        s.data["unknowns"] ** 2 * 8 for s in by_name["sylvester.least_norm"]
        if "unknowns" in s.data) / n_passes

    runs = by_name["experiments.run_cv"]
    out["experiments.run_cv_s"] = sum(s.end - s.start for s in runs) / n_passes
    run_ids = {s.span_id for s in runs}
    out["experiments.train_calls"] = sum(
        1 for s in by_name["optimizer.train"] if s.parent in run_ids) / n_passes
    busy = sum(s.end - s.start for s in spans if s.parent in run_ids)
    capacity = sum(s.end - s.start for s in runs) * workers
    out["experiments.busy_ratio"] = busy / capacity if capacity > 0 else 0.0
    # the grid winner of the last traced run_grid; 0 on workloads without one
    grids = [s for s in by_name["experiments.run_grid"] if "winner" in s.data]
    alpha, rules = grids[-1].data["winner"] if grids else (0.0, 0)
    out["experiments.winner_alpha"] = alpha
    out["experiments.winner_rules"] = rules
    return {name: out[name] for name, _ in LAYER_METRICS if name in out}
