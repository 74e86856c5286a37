"""Benchmark of the fuzzml learner: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload tall --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout. One run
generates the workload from ``--seed``, sets up several times (import,
data generation, warm-up) and reports the median set-up time, then
repeats passes of the workload for ``--seconds`` and checks every
operation's output outside the timed region. Times are reported as the
fastest repetition (see ``end_to_end``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half traced, reports the per-layer metrics from
the traced half, the tracing overhead (traced minus untraced), and
writes the spans to ``.bench_out/`` in the checkout.

Every workload is single-process. BLAS is pinned to one thread and the
grid workload uses at most two worker threads, so threads never outnumber
the available cores.
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

BLAS_THREADS = 1
MAX_WORKERS = 2
SETUP_REPEATS = 15
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REQUIRED = (ROOT / "src" / "fuzzml" / "__init__.py", ROOT / "tests" / "oracles.py")

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("score_samples_per_s", "samples/s"),
    ("evaluate_samples_per_s", "samples/s"),
    ("pass_s", "s"),
    ("ap", "1"),
    ("peak_rss_mb", "MB"),
)
OVERHEAD = (("train_s", "s"), ("score_samples_per_s", "samples/s"),
            ("evaluate_samples_per_s", "samples/s"), ("pass_s", "s"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_import() -> float:
    """Seconds to import the package from ``src/`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import fuzzml; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and checks each operation's output."""

    def __init__(self, workload, train_ds, heldout_ds, workers):
        import checks
        import workloads
        from fuzzml import metrics

        self.evaluate = metrics.evaluate
        self.checks = checks
        self.workloads = workloads
        self.workload = workload
        self.train_ds = train_ds
        self.heldout_ds = heldout_ds
        self.workers = workers
        self.pair = (workloads.duplicated_pair(workload.n_labels)
                     if workload.n_labels != 5 else None)
        self.attempted = 0
        self.failures = Counter()
        self.first_report = None

    def _check(self, op):
        c = self.checks
        w = self.workload
        if op.error is not None:
            return ["%s raised %s: %s" % (op.name, type(op.error).__name__, op.error)]
        if op.name == "run_grid":
            return c.check_grid(op.result, self.workloads.GRID_ALPHA,
                                self.workloads.GRID_RULES, w.folds)
        if op.name == "train":
            return c.check_train(op.result[0], op.result[1], w.max_iters, self.pair)
        if op.name == "score":
            return c.check_score(self._model, self.heldout_ds.features, op.result)
        if op.name == "evaluate":
            found = c.check_report_ranges(op.result)
            if self.first_report is None:
                self.first_report = op.result
                found += c.check_evaluate_oracles(self.evaluate, self._scores,
                                                  self.heldout_ds.labels, self._model.tau)
            elif op.result != self.first_report:
                found.append("evaluate: report differs from the first pass")
            return found
        raise ValueError("unknown operation %r" % op.name)

    def default_train(self):
        """One untimed, checked train with the default config; its TrainTrace."""
        from fuzzml import optimizer

        self.attempted += 1
        try:
            model, trace = optimizer.train(self.train_ds,
                                           self.workloads.default_config(self.workload))
        except self.workloads.OP_ERRORS as exc:
            self.failures["default train raised %s: %s" % (type(exc).__name__, exc)] += 1
            return None
        found = self.checks.check_train(model, trace, self.workload.max_iters, self.pair)
        if found:
            self.failures["default " + found[0]] += 1
        return trace

    def run(self, seconds, on_pass=None):
        """Repeat passes for ``seconds`` (at least one); return the passes.

        Only the first pass keeps its results (``answers`` reads them);
        later passes keep each operation's name, seconds and error, so the
        memory held, and with it ``peak_rss_mb``, does not grow with the
        number of passes that fit into ``seconds``.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()  # the previous pass's garbage is not charged to this one
            if on_pass is not None:
                on_pass(len(passes))
            ops = self.workloads.run_pass(self.workload, self.train_ds, self.heldout_ds,
                                          self.workers)
            for op in ops:
                if op.name == "train" and op.error is None:
                    self._model = op.result[0]
                if op.name == "score" and op.error is None:
                    self._scores = op.result
                self.attempted += 1
                found = self._check(op)
                if found:
                    self.failures[found[0]] += 1
            if passes:
                for op in ops:
                    op.result = None
            passes.append(ops)
            if time.perf_counter() >= deadline:
                return passes


def timed_ops(passes):
    """Every successful operation by name, with the fold calls inside
    run_grid, plus each pass without failures as a "pass" operation."""
    from workloads import Op

    timed = {}
    for ops in passes:
        for op in ops:
            if op.error is None:
                for one in (op,) + op.parts:
                    timed.setdefault(one.name, []).append(one)
        if all(op.error is None for op in ops):
            timed.setdefault("pass", []).append(
                Op("pass", sum(op.seconds for op in ops)))
    return timed


def end_to_end(passes, setup_s, pooled=False):
    """End-to-end metrics; a metric whose operation never succeeded is left out.

    Times are the fastest of the run's repetitions (best of n). On the
    shared 2-core machine this was measured on, co-tenant load inflated
    the median of a 40-second run by up to 30 % from one run to the next,
    while the fastest repetition moved by about 5 %; interference only
    adds time, so the minimum is the steadiest estimate of the program's
    own cost. Medians and counts are printed on the info line.

    With ``pooled`` (the grid workload) train, score and evaluate are the
    fold calls run_grid makes on its two worker threads. A fold train
    (about 0.45 s) always overlaps the other worker for part of its time,
    and by how much varies, so the fastest one measures that overlap: grid
    train_s as the minimum moved by 0.16-0.31 of its median across seeds,
    as the median fold train by 0.07-0.22. Pooled runs report the median
    train. Scores and evaluates (10-30 ms) keep the fastest call.
    """
    timed = timed_ops(passes)
    values = {"setup_s": setup_s}
    if "train" in timed:
        values["train_s"] = (median if pooled else min)(op.seconds for op in timed["train"])
    if "score" in timed:
        values["score_samples_per_s"] = max(op.samples / op.seconds for op in timed["score"])
    if "evaluate" in timed:
        values["evaluate_samples_per_s"] = max(
            op.samples / op.seconds for op in timed["evaluate"])
    if "pass" in timed:
        values["pass_s"] = min(op.seconds for op in timed["pass"])
    answer = answers(passes[0])
    if answer["ap"] is not None:
        values["ap"] = answer["ap"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def answers(ops):
    """What a pass computed: AP, and iterations and stop reason of every train."""
    ap = winner = None
    trains = []
    for op in ops:
        if op.error is not None:
            continue
        if op.name == "run_grid":
            ap = op.result.final.means["ap"]
            winner = (op.result.best.alpha, op.result.best.n_rules)
            trains += [(r.n_iterations, r.stop_reason) for r in op.result.final.results]
        elif op.name == "train":
            trains.append((op.result[1].n_iterations, op.result[1].stop_reason))
        elif op.name == "evaluate" and ap is None:
            ap = op.result.ap
    return {"ap": ap, "trains": trains, "winner": winner}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_ENV:
        os.environ[var] = str(BLAS_THREADS)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print("benchmark: run from a source checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

    import numpy
    import scipy

    import fuzzml
    import workloads

    if Path(fuzzml.__file__).resolve().parent != ROOT / "src" / "fuzzml":
        print("benchmark: imported fuzzml from %s, not from src/" % fuzzml.__file__,
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("benchmark: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    workers = max(1, min(MAX_WORKERS, nproc // BLAS_THREADS))
    workload = workloads.resolve(args.workload, tiny=args.tiny)

    setup_parts = []
    for _ in range(SETUP_REPEATS):
        import_s = measure_import()
        started = time.perf_counter()
        train_ds, heldout_ds = workloads.generate(workload, args.seed)
        generated = time.perf_counter()
        workloads.warm_up(workload, train_ds)
        setup_parts.append((import_s, generated - started, time.perf_counter() - generated))
    setup_s = median(sum(parts) for parts in setup_parts)

    runner = Runner(workload, train_ds, heldout_ds, workers)
    pooled = workload.kind == "grid"
    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": nproc,
        "workers": workers,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_repeats": SETUP_REPEATS,
        "setup_import_generate_warmup_s": setup_parts,
    }
    if args.trace == 0:
        passes = runner.run(args.seconds)
        metrics = end_to_end(passes, setup_s, pooled)
        units = dict(END_TO_END)
    else:
        import tracer

        default_trace = runner.default_train()
        plain = runner.run(args.seconds / 2.0)
        t = tracer.Tracer()
        t.install(tracer.targets())
        try:
            traced = runner.run(args.seconds / 2.0,
                                on_pass=lambda i: setattr(t, "pass_index", i))
        finally:
            t.uninstall()
        runner.attempted += 1
        if answers(plain[0]) != answers(traced[0]):
            runner.failures["trace: traced run answers differ from the untraced run"] += 1
        before = end_to_end(plain, setup_s, pooled)
        after = end_to_end(traced, setup_s, pooled)
        metrics = tracer.layer_metrics(t.spans, len(traced), workers, default_trace)
        units = dict(tracer.LAYER_METRICS)
        for name, unit in OVERHEAD:
            if name in before and name in after:
                metrics["trace.overhead." + name] = after[name] - before[name]
                units["trace.overhead." + name] = unit
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / ("trace-%s-seed%d.json" % (workload.name, args.seed))
        t.dump(trace_path)
        info.update(wrapped=t.wrapped, skipped=t.skipped,
                    spans_file=str(trace_path.relative_to(ROOT)), traced_passes=len(traced))
        passes = plain + traced

    failed = sum(runner.failures.values())
    if args.trace == 1:
        # error_rate is 0 on a healthy run, so it is a per-layer number
        # without a bound; untraced runs carry it as failed / attempted.
        metrics["error_rate"] = failed / runner.attempted
        units["error_rate"] = "1"
    info["op_seconds"] = {}
    for name, ops in timed_ops(passes).items():
        v = [op.seconds for op in ops]
        info["op_seconds"][name] = {"n": len(v), "min": min(v), "median": median(v),
                                    "max": max(v)}
    info.update(passes=len(passes), answers=answers(passes[0]),
                failures=dict(runner.failures.most_common(20)))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
