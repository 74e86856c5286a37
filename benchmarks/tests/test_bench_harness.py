"""Tests of the benchmark harness itself (not of the package).

Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Untraced loop bookkeeping and model construction inside train(): the
# spans of its callees must cover the train span to within this share.
SPAN_COVER_TOL = 0.05


def _run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.2",
                          "--trace", "0", "--tiny"))
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    for name_, metric in result["metrics"].items():
        assert metric["value"] > 0, name_
    if workloads.WORKLOADS[name].n_labels == 5:
        assert result["correct"] and result["failed"] == 0


def test_known_duplicated_label_failure_is_counted():
    # Above KRON_GUARD the Schur route breaks README's promise that
    # duplicated labels get identical mixing columns; the run must say so.
    done = _run("--workload", "wide_l96", "--seed", "3", "--seconds", "0.2", "--tiny")
    result = _result(done)
    info = json.loads(done.stdout.strip().splitlines()[-2])["info"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert info["failures"]
    assert all("duplicated labels" in f for f in info["failures"])


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "grid", "--seed", "2", "--seconds", "0.2", "--trace", "1",
                "--tiny")
    result = _result(done)
    assert result["correct"], done.stdout
    expected = {n for n, _ in tracer.LAYER_METRICS}
    expected |= {"trace.overhead." + n for n, _ in run.OVERHEAD} | {"error_rate"}
    assert set(result["metrics"]) == expected
    m = result["metrics"]
    assert m["optimizer.reweight_calls_per_iter"]["value"] == 2
    assert m["optimizer.laplacian_calls_per_iter"]["value"] == 3
    assert m["experiments.train_calls"]["value"] == 21  # 6 cells x 3 folds + 3
    assert 0 < m["rules.fuzzify_distinct_ratio"]["value"] < 1
    # from the one untimed default-config train, which may stop early
    assert sum(m["optimizer.stop_reason." + r]["value"]
               for r in ("margin", "max_iters", "nonpositive_loss")) == 1
    assert 1 <= m["optimizer.iterations"]["value"] <= workloads.resolve("grid", True).max_iters
    info = json.loads(done.stdout.strip().splitlines()[-2])["info"]
    assert (ROOT / info["spans_file"]).is_file()
    assert info["skipped"] == []


def test_only_the_first_pass_keeps_its_results():
    # peak_rss_mb must not grow with the number of passes that fit in the run
    w = workloads.resolve("tall", tiny=True)
    train_ds, heldout_ds = workloads.generate(w, 2)
    runner = run.Runner(w, train_ds, heldout_ds, 1)
    passes = runner.run(1.0)
    assert len(passes) >= 2
    assert all(op.result is not None for op in passes[0])
    assert all(op.result is None for ops in passes[1:] for op in ops)
    assert runner.failures == {} and runner.attempted == 3 * len(passes)


def test_grid_pass_is_one_run_grid_with_its_fold_calls_timed():
    w = workloads.resolve("grid", tiny=True)
    data, heldout = workloads.generate(w, 5)
    assert heldout is None
    original = workloads.experiments.train
    (op,) = workloads.run_pass(w, data, heldout, 2)
    assert op.name == "run_grid" and op.error is None
    assert workloads.experiments.train is original
    per_name = {n: [p for p in op.parts if p.name == n] for n in ("train", "score", "evaluate")}
    assert {n: len(v) for n, v in per_name.items()} == {n: 21 for n in per_name}
    assert {p.samples for p in per_name["score"] + per_name["evaluate"]} == {100}
    assert sum(p.seconds for p in per_name["train"]) <= 2 * op.seconds  # two workers


def _traced(fn):
    t = tracer.Tracer()
    t.install(tracer.targets())
    try:
        value = fn()
    finally:
        t.uninstall()
    return t, value


@pytest.mark.parametrize("name", ["tall", "grid"])
def test_traced_pass_gives_the_untraced_answers(name):
    w = workloads.resolve(name, tiny=True)
    train_ds, heldout_ds = workloads.generate(w, 5)
    plain = run.answers(workloads.run_pass(w, train_ds, heldout_ds, 2))
    _, ops = _traced(lambda: workloads.run_pass(w, train_ds, heldout_ds, 2))
    assert run.answers(ops) == plain
    assert plain["ap"] is not None and plain["trains"]


def test_child_spans_cover_the_train_span():
    w = workloads.resolve("tall", tiny=True)
    train_ds, _ = workloads.generate(w, 1)
    t, _ = _traced(lambda: workloads.optimizer.train(train_ds, workloads.train_config(w)))
    (train,) = [s for s in t.spans if s.name == "optimizer.train"]
    children = [s for s in t.spans if s.parent == train.span_id]
    duration = train.end - train.start
    covered = sum(s.end - s.start for s in children)
    assert {s.name for s in children} >= {
        "dataset.normalize", "rules.fit_antecedents", "rules.fuzzify",
        "optimizer.update_consequents", "optimizer.update_mixing"}
    assert covered <= duration
    assert covered >= (1.0 - SPAN_COVER_TOL) * duration
    assert tracer.self_times(t.spans)[train.span_id] == pytest.approx(duration - covered)


def test_self_time_counts_overlapping_children_once():
    spans = []
    for span_id, parent, start, end in [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0),
                                        (3, 1, 2.0, 6.0), (4, 1, 8.0, 9.0)]:
        s = tracer.Span(span_id, parent, "x", 0, 0)
        s.start, s.end = start, end
        spans.append(s)
    assert tracer.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_install_skips_missing_names_and_restores():
    module = types.ModuleType("fake")
    module.present = lambda: 7
    original = module.present
    t = tracer.Tracer()
    t.install([(module, "present", "p", None, None, False),
               (module, "gone", "g", None, None, False)])
    assert module.present() == 7
    assert t.wrapped == ["fake.present"] and t.skipped == ["fake.gone"]
    t.uninstall()
    assert module.present is original
    assert [s.name for s in t.spans] == ["p"]


def test_wide_generator_has_the_degenerate_labels():
    data = workloads.gen_wide(24, 500, 20, seed=4)
    a, b = workloads.duplicated_pair(24)
    assert (data.labels[a] == data.labels[b]).all()
    assert data.labels[-1].sum() == 0
    assert data.labels[:-1].sum(axis=1).min() > 0
    again = workloads.gen_wide(24, 500, 20, seed=4)
    assert (again.features == data.features).all()


def test_exits_nonzero_outside_a_source_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "tall", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = list(tracer.LAYER_METRICS) + [("trace.overhead." + n, u) for n, u in run.OVERHEAD]
    layer.append(("error_rate", "1"))
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(layer)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
