"""Golden record of a reduced README flow.

:func:`readme_flow` runs the README's CLI flow in-process at a small
size: union synth and a copy with 20 % of its samples flipped, ``train``
at the default config and at gamma = 0 on both, ``score`` and
``evaluate``, ``run_cv``, a 2 x 2 ``run_grid``, ``run_noise_curve``,
``run_ablation`` and ``export_rules``. It returns what that flow prints
and writes, less the wall times. The test compares it with
``tests/data/readme_flow.json``: strings and integers (stop reasons,
iteration counts, the grid winner) exactly, and each list of floats to
:data:`RTOL` times its largest magnitude. The rules text of both clean
trains is split by :func:`_rules` into a skeleton, compared exactly, and
its numbers, a float list like any other. The beta = 0 ablation arm keeps
only its stop reasons and iteration counts, because its metrics move with
the rounding of the BLAS build.

A change that moves an output rewrites the file, and its diff shows
what moved::

    PYTHONPATH=src python tests/test_golden.py --regenerate

Without ``--regenerate`` the script prints the largest float gap to the
file and any exact mismatch.
"""

import json
import re
import sys
from pathlib import Path

from fuzzml.experiments import (
    ExperimentConfig,
    run_ablation,
    run_cv,
    run_grid,
    run_noise_curve,
)
from fuzzml.metrics import evaluate
from fuzzml.optimizer import TrainConfig, train
from fuzzml.predictor import score
from fuzzml.rules import export_rules
from fuzzml.synthgen import NoiseSpec, SynthSpec, gen_synthetic, inject_label_noise

GOLDEN = Path(__file__).parent / "data" / "readme_flow.json"

# Largest float gap allowed, relative to the largest magnitude of its list.
# Measured spread on x86-64 with Python 3.11.7 and numpy 2.4.6 (its bundled
# OpenBLAS): 0, every float bit-identical, over 3 runs each at
# OPENBLAS_NUM_THREADS=1 and 2; at most 1.2e-6 (the last soft term of the
# noisy default-config train; 1.2e-9 on any M or C entry) across the
# kernels that OPENBLAS_CORETYPE=Haswell, Sandybridge, Nehalem and Prescott
# select, as another CPU would.
RTOL = 1e-5

# A signed number of export_rules: an intercept after "= ", or a slope's
# "+ " or "- " and its magnitude; %g digits, with an exponent when small.
_SIGNED = re.compile(r"(?:(?<== )-?|[+-] )\d+(?:\.\d+)?(?:e[+-]\d+)?")


def _floats(array) -> list:
    return [float(v) for v in array.ravel()]


def _rules(text) -> dict:
    """A rules text as its skeleton lines, each signed number replaced by ``#``, and those numbers.

    A consequent that the fit drives to zero prints the BLAS kernel's
    rounding, its sign included: at gamma = 0, 2 or 3 of the 15 THEN-lines
    differ between OpenBLAS kernels while no printed number moves by 1e-10
    of the largest. So the text is compared with every number and its sign
    taken out.
    """
    numbers = [float(m.replace(" ", "")) for m in _SIGNED.findall(text)]
    return {"skeleton": _SIGNED.sub("#", text).split("\n"), "numbers": numbers}


def _run(report, metrics=True) -> dict:
    """A :class:`RunReport` without its wall times, and without its metrics if not ``metrics``."""
    run = {"noise_ratio": report.noise_ratio,
           "folds": [{"seed": r.seed, "fold": r.fold, "stop_reason": r.stop_reason,
                      "n_iterations": r.n_iterations} for r in report.results]}
    if metrics:
        run.update(means=report.means, stds=report.stds)
        for fold, r in zip(run["folds"], report.results):
            fold["metrics"] = r.metrics.as_dict()
    return run


def readme_flow() -> dict:
    """The reduced README flow's outputs, as JSON-ready values."""
    clean = gen_synthetic(SynthSpec(kind="union", n_samples=300, n_features=10, seed=7))
    noisy = inject_label_noise(clean, NoiseSpec(ratio=0.2, seed=1))
    record = {"trains": {}}
    for data_name, data in (("clean", clean), ("noisy", noisy)):
        for cfg_name, cfg in (("default", TrainConfig()), ("gamma0", TrainConfig(gamma=0.0))):
            model, trace = train(data, cfg)
            scores = score(model, clean.features)
            name = "%s_%s" % (data_name, cfg_name)
            record["trains"][name] = {
                "stop_reason": trace.stop_reason,
                "n_iterations": trace.n_iterations,
                "totals": trace.totals,
                "stopping_totals": list(trace.stopping_totals),
                # the soft term reads the residuals at the L2,1 weight floor
                "last_terms": {term: getattr(trace.iterations[-1], term)
                               for term in ("fit", "ridge", "soft", "corr")},
                "mixing": _floats(model.mixing),
                "consequents": _floats(model.consequents),
                "scores_head": _floats(scores[:, :4]),
                "metrics": evaluate(scores, clean.labels, model.tau).as_dict(),
            }
            if data_name == "clean":
                record["trains"][name]["rules"] = _rules(export_rules(model))

    experiment = ExperimentConfig(folds=3)
    record["cv"] = _run(run_cv(clean, experiment))
    grid = run_grid(clean, ExperimentConfig(folds=3, grid_alpha=(0.1, 1.0),
                                            grid_rules=(2, 3)))
    record["grid"] = {
        "best": {"alpha": grid.best.alpha, "beta": grid.best.beta,
                 "gamma": grid.best.gamma, "n_rules": grid.best.n_rules},
        "cells": [{"alpha": c.alpha, "n_rules": c.n_rules, "mean_ap": c.mean_ap,
                   "sd_ap": c.sd_ap} for c in grid.cells],
        "final": _run(grid.final),
    }
    record["noise_curve"] = [_run(r) for r in run_noise_curve(clean, experiment, (0.0, 0.2))]
    pairs = run_ablation(clean, experiment, ("beta", "gamma"), 0.2)
    # the beta = 0 arm's metrics follow rounding: across the OpenBLAS kernels
    # that RTOL was measured over, its held-out fold AP moved by up to 0.11
    record["ablation"] = {"beta": [_run(pairs["beta"][0], metrics=False),
                                   _run(pairs["beta"][1])],
                          "gamma": [_run(r) for r in pairs["gamma"]]}
    return record


def _compare(want, got, where="", gaps=None, mismatches=None):
    """The largest relative float gap and the exact mismatches between two records."""
    gaps = [] if gaps is None else gaps
    mismatches = [] if mismatches is None else mismatches
    if isinstance(want, float) and isinstance(got, float):
        want, got = [want], [got]
    if (isinstance(want, list) and want and all(isinstance(v, float) for v in want)
            and isinstance(got, list) and all(isinstance(v, float) for v in got)):
        if len(want) != len(got):
            mismatches.append("%s: %d floats, want %d" % (where, len(got), len(want)))
        else:
            scale = max(abs(v) for v in want)
            gap = max(abs(w - g) for w, g in zip(want, got))
            gaps.append((gap / scale if scale else gap, where))
    elif isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            mismatches.append("%s: keys %s, want %s" % (where, sorted(got), sorted(want)))
        for key in want.keys() & got.keys():
            _compare(want[key], got[key], "%s/%s" % (where, key), gaps, mismatches)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, "%s[%d]" % (where, i), gaps, mismatches)
    elif type(want) is not type(got) or want != got:
        mismatches.append("%s: %r, want %r" % (where, got, want))
    return max(gaps, default=(0.0, "")), mismatches


def _dump(record) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def test_rules_split_takes_out_every_signed_number():
    text = "RULE 1\nIF f1 is Small\nTHEN y1 = -1e-07 + 0.5*x1 - 2.5e-05*x2\nTHEN y12 = 3 - 0*x12\n"
    assert _rules(text) == {
        "skeleton": ["RULE 1", "IF f1 is Small", "THEN y1 = # #*x1 #*x2", "THEN y12 = # #*x12", ""],
        "numbers": [-1e-07, 0.5, -2.5e-05, 3.0, 0.0]}


def test_readme_flow_matches_the_golden_record():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(_dump(readme_flow()))
    (gap, where), mismatches = _compare(want, got)
    assert not mismatches, "\n".join(mismatches[:20])
    assert gap <= RTOL, "relative gap %.3g at %s" % (gap, where)


if __name__ == "__main__":
    record = readme_flow()
    if sys.argv[1:] == ["--regenerate"]:
        GOLDEN.write_text(_dump(record), encoding="utf-8")
        print("wrote %s" % GOLDEN)
    elif not sys.argv[1:]:
        (gap, where), mismatches = _compare(
            json.loads(GOLDEN.read_text(encoding="utf-8")), json.loads(_dump(record)))
        print("largest relative gap %.3g%s" % (gap, " at " + where if gap else ""))
        print("\n".join(mismatches) or "no exact mismatch")
    else:
        sys.exit("usage: python tests/test_golden.py [--regenerate]")
