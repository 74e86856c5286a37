"""Command-line interface.

Every subcommand takes --out-dir and --config; its other flags follow
the subcommand name:

    synth         --kind --n --d --label-prob --out-prefix --seed
    noise         --features --labels --ratio --out-prefix --seed
    train         --features --labels, the training flags, --out
    predict       --model --features --out --binary
    eval          --scores --labels --threshold --out
    cv            --features --labels, the training flags,
                  --folds --seeds --workers
    grid          as cv, plus --grid-alpha --grid-beta --grid-gamma --grid-rules
    noise-curve   as cv, plus --ratios
    ablate        as cv, plus --ablate --noise-ratio
    export-rules  --model --out

The training flags are --alpha, --beta, --gamma, --rules, --max-iters,
--min-margin and --tau; their defaults are those of TrainConfig.

A config file holds ``key=value`` lines. A key names an option of the
chosen command (dashes or underscores) and sets its default, so explicit
command-line flags override file values. Keys that name no option of the
chosen command are ignored, and a required flag must be given on the
command line.

Every metric column and line (the fold rows, the summaries, the ablate
tables, the eval line) lists the metrics of ``metrics.METRICS`` in that
order. Grid values are checked by TrainConfig, the label probability by
SynthSpec, noise ratios by NoiseSpec and data cells by the CSV reader,
so an out-of-range, NaN or infinite one exits 3 with that type's message.
A ``#`` header that ``predict`` or ``eval`` reads must name the model's
features, or the label file's labels, in order; otherwise they exit 3.

Exit codes: 0 success, 2 usage error, 3 data or config error (a bad
config value included), 4 numerical failure.
"""

import argparse
import dataclasses
import os
import sys
from collections import Counter

import numpy as np

from .dataset import (
    DataFormatError,
    load_dataset,
    load_labels,
    load_matrix,
    save_dataset,
    save_matrix,
)
from .experiments import (
    ExperimentConfig,
    run_ablation,
    run_cv,
    run_grid,
    run_noise_curve,
)
from .metrics import METRICS, evaluate
from .optimizer import NumericalError, TrainConfig, train
from .predictor import ModelFormatError, load_model, predict, save_model, score
from .rules import export_rules
from .sylvester import SingularProblemError
from .synthgen import SYNTH_KINDS, NoiseSpec, SynthSpec, gen_synthetic, inject_label_noise


def _int_list(text):
    return tuple(int(s) for s in text.split(",") if s.strip())


def _float_list(text):
    return tuple(float(s) for s in text.split(",") if s.strip())


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return name if os.path.isabs(name) else os.path.join(args.out_dir, name)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(TrainConfig)})


def _experiment_config(args, **grid) -> ExperimentConfig:
    return ExperimentConfig(train=_train_config(args), folds=args.folds, seeds=args.seeds,
                            workers=args.workers, **grid)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _metric_cells(values):
    """The METRICS values of one report as CSV cells."""
    return ",".join("%.6f" % v for v in values)


def _fold_rows(report):
    lines = ["seed,fold,%s,n_skipped,stop_reason,iterations,train_seconds"
             % ",".join(METRICS)]
    for r in report.results:
        m = r.metrics
        lines.append(
            "%d,%d,%s,%d,%s,%d,%.3f"
            % (r.seed, r.fold, _metric_cells(getattr(m, key) for key in METRICS),
               m.n_skipped_ap_rl, r.stop_reason, r.n_iterations, r.train_seconds)
        )
    return lines


def _summary_lines(report, title):
    lines = [title]
    for key in METRICS:
        lines.append(
            "%s: %.4f (%.4f)" % (key, report.means[key], report.stds[key])
        )
    lines.append(
        "config: alpha=%g beta=%g gamma=%g rules=%d folds=%d seeds=%s"
        % (report.config.alpha, report.config.beta, report.config.gamma,
           report.config.n_rules, report.folds, ",".join(map(str, report.seeds)))
    )
    reasons = Counter(r.stop_reason for r in report.results)
    lines.append("stop_reasons: %s" % " ".join(
        "%s=%d" % item for item in sorted(reasons.items())))
    iterations = [r.n_iterations for r in report.results]
    lines.append("mean_iterations: %.2f" % (sum(iterations) / len(iterations)))
    lines.append("indefinite_steps: %d of %d iterations" % (
        sum(r.indefinite_steps for r in report.results), sum(iterations)))
    lines.append("wall_seconds: %.2f" % report.wall_seconds)
    return lines


def cmd_synth(args):
    spec = SynthSpec(
        kind=args.kind,
        n_samples=args.n,
        n_features=args.d,
        seed=args.seed,
        base_label_prob=args.label_prob,
    )
    data = gen_synthetic(spec)
    save_dataset(data, _out_path(args, args.out_prefix + ".X.csv"),
                 _out_path(args, args.out_prefix + ".Y.csv"))
    print("wrote %s.X.csv and %s.Y.csv (%s)" % (args.out_prefix, args.out_prefix, data))


def cmd_noise(args):
    data = load_dataset(args.features, args.labels)
    noisy = inject_label_noise(data, NoiseSpec(ratio=args.ratio, seed=args.seed))
    save_dataset(noisy, _out_path(args, args.out_prefix + ".X.csv"),
                 _out_path(args, args.out_prefix + ".Y.csv"))
    n_changed = int(np.count_nonzero((noisy.labels != data.labels).any(axis=0)))
    print("flipped %d of %d samples" % (n_changed, data.n_samples))


def cmd_train(args):
    data = load_dataset(args.features, args.labels)
    model, trace = train(data, _train_config(args))
    save_model(model, _out_path(args, args.out))
    print(
        "trained in %d iterations (stop: %s), final loss %.6f"
        % (trace.n_iterations, trace.stop_reason, trace.totals[-1])
    )
    print("model written to %s" % _out_path(args, args.out))


def _check_header(what, names, expected, owner):
    """Refuse a CSV header that names other columns, or the same in another order."""
    if names is not None and names != expected:
        raise DataFormatError("%s header %s does not match %s %s"
                              % (what, ",".join(names), owner, ",".join(expected)))


def cmd_predict(args):
    model = load_model(args.model)
    features, names = load_matrix(args.features)
    _check_header("feature", names, model.feature_names, "the model's features")
    if args.binary:
        output = predict(model, features)
        save_matrix(_out_path(args, args.out), output, model.label_names, "%d")
    else:
        output = score(model, features)
        save_matrix(_out_path(args, args.out), output, model.label_names)
    print("wrote %d score rows to %s" % (output.shape[1], _out_path(args, args.out)))


def cmd_eval(args):
    scores, score_names = load_matrix(args.scores, "score")
    labels, label_names = load_labels(args.labels)
    if label_names is not None:
        _check_header("score", score_names, label_names, "the label header")
    if scores.shape != labels.shape:
        raise DataFormatError(
            "scores are %s but labels are %s" % (scores.shape, labels.shape)
        )
    report = evaluate(scores, labels, tau=args.threshold)
    line = "%s,%d" % (_metric_cells(getattr(report, key) for key in METRICS),
                      report.n_skipped_ap_rl)
    print(line)
    if args.out:
        _write_lines(_out_path(args, args.out), [line])


def cmd_cv(args):
    data = load_dataset(args.features, args.labels)
    report = run_cv(data, _experiment_config(args))
    _write_lines(_out_path(args, "cv_report.csv"), _fold_rows(report))
    summary = _summary_lines(report, "cross-validation summary")
    _write_lines(_out_path(args, "cv_summary.txt"), summary)
    print("\n".join(summary))


def cmd_grid(args):
    data = load_dataset(args.features, args.labels)
    config = _experiment_config(args, grid_alpha=args.grid_alpha, grid_beta=args.grid_beta,
                                grid_gamma=args.grid_gamma, grid_rules=args.grid_rules)
    result = run_grid(data, config)
    lines = ["alpha,beta,gamma,rules,mean_ap,sd_ap"]
    for cell in result.cells:
        lines.append(
            "%g,%g,%g,%d,%.6f,%.6f"
            % (cell.alpha, cell.beta, cell.gamma, cell.n_rules,
               cell.mean_ap, cell.sd_ap)
        )
    _write_lines(_out_path(args, "grid_cells.csv"), lines)
    _write_lines(_out_path(args, "grid_final.csv"), _fold_rows(result.final))
    _write_lines(_out_path(args, "grid_summary.txt"),
                 _summary_lines(result.final, "grid winner summary"))
    best = result.best
    print(
        "best cell: alpha=%g beta=%g gamma=%g rules=%d (mean AP %.4f)"
        % (best.alpha, best.beta, best.gamma, best.n_rules,
           result.final.means["ap"])
    )


def cmd_noise_curve(args):
    data = load_dataset(args.features, args.labels)
    points = run_noise_curve(data, _experiment_config(args), args.ratios)
    lines = ["ratio,mean_ap,sd_ap"]
    for p in points:
        lines.append("%g,%.6f,%.6f" % (p.ratio, p.mean_ap, p.sd_ap))
    _write_lines(_out_path(args, "noise_curve.csv"), lines)
    print("\n".join(lines))


def cmd_ablate(args):
    data = load_dataset(args.features, args.labels)
    terms = ("beta", "gamma") if args.ablate == "both" else (args.ablate,)
    pairs = run_ablation(data, _experiment_config(args), terms, args.noise_ratio)
    for term, (disabled, enabled) in sorted(pairs.items()):
        lines = ["group,%s" % ",".join(METRICS)]
        for name, rep in (("disabled", disabled), ("enabled", enabled)):
            lines.append("%s,%s" % (name, _metric_cells(rep.means[key] for key in METRICS)))
        _write_lines(_out_path(args, "ablation_%s.csv" % term), lines)
        print(
            "%s: AP %.4f disabled vs %.4f enabled"
            % (term, disabled.means["ap"], enabled.means["ap"])
        )


def cmd_export_rules(args):
    model = load_model(args.model)
    text = export_rules(model)
    _write_lines(_out_path(args, args.out), text.splitlines())
    print("wrote rule text to %s" % _out_path(args, args.out))


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for outputs")
    common.add_argument("--config", default=None,
                        help="key=value file supplying this command's flag defaults")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base random seed")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--features", required=True, help="feature CSV (one sample per row)")
    data.add_argument("--labels", required=True, help="binary label CSV")

    training = argparse.ArgumentParser(add_help=False, parents=[data])
    training.add_argument("--alpha", type=float, default=TrainConfig.alpha,
                          help="consequent ridge weight")
    training.add_argument("--beta", type=float, default=TrainConfig.beta,
                          help="soft-label loss weight")
    training.add_argument("--gamma", type=float, default=TrainConfig.gamma,
                          help="correlation penalty weight")
    training.add_argument("--rules", dest="n_rules", type=int,
                          default=TrainConfig.n_rules, help="fuzzy rule count")
    training.add_argument("--max-iters", type=int, default=TrainConfig.max_iters)
    training.add_argument("--min-margin", dest="min_loss_margin", type=float,
                          default=TrainConfig.min_loss_margin,
                          help="stopping margin on the loss change (default: auto)")
    training.add_argument("--tau", type=float, default=TrainConfig.tau,
                          help="decision threshold")

    experiment = argparse.ArgumentParser(add_help=False, parents=[training])
    experiment.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    experiment.add_argument("--seeds", type=_int_list, default=ExperimentConfig.seeds,
                            help="comma-separated fold seeds")
    experiment.add_argument("--workers", type=int, default=ExperimentConfig.workers,
                            help="threads that run the folds")

    parser = argparse.ArgumentParser(
        prog="fuzzml",
        description="Robust multilabel fuzzy classifier toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, *parents):
        # no abbreviations: "--seed" must not pass for "--seeds"
        p = sub.add_parser(name, parents=[common, *parents], help=text, allow_abbrev=False)
        p.set_defaults(func=func, command_parser=p)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset", seeded)
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=int, default=1000, help="sample count")
    p.add_argument("--d", type=int, default=20, help="feature count")
    p.add_argument("--label-prob", type=float, default=0.4)
    p.add_argument("--out-prefix", required=True)

    p = command("noise", cmd_noise, "inject label noise", data, seeded)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--out-prefix", required=True)

    p = command("train", cmd_train, "train a model", training)
    p.add_argument("--out", default="model.txt")

    p = command("predict", cmd_predict, "score test samples")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="scores.csv")
    p.add_argument("--binary", action="store_true",
                   help="emit 0/1, thresholded at the model's tau, instead of scores")

    p = command("eval", cmd_eval, "evaluate a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)

    command("cv", cmd_cv, "k-fold cross-validation", experiment)

    p = command("grid", cmd_grid, "hyperparameter grid search", experiment)
    p.add_argument("--grid-alpha", type=_float_list, default=())
    p.add_argument("--grid-beta", type=_float_list, default=())
    p.add_argument("--grid-gamma", type=_float_list, default=())
    p.add_argument("--grid-rules", type=_int_list, default=())

    p = command("noise-curve", cmd_noise_curve,
                "cross-validated AP per training noise ratio", experiment)
    p.add_argument("--ratios", type=_float_list, required=True)

    p = command("ablate", cmd_ablate, "paired runs with a loss term disabled", experiment)
    p.add_argument("--ablate", choices=("beta", "gamma", "both"), required=True)
    p.add_argument("--noise-ratio", type=float, default=0.0)

    p = command("export-rules", cmd_export_rules, "write the rule base as linguistic text")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="rules.txt")

    return parser


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataFormatError("config line without '=': %r" % line)
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise DataFormatError("cannot read config file: %s" % exc) from exc
    return values


def _apply_file_defaults(parser, values):
    """Make config values the defaults of the options of ``parser`` they name."""
    for action in parser._actions:
        for option in action.option_strings:
            key = option.lstrip("-").replace("-", "_")
            if key not in values:
                continue
            raw = values[key]
            try:
                if isinstance(action, argparse._StoreTrueAction):
                    action.default = raw.lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    action.default = action.type(raw)
                else:
                    action.default = raw
            except ValueError as exc:
                raise DataFormatError("config %s=%s: %s" % (option, raw, exc)) from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_file_defaults(args.command_parser, _parse_config_file(args.config))
            args = parser.parse_args(argv)
        args.func(args)
    except (DataFormatError, ModelFormatError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (SingularProblemError, NumericalError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
