"""Command-line interface.

Subcommands: synth, noise, train, predict, eval, cv, grid, noise-curve,
ablate, export-rules. Shared flags (--seed, --out-dir, --workers,
--config) may appear before or after the subcommand. --seed is read by
synth, noise and the experiment commands (cv, grid, noise-curve, ablate),
--workers by the experiment commands only. A config file holds
``key=value`` lines matching flag names (dashes or underscores); explicit
command-line flags override file values.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
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
)
from .experiments import (
    ExperimentConfig,
    run_ablation,
    run_cv,
    run_grid,
    run_noise_curve,
)
from .metrics import evaluate
from .optimizer import NumericalError, TrainConfig, train
from .predictor import ModelFormatError, load_model, predict, save_model, score
from .rules import export_rules
from .sylvester import SingularProblemError
from .synthgen import SYNTH_KINDS, NoiseSpec, SynthSpec, gen_synthetic, inject_label_noise

_FLOAT_FMT = "%.17g"


def _ratio01(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _int_list(text):
    return tuple(int(s) for s in text.split(",") if s.strip())


def _float_list(text):
    return tuple(float(s) for s in text.split(",") if s.strip())


def _ratio_list(text):
    values = tuple(float(s) for s in text.split(",") if s.strip())
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError("ratios must lie in [0, 1]")
    return values


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return name if os.path.isabs(name) else os.path.join(args.out_dir, name)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        n_rules=args.rules,
        max_iters=args.max_iters,
        min_loss_margin=args.min_margin,
        epsilon_row=args.epsilon_row,
        ridge_y=args.ridge_y,
        width_floor=args.width_floor,
        tau=args.tau,
    )


def _experiment_config(args, **overrides) -> ExperimentConfig:
    seeds = args.seeds if args.seeds else (args.seed,)
    fields = dict(
        train=_train_config(args),
        folds=args.folds,
        seeds=seeds,
        workers=args.workers,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fold_rows(report):
    lines = ["seed,fold,ap,hl,rl,cv_raw,cv_norm,n_skipped,stop_reason,iterations,train_seconds"]
    for r in report.results:
        m = r.metrics
        lines.append(
            "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%s,%d,%.3f"
            % (r.seed, r.fold, m.ap, m.hl, m.rl, m.cv_raw, m.cv_norm,
               m.n_skipped_ap_rl, r.stop_reason, r.n_iterations, r.train_seconds)
        )
    return lines


def _summary_lines(report, title):
    lines = [title]
    for key in ("ap", "hl", "rl", "cv_raw", "cv_norm"):
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


def cmd_predict(args):
    model = load_model(args.model)
    features, _ = load_matrix(args.features)
    if args.binary:
        output = predict(model, features, tau=args.threshold)
        rows = [",".join("%d" % v for v in col) for col in output.T]
    else:
        output = score(model, features)
        rows = [",".join(_FLOAT_FMT % v for v in col) for col in output.T]
    header = "# " + ",".join(model.label_names)
    _write_lines(_out_path(args, args.out), [header] + rows)
    print("wrote %d score rows to %s" % (output.shape[1], _out_path(args, args.out)))


def cmd_eval(args):
    scores, _ = load_matrix(args.scores, "score")
    labels, _ = load_labels(args.labels)
    if scores.shape != labels.shape:
        raise DataFormatError(
            "scores are %s but labels are %s" % (scores.shape, labels.shape)
        )
    report = evaluate(scores, labels, tau=args.threshold)
    line = "%.6f,%.6f,%.6f,%.6f,%.6f,%d" % (
        report.ap, report.hl, report.rl, report.cv_raw, report.cv_norm,
        report.n_skipped_ap_rl,
    )
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
    config = _experiment_config(
        args,
        grid_alpha=args.grid_alpha,
        grid_beta=args.grid_beta,
        grid_gamma=args.grid_gamma,
        grid_rules=args.grid_rules,
    )
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
    config = _experiment_config(args, noise_ratios=args.ratios)
    points = run_noise_curve(data, config)
    lines = ["ratio,mean_ap,sd_ap"]
    for p in points:
        lines.append("%g,%.6f,%.6f" % (p.ratio, p.mean_ap, p.sd_ap))
    _write_lines(_out_path(args, "noise_curve.csv"), lines)
    print("\n".join(lines))


def cmd_ablate(args):
    data = load_dataset(args.features, args.labels)
    config = _experiment_config(
        args,
        force_beta_zero=args.ablate in ("beta", "both"),
        force_gamma_zero=args.ablate in ("gamma", "both"),
    )
    pairs = run_ablation(data, config, noise_ratio=args.noise_ratio)
    for term, (disabled, enabled) in sorted(pairs.items()):
        lines = ["group,%s" % ",".join(("ap", "hl", "rl", "cv_raw", "cv_norm"))]
        for name, rep in (("disabled", disabled), ("enabled", enabled)):
            lines.append(
                "%s,%.6f,%.6f,%.6f,%.6f,%.6f"
                % (name, rep.means["ap"], rep.means["hl"], rep.means["rl"],
                   rep.means["cv_raw"], rep.means["cv_norm"])
            )
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


def _add_train_flags(p):
    p.add_argument("--alpha", type=float, default=0.1, help="consequent ridge weight")
    p.add_argument("--beta", type=float, default=10.0, help="soft-label loss weight")
    p.add_argument("--gamma", type=float, default=0.001, help="correlation penalty weight")
    p.add_argument("--rules", type=int, default=3, help="fuzzy rule count")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--min-margin", type=float, default=None,
                   help="stopping margin on the loss change (default: auto)")
    p.add_argument("--epsilon-row", type=float, default=1e-8)
    p.add_argument("--ridge-y", type=float, default=1e-6)
    p.add_argument("--width-floor", type=float, default=1e-4)
    p.add_argument("--tau", type=float, default=0.5, help="decision threshold")


def _add_data_flags(p):
    p.add_argument("--features", required=True, help="feature CSV (one sample per row)")
    p.add_argument("--labels", required=True, help="binary label CSV")


def _add_cv_flags(p):
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seeds", type=_int_list, default=(),
                   help="comma-separated fold seeds (default: the global seed)")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out-dir", default=".", help="directory for outputs")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel workers for independent runs")
    common.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")

    parser = argparse.ArgumentParser(
        prog="fuzzml",
        description="Robust multilabel fuzzy classifier toolkit",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=int, default=1000, help="sample count")
    p.add_argument("--d", type=int, default=20, help="feature count")
    p.add_argument("--label-prob", type=_ratio01, default=0.4)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise", parents=[common], help="inject label noise")
    _add_data_flags(p)
    p.add_argument("--ratio", type=_ratio01, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("train", parents=[common], help="train a model")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default="model.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="score test samples")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="scores.csv")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--binary", action="store_true", help="emit 0/1 instead of scores")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="evaluate a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", parents=[common], help="k-fold cross-validation")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_cv_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid", parents=[common], help="hyperparameter grid search")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_cv_flags(p)
    p.add_argument("--grid-alpha", type=_float_list, default=())
    p.add_argument("--grid-beta", type=_float_list, default=())
    p.add_argument("--grid-gamma", type=_float_list, default=())
    p.add_argument("--grid-rules", type=_int_list, default=())
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("noise-curve", parents=[common],
                       help="cross-validated AP per training noise ratio")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_cv_flags(p)
    p.add_argument("--ratios", type=_ratio_list, required=True)
    p.set_defaults(func=cmd_noise_curve)

    p = sub.add_parser("ablate", parents=[common],
                       help="paired runs with a loss term disabled")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_cv_flags(p)
    p.add_argument("--ablate", choices=("beta", "gamma", "both"), required=True)
    p.add_argument("--noise-ratio", type=_ratio01, default=0.0)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-rules", parents=[common],
                       help="write the rule base as linguistic text")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="rules.txt")
    p.set_defaults(func=cmd_export_rules)

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
    for action in parser._actions:
        if action.dest in values:
            raw = values[action.dest]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                action.default = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                action.default = action.type(raw)
            else:
                action.default = raw


def _scan_config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path = _scan_config_path(argv)
        if config_path is not None:
            values = _parse_config_file(config_path)
            _apply_file_defaults(parser, values)
            for action in parser._subparsers._group_actions:
                for sub in action.choices.values():
                    _apply_file_defaults(sub, values)
    except (DataFormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    args = parser.parse_args(argv)
    try:
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
