"""Command-line surface: generate data, train models, attribute symbols.

Commands
  gen        write a synthetic train/val/test CSV triple
  train      train the symbol-bottleneck model or the plain baseline
  attribute  per-symbol conductance report for a trained symbol model
  repro      gen -> train both models -> attribute, with a comparison table

Each command's options live in one table, which gives every option its
default, its type, its flag and its key in a JSON config file (--config):
the keys mirror the long flag names. A file's values are checked against
each option's type (an int also serves a float option; a bool never serves
an int one) and choices before anything is written. Explicit flags win over
the file, the file wins over defaults. The effective options are echoed into
the output directory, and all outputs are byte-deterministic given a seed.

Exit codes: 0 success, 2 usage/config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .attribution import AttributionConfig, per_symbol_report
from .classifier import (
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .data import (
    SynthSpec,
    generate_synthetic,
    load_csv,
    rescale,
    save_csv,
    standardization,
)
from .errors import InputError, NumericalError

# Each command's options: name -> (default, argparse keyword arguments). The
# name gives the flag (`--name` with dashes) and the --config key; the
# default's type is the option's type, on the command line and in the file.
GEN_OPTIONS = {
    "classes": (4, {"help": "number of classes"}),
    "block_size": (7, {"help": "features per class block"}),
    "train_samples": (534, {}),
    "val_samples": (133, {}),
    "test_samples": (171, {}),
    "mean_shift": (2.0, {"help": "informative-block mean"}),
    "noise_sigma": (1.0, {"help": "feature noise std dev"}),
    "seed": (0, {}),
}

TRAIN_OPTIONS = {
    "model": ("el", {"choices": ("el", "baseline")}),
    "vocab": (100, {"help": "vocabulary size K"}),
    "temperature": (1.0, {"help": "relaxation temperature"}),
    "lr": (1e-3, {"help": "Adam learning rate"}),
    "batch": (32, {"help": "mini-batch size"}),
    "patience": (10, {"help": "early-stopping patience, epochs"}),
    "max_epochs": (200, {}),
    "hidden": (64, {"help": "hidden layer width"}),
    "label_column": ("label", {}),
    "standardize": (False, {"help": "standardize features by train-split stats"}),
    "seed": GEN_OPTIONS["seed"],
}

ATTRIBUTE_OPTIONS = {
    "riemann_steps": (300, {"help": "midpoint-rule steps for --output-mode "
                            "probability; the logit output is integrated exactly"}),
    "baseline_vector": ("zero", {"help": "'zero' or comma-separated floats, in "
                                 "the model's input space (after any "
                                 "checkpoint standardization)"}),
    "output_mode": ("logit", {"choices": ("logit", "probability")}),
    "block_size": GEN_OPTIONS["block_size"],
    "label_column": TRAIN_OPTIONS["label_column"],
}

REPRO_OPTIONS = {**GEN_OPTIONS, **TRAIN_OPTIONS, **ATTRIBUTE_OPTIONS}
del REPRO_OPTIONS["model"]


def _read_json(path, what):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: invalid {what} JSON: {exc}") from None


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_config_value(name, value, default, kwargs):
    """InputError unless a --config value has its option's type (an int
    does for a float option; a bool is never an int) and, if the option has
    choices, is one of them."""
    kind = type(default)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise InputError(
            f"config key {name!r} must be {kind.__name__}, got {value!r}"
        )
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise InputError(
            f"config key {name!r} must be one of {', '.join(choices)}, got {value!r}"
        )


def _resolve(options, args):
    """defaults < --config file < explicit flags."""
    merged = {name: default for name, (default, _) in options.items()}
    if args.config:
        file_cfg = _read_json(args.config, "config")
        if not isinstance(file_cfg, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(options))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in file_cfg.items():
            _check_config_value(name, value, *options[name])
        merged.update(file_cfg)
    for name in options:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    return merged


def _spec_from_options(opts):
    spec = SynthSpec(
        num_classes=opts["classes"],
        block_size=opts["block_size"],
        train_samples=opts["train_samples"],
        val_samples=opts["val_samples"],
        test_samples=opts["test_samples"],
        mean_shift=opts["mean_shift"],
        noise_sigma=opts["noise_sigma"],
        seed=opts["seed"],
    )
    spec.validate()
    return spec


def _generate_to(spec, out_dir, label_column="label"):
    splits = generate_synthetic(spec)
    if label_column in splits[0].feature_names:
        raise InputError(f"label column {label_column!r} names a feature")
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "spec.json"), asdict(spec))
    for ds in splits:
        save_csv(ds, os.path.join(out_dir, f"{ds.split}.csv"), label_column)


def cmd_gen(args):
    _generate_to(_spec_from_options(_resolve(GEN_OPTIONS, args)), args.out)


def _load_finite_csv(path, label_column, split):
    """load_csv, rejecting non-finite features before any output is written."""
    ds = load_csv(path, label_column=label_column, split=split)
    if not np.all(np.isfinite(ds.features)):
        raise InputError(f"{path}: features contain non-finite values")
    return ds


def _check_columns(path, names, expected, owner):
    """InputError unless the feature columns `names` read from `path` are
    `expected`, the columns `owner` expects, in the same order."""
    if len(names) != len(expected):
        raise InputError(
            f"{path} has {len(names)} features, {owner} expects {len(expected)}"
        )
    for column, (got, want) in enumerate(zip(names, expected)):
        if got != want:
            raise InputError(
                f"{path}: feature column {column} is {got!r}, {owner} expects "
                f"{want!r}"
            )


def _load_split_dir(data_dir, label_column):
    sets = []
    for tag in ("train", "val", "test"):
        path = os.path.join(data_dir, f"{tag}.csv")
        sets.append(_load_finite_csv(path, label_column, tag))
    train_set, val_set, test_set = sets
    for ds in (val_set, test_set):
        _check_columns(f"{ds.split}.csv", ds.feature_names,
                       train_set.feature_names, "train.csv")
        if ds.class_names != train_set.class_names:
            raise InputError(
                f"{ds.split}.csv classes {ds.class_names} do not match "
                f"train.csv classes {train_set.class_names}"
            )
    return train_set, val_set, test_set


def _write_training_log(path, log):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for stats in log.epochs:
            writer.writerow([stats.epoch, repr(stats.train_loss), repr(stats.val_loss)])


def _train_config(opts):
    """The TrainConfig the options describe, checked along with --hidden."""
    config = TrainConfig(
        learning_rate=opts["lr"],
        batch_size=opts["batch"],
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
        temperature=opts["temperature"],
        vocab_size=opts["vocab"],
        seed=opts["seed"],
    )
    config.validate()
    if opts["hidden"] < 1:
        raise InputError("hidden must be a positive integer")
    return config


def _train_to(opts, data_dir, out_dir):
    config = _train_config(opts)
    train_set, val_set, test_set = _load_split_dir(data_dir, opts["label_column"])
    stats = standardization(train_set) if opts["standardize"] else None
    if stats is not None:
        train_set, val_set, test_set = (
            rescale(ds, stats) for ds in (train_set, val_set, test_set)
        )
    model = build_model(
        input_dim=train_set.num_features,
        num_classes=train_set.num_classes,
        vocab_size=config.vocab_size,
        hidden_dim=opts["hidden"],
        temperature=config.temperature,
        with_bottleneck=opts["model"] == "el",
        seed=config.seed,
    )
    log = train(model, train_set, val_set, config)
    report = evaluate(model, test_set)

    # written only once training and evaluation succeed, so a failed run
    # leaves no partial output directory
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), opts)
    _write_json(
        os.path.join(out_dir, "checkpoint.json"),
        save_checkpoint(model, stats, train_set.feature_names,
                        train_set.class_names),
    )
    _write_training_log(os.path.join(out_dir, "training_log.csv"), log)
    report_doc = {"model": opts["model"], **report.to_dict(),
                  "best_epoch": log.best_epoch,
                  "epochs_trained": len(log.epochs)}
    _write_json(os.path.join(out_dir, "eval_report.json"), report_doc)
    return report


def cmd_train(args):
    _train_to(_resolve(TRAIN_OPTIONS, args), args.data, args.out)


def _parse_baseline_vector(text, dim):
    if text == "zero":
        return None
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(
            f"baseline vector must be 'zero' or comma-separated numbers, got {text!r}"
        ) from None
    if len(values) != dim:
        raise InputError(
            f"baseline vector has {len(values)} entries, expected {dim}"
        )
    if not np.all(np.isfinite(values)):
        raise InputError("baseline contains non-finite values")
    return np.array(values)


def _attribution_config(opts, dim):
    """The AttributionConfig the options describe for `dim` features,
    checked."""
    config = AttributionConfig(
        baseline=_parse_baseline_vector(opts["baseline_vector"], dim),
        riemann_steps=opts["riemann_steps"],
        output=opts["output_mode"],
    )
    config.validate()
    return config


def _attribute_to(opts, checkpoint_path, test_csv, out_dir):
    model, stats, feature_names, _ = load_checkpoint(
        _read_json(checkpoint_path, "checkpoint")
    )
    if model.bottleneck is None:
        raise InputError(
            "checkpoint holds a baseline model without a symbol bottleneck; "
            "attribution needs a model trained with --model el"
        )
    test_set = _load_finite_csv(test_csv, opts["label_column"], "test")
    _check_columns(test_csv, test_set.feature_names, feature_names,
                   "the checkpoint's model")
    if stats is not None:
        test_set = rescale(test_set, stats)
    if test_set.num_features % opts["block_size"] != 0:
        raise InputError(
            f"feature count {test_set.num_features} is not a multiple of "
            f"block size {opts['block_size']}; set --block-size"
        )
    config = _attribution_config(opts, test_set.num_features)
    report = per_symbol_report(model, test_set, config)
    summary = [
        {
            "symbol": symbol,
            "count": count,
            "dominant_block": block,
            "attribution_share": share,
        }
        for symbol, count, (block, share) in zip(
            report.symbols, report.counts, report.dominant_blocks(opts["block_size"])
        )
    ]
    # written only once the report exists, so a failed attribution leaves no
    # partial output directory
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), opts)
    report.write_csv(os.path.join(out_dir, "conductance.csv"))
    _write_json(
        os.path.join(out_dir, "attribution_summary.json"), {"symbols": summary}
    )
    return report


def cmd_attribute(args):
    _attribute_to(_resolve(ATTRIBUTE_OPTIONS, args), args.checkpoint, args.test_csv,
                  args.out)


def cmd_repro(args):
    opts = _resolve(REPRO_OPTIONS, args)
    out = args.out
    data_dir = os.path.join(out, "data")
    # every option is checked before anything is written
    spec = _spec_from_options(opts)
    _train_config(opts)
    _attribution_config(opts, spec.feature_dim)
    _generate_to(spec, data_dir, opts["label_column"])  # makes `out`
    _write_json(os.path.join(out, "config.json"), opts)

    reports = {}
    for kind in ("baseline", "el"):
        reports[kind] = _train_to(
            {**{k: opts[k] for k in TRAIN_OPTIONS if k != "model"}, "model": kind},
            data_dir,
            os.path.join(out, kind),
        )

    _attribute_to(
        {k: opts[k] for k in ATTRIBUTE_OPTIONS},
        os.path.join(out, "el", "checkpoint.json"),
        os.path.join(data_dir, "test.csv"),
        os.path.join(out, "attribution"),
    )

    table = []
    for kind in ("baseline", "el"):
        report = reports[kind]
        table.append(
            {
                "experiment": kind,
                "accuracy_percent": report.accuracy * 100.0,
                "f1_score": report.f1,
                "symbols": report.symbols if report.symbol_inventory else None,
            }
        )
    _write_json(os.path.join(out, "comparison.json"), {"table": table})


def _add_options(parser, options):
    for name, (default, kwargs) in options.items():
        if isinstance(default, bool):
            kwargs = {"action": "store_const", "const": True, **kwargs}
        else:
            kwargs = {"type": type(default), **kwargs}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="emlang",
        description="Symbol-bottleneck classification with conductance attribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, options, help_text in (
        ("gen", cmd_gen, GEN_OPTIONS, "generate synthetic train/val/test CSVs"),
        ("train", cmd_train, TRAIN_OPTIONS,
         "train a model and evaluate on the test split"),
        ("attribute", cmd_attribute, ATTRIBUTE_OPTIONS,
         "per-symbol conductance report"),
        ("repro", cmd_repro, REPRO_OPTIONS,
         "gen + train both models + attribute, with a comparison table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file")
        _add_options(p, options)
        p.set_defaults(func=func)
    sub.choices["train"].add_argument("--data", required=True,
                                      help="directory with train/val/test.csv")
    sub.choices["attribute"].add_argument("--checkpoint", required=True,
                                          help="trained model checkpoint")
    sub.choices["attribute"].add_argument("--test-csv", required=True,
                                          dest="test_csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
