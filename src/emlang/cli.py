"""Command-line surface: generate data, train models, attribute symbols.

Commands
  gen        write a synthetic train/val/test CSV triple
  train      train the symbol-bottleneck model or the plain baseline
  attribute  per-symbol conductance report for a trained symbol model
  repro      gen -> train both models -> attribute, with a comparison table

Every option can come from a JSON config file (--config) whose keys mirror
the long flag names; explicit flags win over the file, the file wins over
defaults. The effective options are echoed into the output directory, and
all outputs are byte-deterministic given a seed.

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
    checkpoint_names,
    checkpoint_standardization,
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

GEN_DEFAULTS = {
    "classes": 4,
    "block_size": 7,
    "train_samples": 534,
    "val_samples": 133,
    "test_samples": 171,
    "mean_shift": 2.0,
    "noise_sigma": 1.0,
    "seed": 0,
}

TRAIN_DEFAULTS = {
    "model": "el",
    "vocab": 100,
    "temperature": 1.0,
    "lr": 1e-3,
    "batch": 32,
    "patience": 10,
    "max_epochs": 200,
    "hidden": 64,
    "label_column": "label",
    "standardize": False,
    "seed": 0,
}

ATTRIBUTE_DEFAULTS = {
    "riemann_steps": 300,
    "baseline_vector": "zero",
    "output_mode": "logit",
    "block_size": 7,
    "label_column": "label",
}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_checkpoint(model, path, train_set, stats=None):
    """The checkpoint of a model trained on `train_set`, whose feature header
    and class names it records."""
    doc = save_checkpoint(model, stats, train_set.feature_names,
                          train_set.class_names)
    _write_json(path, doc)


def read_checkpoint(path):
    """(model, standardization, feature_names) from a checkpoint file;
    standardization is the inputs' (mean, std) or None, and feature_names
    the input columns the model expects, in order."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid checkpoint JSON: {exc}") from None
    model = load_checkpoint(doc)
    return model, checkpoint_standardization(doc), checkpoint_names(doc)[0]


def _resolve(defaults, args):
    """defaults < --config file < explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{config_path}: invalid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise InputError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _spec_from_options(opts):
    return SynthSpec(
        num_classes=opts["classes"],
        block_size=opts["block_size"],
        train_samples=opts["train_samples"],
        val_samples=opts["val_samples"],
        test_samples=opts["test_samples"],
        mean_shift=opts["mean_shift"],
        noise_sigma=opts["noise_sigma"],
        seed=opts["seed"],
    )


def _generate_to(opts, out_dir):
    spec = _spec_from_options(opts)
    spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "spec.json"), asdict(spec))
    for ds in generate_synthetic(spec):
        save_csv(ds, os.path.join(out_dir, f"{ds.split}.csv"))


def cmd_gen(args):
    opts = _resolve(GEN_DEFAULTS, args)
    _generate_to(opts, args.out)


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


def _train_to(opts, data_dir, out_dir):
    if opts["model"] not in ("el", "baseline"):
        raise InputError(f"model must be 'el' or 'baseline', got {opts['model']!r}")
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
    train_set, val_set, test_set = _load_split_dir(data_dir, opts["label_column"])
    stats = standardization(train_set) if opts["standardize"] else None
    if stats is not None:
        train_set, val_set, test_set = (
            rescale(ds, stats) for ds in (train_set, val_set, test_set)
        )
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), opts)

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

    write_checkpoint(model, os.path.join(out_dir, "checkpoint.json"), train_set,
                     stats)
    _write_training_log(os.path.join(out_dir, "training_log.csv"), log)
    report_doc = {"model": opts["model"], **report.to_dict(),
                  "best_epoch": log.best_epoch,
                  "epochs_trained": len(log.epochs)}
    _write_json(os.path.join(out_dir, "eval_report.json"), report_doc)
    return report


def cmd_train(args):
    opts = _resolve(TRAIN_DEFAULTS, args)
    _train_to(opts, args.data, args.out)


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
    return np.array(values)


def _attribute_to(opts, checkpoint_path, test_csv, out_dir):
    model, stats, feature_names = read_checkpoint(checkpoint_path)
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
    config = AttributionConfig(
        baseline=_parse_baseline_vector(opts["baseline_vector"], test_set.num_features),
        riemann_steps=opts["riemann_steps"],
        output=opts["output_mode"],
    )
    config.validate()
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
    opts = _resolve(ATTRIBUTE_DEFAULTS, args)
    _attribute_to(opts, args.checkpoint, args.test_csv, args.out)


def cmd_repro(args):
    defaults = {**GEN_DEFAULTS, **TRAIN_DEFAULTS, **ATTRIBUTE_DEFAULTS}
    defaults.pop("model")
    opts = _resolve(defaults, args)
    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.json"), opts)

    data_dir = os.path.join(out, "data")
    _generate_to(opts, data_dir)

    reports = {}
    for kind in ("baseline", "el"):
        reports[kind] = _train_to(
            {**{k: opts[k] for k in TRAIN_DEFAULTS if k != "model"}, "model": kind},
            data_dir,
            os.path.join(out, kind),
        )

    _attribute_to(
        {k: opts[k] for k in ATTRIBUTE_DEFAULTS},
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


def _add_gen_options(p):
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--block-size", type=int, dest="block_size",
                   help="features per class block")
    p.add_argument("--train-samples", type=int, dest="train_samples")
    p.add_argument("--val-samples", type=int, dest="val_samples")
    p.add_argument("--test-samples", type=int, dest="test_samples")
    p.add_argument("--mean-shift", type=float, dest="mean_shift",
                   help="informative-block mean")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma",
                   help="feature noise std dev")


def _add_train_options(p, with_model=True):
    if with_model:
        p.add_argument("--model", choices=("el", "baseline"))
    p.add_argument("--vocab", type=int, help="vocabulary size K")
    p.add_argument("--temperature", type=float, help="relaxation temperature")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--batch", type=int, help="mini-batch size")
    p.add_argument("--patience", type=int, help="early-stopping patience, epochs")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--hidden", type=int, help="hidden layer width")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--standardize", action="store_const", const=True,
                   help="standardize features by train-split stats")


def _add_attribute_options(p, with_block_size=True):
    p.add_argument("--riemann-steps", type=int, dest="riemann_steps",
                   help="midpoint-rule steps for --output-mode probability; "
                   "the logit output is integrated exactly")
    p.add_argument("--baseline-vector", dest="baseline_vector",
                   help="'zero' or comma-separated floats, in the model's "
                   "input space (after any checkpoint standardization)")
    p.add_argument("--output-mode", dest="output_mode",
                   choices=("logit", "probability"))
    if with_block_size:
        p.add_argument("--block-size", type=int, dest="block_size")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="emlang",
        description="Symbol-bottleneck classification with conductance attribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic train/val/test CSVs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    _add_gen_options(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model and evaluate on the test split")
    p.add_argument("--data", required=True, help="directory with train/val/test.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    _add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="per-symbol conductance report")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--test-csv", required=True, dest="test_csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--label-column", dest="label_column")
    _add_attribute_options(p)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser(
        "repro",
        help="gen + train both models + attribute, with a comparison table",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    _add_gen_options(p)
    _add_train_options(p, with_model=False)
    _add_attribute_options(p, with_block_size=False)
    p.set_defaults(func=cmd_repro)

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
