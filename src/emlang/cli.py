"""Command-line surface: generate data, train models, attribute symbols.

Commands
  gen        write a synthetic train/val/test CSV triple
  train      train the symbol-bottleneck model or the plain baseline
  attribute  per-symbol conductance report for a trained symbol model
  repro      gen -> train both models -> attribute, with a comparison table

Each command's options live in one table, which gives every option its
default, its type, its flag and its key in a JSON config file (--config):
the keys mirror the long flag names. A file's values are checked against
each option's type (an int also serves a float option; a bool or a string
serves neither) and choices before anything is written, and each value's
range by what it configures. Explicit flags win over the file, the file wins
over defaults. The effective options are echoed into the output directory,
and all outputs are byte-deterministic given a seed.

Each command is a run, (options, args) -> (files, error), that writes
nothing; `main` resolves its options, calls it and writes its files under
--out. A run that raises writes nothing. Only `repro` returns an error with
files, the stages that finished before a numerical failure, and `main`
writes those only into an --out that is missing or empty: beside an earlier
run's files they would read as one tree.

Exit codes: 0 success, 2 usage/config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .attribution import (
    OUTPUTS,
    AttributionConfig,
    check_block_layout,
    per_symbol_report,
)
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
    dataset_csv,
    generate_synthetic,
    is_plain_number_text,
    load_csv,
    rescale,
    standardization,
    write_csv,
)
from .errors import InputError, NumericalError
from .nn import is_int, is_real

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
    "patience": (10, {"help": "early-stopping patience, epochs, <= --max-epochs"}),
    "max_epochs": (200, {}),
    "hidden": (64, {"help": "hidden layer width"}),
    "label_column": ("label", {}),
    "standardize": (False, {"help": "standardize features by train-split stats"}),
    "seed": GEN_OPTIONS["seed"],
}

ATTRIBUTE_OPTIONS = {
    "baseline_vector": ("zero", {"help": "'zero' or comma-separated floats, in "
                                 "the model's input space (after any "
                                 "checkpoint standardization)"}),
    "output_mode": ("logit", {"choices": OUTPUTS, "help": "the "
                              "target class's logit or softmax probability, both "
                              "integrated exactly over relu segments (ExactLine)"}),
    "block_size": GEN_OPTIONS["block_size"],
    "label_column": TRAIN_OPTIONS["label_column"],
}

REPRO_OPTIONS = {**GEN_OPTIONS, **TRAIN_OPTIONS, **ATTRIBUTE_OPTIONS}
del REPRO_OPTIONS["model"]


def _read_json(path, what):
    """The JSON document in the file path. A file that is not UTF-8, not
    JSON, or holds an int of more digits than Python reads (4,300) raises a
    ValueError, which becomes an InputError naming `what` the file holds."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: invalid {what} JSON: {exc}") from None


def _write_run(out_dir, files):
    """Write `files` under the directory out_dir: {path: content}, where a
    path is relative to out_dir and may name a subdirectory ("el/x.json"),
    each directory is made as needed, a `.csv` path's content is
    `write_csv`'s (header, rows[, text]) and any other path's is a JSON
    document.

    This is the one place that writes a run's files, and `main` is its one
    caller: the commands and their `_*_run` functions write nothing. So a
    command that fails leaves no partial output directory, and `repro`,
    whose run returns the stages that finished before a numerical failure,
    keeps those, in an --out that held no files."""
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if name.endswith(".csv"):
            write_csv(path, *content)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _check_config_value(name, value, default, kwargs):
    """InputError unless a --config value has its option's type (`nn.is_int`
    for an int option and `nn.is_real` for a float one, so an int does for a
    float option and a bool for neither; a str or bool option takes exactly
    that type) and, if the option has choices, is one of them. The range is
    checked by what the option configures."""
    kind = type(default)
    if not {int: is_int, float: is_real}.get(kind, lambda v: type(v) is kind)(value):
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
    return SynthSpec(num_classes=opts["classes"],
                     **{name: opts[name] for name in GEN_OPTIONS if name != "classes"})


def _gen_run(spec, splits, label_column="label"):
    """The files of the data that spec describes, whose (train, val, test)
    splits are `generate_synthetic(spec)`, for `_write_run`."""
    if label_column in splits[0].feature_names:
        raise InputError(f"label column {label_column!r} names a feature")
    return {"spec.json": asdict(spec),
            **{f"{ds.split}.csv": dataset_csv(ds, label_column) for ds in splits}}


def cmd_gen(opts, args):
    spec = _spec_from_options(opts)
    return _gen_run(spec, generate_synthetic(spec)), None


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
        sets.append(load_csv(path, label_column, tag))
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


def _train_run(opts, splits):
    """Train and evaluate the model the options describe on the (train, val,
    test) splits, and return the run's files for `_write_run`. Every option
    is checked before training: the model's --vocab, --temperature and
    --hidden by `build_model`, for either model kind, and the --standardize
    statistics by `save_checkpoint` on the untrained model."""
    config = TrainConfig(
        learning_rate=opts["lr"],
        batch_size=opts["batch"],
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
        seed=opts["seed"],
    )
    train_set, val_set, test_set = splits
    model = build_model(
        input_dim=train_set.num_features,
        num_classes=train_set.num_classes,
        vocab_size=opts["vocab"],
        hidden_dim=opts["hidden"],
        temperature=opts["temperature"],
        with_bottleneck=opts["model"] == "el",
        seed=config.seed,
    )
    stats = standardization(train_set) if opts["standardize"] else None
    # the checkpoint's writer checks the statistics, before any training
    save_checkpoint(model, stats, train_set.feature_names, train_set.class_names)
    if stats is not None:
        train_set, val_set, test_set = (
            rescale(ds, stats) for ds in (train_set, val_set, test_set)
        )
    log = train(model, train_set, val_set, config)
    report = evaluate(model, test_set)
    return {
        "config.json": opts,
        "checkpoint.json": save_checkpoint(model, stats, train_set.feature_names,
                                           train_set.class_names),
        "training_log.csv": (["epoch", "train_loss", "val_loss"],
                             [[s.epoch, s.train_loss, s.val_loss]
                              for s in log.epochs]),
        "eval_report.json": {"model": opts["model"], **report,
                             "best_epoch": log.best_epoch,
                             "epochs_trained": len(log.epochs)},
    }


def cmd_train(opts, args):
    splits = _load_split_dir(args.data, opts["label_column"])
    return _train_run(opts, splits), None


def _parse_baseline_vector(text, dim):
    if text == "zero":
        return None
    try:
        if not is_plain_number_text(text):
            raise ValueError
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(
            f"baseline vector must be 'zero' or comma-separated numbers, got {text!r}"
        ) from None
    if len(values) != dim:
        raise InputError(
            f"baseline vector has {len(values)} entries, expected {dim}"
        )
    return values


def _attribution_config(opts, dim):
    """The AttributionConfig the options describe for `dim` features."""
    return AttributionConfig(_parse_baseline_vector(opts["baseline_vector"], dim),
                             output=opts["output_mode"])


def _attribute_run(opts, checkpoint, test_set, test_csv):
    """Attribute the rows of test_set, read from the file test_csv, through
    the loaded Checkpoint's symbol model, and return the run's files for
    `_write_run`."""
    model, stats, feature_names, _ = checkpoint
    _check_columns(test_csv, test_set.feature_names, feature_names,
                   "the checkpoint's model")
    if stats is not None:
        test_set = rescale(test_set, stats)
    check_block_layout(test_set.num_features, opts["block_size"])
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
    return {
        "config.json": opts,
        "conductance.csv": (["symbol", "count", *test_set.feature_names],
                            [[symbol, count, *means.tolist()] for symbol, count, means
                             in zip(report.symbols, report.counts, report.matrix)]),
        "attribution_summary.json": {"symbols": summary},
    }


def cmd_attribute(opts, args):
    checkpoint = load_checkpoint(_read_json(args.checkpoint, "checkpoint"))
    test_set = load_csv(args.test_csv, opts["label_column"], "test")
    return _attribute_run(opts, checkpoint, test_set, args.test_csv), None


def _repro_stages(opts, spec, splits):
    """(subdirectory, files) of each stage of `repro`, in order: `gen`'s
    files under data/, `train`'s for each model kind under baseline/ and
    el/, and `attribute`'s on el's checkpoint document and the test split
    under attribution/."""
    yield "data", _gen_run(spec, splits, opts["label_column"])
    for kind in ("baseline", "el"):
        run = _train_run(
            {**{k: opts[k] for k in TRAIN_OPTIONS if k != "model"}, "model": kind},
            splits,
        )
        yield kind, run
    # run is el's, the last kind trained
    yield "attribution", _attribute_run(
        {k: opts[k] for k in ATTRIBUTE_OPTIONS},
        load_checkpoint(run["checkpoint.json"]),
        splits[2],
        os.path.join("data", "test.csv"),
    )


def _repro_run(opts):
    """Compute the whole tree that `repro` writes, and write nothing: the
    options as config.json, the files of each of `_repro_stages` under its
    subdirectory, and comparison.json.

    Returns (files, error). A NumericalError in a stage ends the run: the
    files of the stages before it come back with that error, and no
    comparison.json. An InputError propagates. Every option is checked
    before any training: the data and attribution options here, the
    training options by the first `_train_run`."""
    spec = _spec_from_options(opts)
    _attribution_config(opts, spec.feature_dim)
    files = {"config.json": opts}
    try:
        for stage, run in _repro_stages(opts, spec, generate_synthetic(spec)):
            files.update((f"{stage}/{name}", content) for name, content in run.items())
    except NumericalError as exc:
        return files, exc
    table = []
    for kind in ("baseline", "el"):
        report = files[f"{kind}/eval_report.json"]
        table.append(
            {
                "experiment": kind,
                "accuracy_percent": report["accuracy"] * 100.0,
                "f1_score": report["f1"],
                "symbols": report["symbols"],
            }
        )
    files["comparison.json"] = {"table": table}
    return files, None


def cmd_repro(opts, args):
    return _repro_run(opts)


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
        p.set_defaults(func=func, options=options)
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
        files, error = args.func(_resolve(args.options, args), args)
        if error is not None and os.path.isdir(args.out) and os.listdir(args.out):
            raise type(error)(f"{error}; {args.out} already holds files, so this "
                              "run wrote nothing")
        _write_run(args.out, files)
        if error is not None:
            raise error
    except (InputError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
