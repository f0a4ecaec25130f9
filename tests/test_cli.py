import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emlang.cli import (
    ATTRIBUTE_OPTIONS,
    GEN_OPTIONS,
    REPRO_OPTIONS,
    TRAIN_OPTIONS,
    main,
)

SMALL_GEN = [
    "--train-samples", "90",
    "--val-samples", "30",
    "--test-samples", "30",
]

SMALL_TRAIN = [
    "--vocab", "12",
    "--hidden", "12",
    "--max-epochs", "40",
    "--patience", "40",
]


def run(argv):
    return main(argv)


def read_json(path):
    return json.loads(Path(path).read_text())


def gen_small(tmp_path, seed="0", extra=()):
    data = tmp_path / "data"
    assert run(["gen", "--out", str(data), "--seed", seed, *SMALL_GEN, *extra]) == 0
    return data


def train_small(tmp_path, data, kind, seed="0", extra=()):
    out = tmp_path / f"run-{kind}-{seed}"
    code = run([
        "train", "--data", str(data), "--out", str(out),
        "--model", kind, "--seed", seed, *SMALL_TRAIN, *extra,
    ])
    assert code == 0
    return out


def test_gen_writes_csvs_and_spec_echo(tmp_path):
    data = tmp_path / "data"
    assert run(["gen", "--out", str(data), "--seed", "1"]) == 0
    for name, rows in (("train.csv", 534), ("val.csv", 133), ("test.csv", 171)):
        lines = (data / name).read_text().splitlines()
        assert len(lines) == rows + 1  # header
    spec = read_json(data / "spec.json")
    assert spec["train_samples"] == 534
    assert spec["num_classes"] == 4
    assert spec["seed"] == 1


def test_gen_is_byte_deterministic(tmp_path):
    a = gen_small(tmp_path / "a", seed="7")
    b = gen_small(tmp_path / "b", seed="7")
    for name in ("train.csv", "val.csv", "test.csv", "spec.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rerun_into_same_directory_overwrites_identically(tmp_path):
    data = gen_small(tmp_path)
    before = (data / "train.csv").read_bytes()
    assert run(["gen", "--out", str(data), "--seed", "0", *SMALL_GEN]) == 0
    assert (data / "train.csv").read_bytes() == before


def test_commands_do_not_mutate_input_files(tmp_path):
    data = gen_small(tmp_path)
    inputs = {p: p.read_bytes() for p in data.iterdir()}
    out = train_small(tmp_path, data, "el")
    checkpoint = (out / "checkpoint.json").read_bytes()
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr"),
    ]) == 0
    for path, content in inputs.items():
        assert path.read_bytes() == content
    assert (out / "checkpoint.json").read_bytes() == checkpoint


def test_gen_dimension_flags(tmp_path):
    data = tmp_path / "data"
    assert run(["gen", "--out", str(data), "--classes", "2",
                "--block-size", "3", *SMALL_GEN]) == 0
    header = (data / "train.csv").read_text().splitlines()[0]
    assert header == "f0,f1,f2,f3,f4,f5,label"


def test_gen_unwritable_path_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run(["gen", "--out", str(blocker / "sub")]) == 2


def test_train_baseline_reports_no_symbols(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "baseline")
    report = read_json(out / "eval_report.json")
    assert report["model"] == "baseline"
    assert report["symbols"] is None
    assert report["symbol_inventory"] == []
    assert (out / "checkpoint.json").exists()
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,train_loss,val_loss"
    assert len(log_lines) == report["epochs_trained"] + 1


def test_train_el_symbols_within_vocabulary(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    report = read_json(out / "eval_report.json")
    assert report["symbols"], "symbol model must report its inventory"
    assert all(0 <= s < 12 for s in report["symbols"])
    counts = sum(e["count"] for e in report["symbol_inventory"])
    assert counts == 30


def test_train_is_deterministic_across_runs(tmp_path):
    data = gen_small(tmp_path)
    out_a = train_small(tmp_path, data, "el", extra=("--seed", "3"))
    out_b_dir = tmp_path / "again"
    assert run([
        "train", "--data", str(data), "--out", str(out_b_dir),
        "--model", "el", "--seed", "3", *SMALL_TRAIN,
    ]) == 0
    for name in ("eval_report.json", "checkpoint.json", "training_log.csv"):
        assert (out_a / name).read_bytes() == (out_b_dir / name).read_bytes()


def test_train_missing_data_dir_exits_2(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope"),
                "--out", str(tmp_path / "out"), "--model", "el"]) == 2


def test_config_file_merging_and_flag_priority(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "train_samples": 60,
                                  "val_samples": 20, "test_samples": 20}))
    data = tmp_path / "data"
    assert run(["gen", "--out", str(data), "--config", str(config),
                "--seed", "9"]) == 0
    echo = read_json(data / "spec.json")
    assert echo["train_samples"] == 60  # from file
    assert echo["seed"] == 9  # flag wins
    lines = (data / "train.csv").read_text().splitlines()
    assert len(lines) == 61


def test_config_keys_reach_each_command_and_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"batch": 16, "seed": 3}))
    out = tmp_path / "repro"
    assert run(["repro", "--out", str(out), "--config", str(config), "--seed", "1",
                *SMALL_GEN, *SMALL_TRAIN, "--max-epochs", "5", "--patience", "5"]) == 0
    for echo in (read_json(out / "config.json"), read_json(out / "el" / "config.json")):
        assert (echo["batch"], echo["seed"]) == (16, 1)
    assert read_json(out / "data" / "spec.json")["seed"] == 1

    config.write_text(json.dumps({"batch": 16, "patience": 3}))
    assert run(["train", "--data", str(out / "data"), "--out", str(tmp_path / "el"),
                "--config", str(config), *SMALL_TRAIN]) == 0
    echo = read_json(tmp_path / "el" / "config.json")
    assert (echo["batch"], echo["patience"]) == (16, 40)

    config.write_text(json.dumps({"output_mode": "probability", "block_size": 14}))
    assert run(["attribute", "--checkpoint", str(out / "el" / "checkpoint.json"),
                "--test-csv", str(out / "data" / "test.csv"),
                "--out", str(tmp_path / "attr"), "--config", str(config),
                "--block-size", "7"]) == 0
    echo = read_json(tmp_path / "attr" / "config.json")
    assert (echo["output_mode"], echo["block_size"]) == ("probability", 7)


@pytest.mark.parametrize("command, key, value", [
    ("repro", "standardize", "no"),
    ("repro", "batch", True),
    ("repro", "classes", "4"),
    ("repro", "seed", 1.5),
    ("repro", "lr", "0.1"),
    ("repro", "vocab", 6.0),
    ("repro", "output_mode", "gradient"),
    ("train", "model", "mystery"),
])
def test_config_value_of_the_wrong_type_or_choice_exits_2(tmp_path, capsys, command,
                                                          key, value):
    data = gen_small(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    inputs = ["--data", str(data)] if command == "train" else SMALL_GEN
    assert run([command, "--out", str(out), "--config", str(config), *inputs,
                *SMALL_TRAIN, "--max-epochs", "5", "--patience", "5"]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_takes_an_int_for_a_float_option(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mean_shift": 2, "noise_sigma": 1}))
    data = tmp_path / "data"
    assert run(["gen", "--out", str(data), "--config", str(config), *SMALL_GEN]) == 0
    spec = read_json(data / "spec.json")
    assert (spec["mean_shift"], spec["noise_sigma"]) == (2, 1)


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus_option": 1}))
    assert run(["gen", "--out", str(tmp_path / "d"),
                "--config", str(config)]) == 2


# The config.json files that `attribute` and `repro` echoed while the
# probability output took a midpoint-rule step count, at the defaults.
OLD_ATTRIBUTE_ECHO = {"baseline_vector": "zero", "block_size": 7,
                      "label_column": "label", "output_mode": "logit",
                      "riemann_steps": 300}
OLD_REPRO_ECHO = {**{name: default for name, (default, _) in REPRO_OPTIONS.items()},
                  **OLD_ATTRIBUTE_ECHO}


@pytest.mark.parametrize("command, echo", [("attribute", OLD_ATTRIBUTE_ECHO),
                                           ("repro", OLD_REPRO_ECHO)],
                         ids=["attribute", "repro"])
def test_an_old_config_naming_riemann_steps_exits_2_before_any_output(
        tmp_path, capsys, command, echo):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    inputs = []
    if command == "attribute":
        inputs = ["--checkpoint", str(untrained_checkpoint(tmp_path)),
                  "--test-csv", str(gen_small(tmp_path) / "test.csv")]
    out = tmp_path / "out"
    assert run([command, "--out", str(out), "--config", str(config), *inputs]) == 2
    assert "unknown config keys: riemann_steps" in capsys.readouterr().err
    assert not out.exists()


def test_attribute_outputs(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    attr = tmp_path / "attr"
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"), "--out", str(attr),
    ]) == 0
    lines = (attr / "conductance.csv").read_text().splitlines()
    assert lines[0] == "symbol,count," + ",".join(f"f{i}" for i in range(28))
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 30
    summary = read_json(attr / "attribution_summary.json")
    assert len(summary["symbols"]) == len(lines) - 1
    for entry in summary["symbols"]:
        assert 0 <= entry["dominant_block"] < 4
        assert 0.0 <= entry["attribution_share"] <= 1.0


def test_attribute_rejects_baseline_checkpoint(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "baseline")
    code = run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr"),
    ])
    assert code == 2
    assert "baseline" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def test_attribute_rejects_corrupt_checkpoint(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    ckpt = out / "checkpoint.json"
    ckpt.write_text(ckpt.read_text()[: 100])
    assert run([
        "attribute", "--checkpoint", str(ckpt),
        "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr"),
    ]) == 2


def test_json_inputs_that_are_not_utf8_exit_2(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    (out / "checkpoint.json").write_bytes(b"\xff\xfe{}")
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "invalid checkpoint JSON" in capsys.readouterr().err
    assert run(["gen", "--out", str(tmp_path / "d"),
                "--config", str(out / "checkpoint.json")]) == 2
    assert "invalid config JSON" in capsys.readouterr().err


def test_attribute_baseline_vector_flag(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    vec = ",".join(["0.1"] * 28)
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr"),
        "--baseline-vector", vec,
    ]) == 0
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr2"),
        "--baseline-vector", "0.1,0.2",
    ]) == 2


def test_train_divergence_exit_code_3(tmp_path):
    import numpy as np

    data = gen_small(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([
            "train", "--data", str(data), "--out", str(tmp_path / "out"),
            "--model", "baseline", "--lr", "1e200", "--max-epochs", "5",
            "--patience", "5",
        ])
    assert code == 3
    assert not (tmp_path / "out").exists()


def test_train_rejects_nonfinite_test_features(tmp_path, capsys):
    data = gen_small(tmp_path)
    test_csv = data / "test.csv"
    header, *rows = test_csv.read_text().splitlines()
    assert header.startswith("f0,")
    rows = ["nan," + row.split(",", 1)[1] for row in rows]
    test_csv.write_text("\n".join([header, *rows]) + "\n")
    for kind in ("baseline", "el"):
        assert run([
            "train", "--data", str(data), "--out", str(tmp_path / kind),
            "--model", kind, *SMALL_TRAIN,
        ]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / kind).exists()


def test_attribute_rejects_nonfinite_features_before_writing(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    test_csv = data / "test.csv"
    header, first, *rows = test_csv.read_text().splitlines()
    test_csv.write_text("\n".join([header, "inf," + first.split(",", 1)[1], *rows]) + "\n")
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(test_csv), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def test_attribute_rejects_nonfinite_checkpoint_layers(tmp_path, capsys):
    # json reads NaN and Infinity, so the checkpoint loader must reject them
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    doc = read_json(out / "checkpoint.json")
    for section, value in (("sender", float("nan")), ("receiver", float("inf"))):
        bad = json.loads(json.dumps(doc))
        bad[section][0]["weights"][0] = value
        ckpt = tmp_path / f"{section}.json"
        ckpt.write_text(json.dumps(bad))
        assert run([
            "attribute", "--checkpoint", str(ckpt),
            "--test-csv", str(data / "test.csv"),
            "--out", str(tmp_path / section),
        ]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / section).exists()


@pytest.mark.parametrize("section, message", [
    ("sender", "logits contain non-finite values"),
    ("receiver", "non-finite network output"),
], ids=["sender", "receiver"])
def test_attribute_overflow_exits_3_without_writing(tmp_path, capsys, monkeypatch,
                                                    section, message):
    # inputs and weights are finite, so a non-finite value on either side of
    # the channel is an overflow: a numerical error, exit 3; attributed by
    # two processes, so the error also crosses from the worker path. The test
    # split spans three decode chunks, the last one partial, and the sender
    # overflows on its last row only, so both `evaluate` and the attribution
    # meet it in the last chunk; the receiver overflows on every row, and
    # `evaluate` raises on it too.
    import numpy as np

    from emlang import attribution
    from emlang.classifier import DECODE_ROWS, evaluate, load_checkpoint
    from emlang.data import dataset_csv, load_csv, write_csv
    from emlang.errors import NumericalError

    monkeypatch.setattr(attribution, "_processes", lambda num_blocks: 2)
    data = gen_small(tmp_path,
                     extra=("--test-samples", str(2 * DECODE_ROWS + 5)))
    out = train_small(tmp_path, data, "el")
    doc = read_json(out / "checkpoint.json")
    layer = doc[section][-1]
    test_csv = data / "test.csv"
    if section == "sender":
        layer["weights"] = [w * 1e10 for w in layer["weights"]]
        model = load_checkpoint(doc).model
        test_set = load_csv(test_csv, split="test")
        evaluate(model, test_set)  # the rows as generated decode finitely
        test_set.features[-1] *= 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                evaluate(model, test_set)
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, *dataset_csv(test_set))
    else:
        layer["weights"] = [1e308] * len(layer["weights"])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                evaluate(load_checkpoint(doc).model, load_csv(test_csv, split="test"))
    ckpt = tmp_path / "overflow.json"
    ckpt.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([
            "attribute", "--checkpoint", str(ckpt),
            "--test-csv", str(test_csv), "--out", str(tmp_path / "attr"),
        ])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def untrained_checkpoint(tmp_path, **changes):
    """An el checkpoint for gen_small's columns, with `changes` applied."""
    from emlang.classifier import build_model, save_checkpoint

    doc = save_checkpoint(build_model(28, 4, vocab_size=12, hidden_dim=12))
    doc.update(changes)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    return path


def test_attribute_malformed_checkpoint_exits_2_without_writing(tmp_path, capsys):
    data = gen_small(tmp_path)
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path, sender=5)),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "malformed checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def test_attribute_rejects_a_checkpoint_key_that_its_kind_does_not_write(
        tmp_path, capsys):
    data = gen_small(tmp_path)
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path, note="x")),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "el checkpoint has unknown keys: ['note']" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


@pytest.mark.parametrize("where, value, message", [
    (("sender", 0, "weights", 0), True, "layer weights must be a list of numbers"),
    (("receiver", -1, "bias", 0), "1e3", "layer bias must be a list of numbers"),
    (("standardization", "mean", 0), "0.5",
     "standardization mean must be a list of numbers"),
    (("standardization", "std", 1), False,
     "standardization std must be a list of numbers"),
    (("sender", 0, "weights", 0), 10**400, "malformed checkpoint: OverflowError"),
], ids=["bool-weight", "string-bias", "string-mean", "bool-std", "huge-int-weight"])
def test_attribute_rejects_checkpoint_arrays_that_hold_other_than_numbers(
        tmp_path, capsys, where, value, message):
    data = gen_small(tmp_path)
    path = untrained_checkpoint(tmp_path,
                                standardization={"mean": [0.0] * 28, "std": [1.0] * 28})
    doc = read_json(path)
    *keys, last = where
    array = doc
    for key in keys:
        array = array[key]
    array[last] = value
    path.write_text(json.dumps(doc))
    assert run([
        "attribute", "--checkpoint", str(path), "--test-csv", str(data / "test.csv"),
        "--out", str(tmp_path / "attr"),
    ]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def test_attribute_nonfinite_baseline_vector_exits_2_without_writing(tmp_path,
                                                                     capsys):
    data = gen_small(tmp_path)
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path)),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
        "--baseline-vector", ",".join(["nan"] + ["0"] * 27),
    ]) == 2
    assert "baseline contains non-finite" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "-1", "learning_rate must be positive"),
    ("--hidden", "0", "hidden must be an int >= 1, got 0"),
    ("--baseline-vector", "1,2", "baseline vector has 2 entries"),
    ("--vocab", "1", "vocab_size must be an int >= 2, got 1"),
    ("--test-samples", "3", "test_samples must be an int >= 4, got 3"),
    ("--label-column", "f0", "label column 'f0' names a feature"),
    ("--mean-shift", "nan", "mean_shift must be finite"),
    ("--temperature", "inf", "temperature must be positive and finite"),
    ("--noise-sigma", "1e308", "train features overflow"),
    ("--baseline-vector", "1_000", "must be 'zero' or comma-separated numbers"),
    ("--baseline-vector", "\u0661", "must be 'zero' or comma-separated numbers"),
], ids=["lr", "hidden", "baseline-vector", "vocab", "test-samples",
        "label-column", "mean-shift", "temperature", "noise-sigma",
        "baseline-vector-underscore", "baseline-vector-non-ascii"])
def test_repro_checks_every_option_before_any_output(tmp_path, capsys, flag, value,
                                                     message):
    out = tmp_path / "out"
    assert run(["repro", "--out", str(out), *SMALL_GEN, *SMALL_TRAIN,
                flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--model", "baseline", "--vocab", "1"), "vocab_size must be an int >= 2, got 1"),
    (("--temperature", "inf"), "temperature must be positive and finite"),
], ids=["baseline-vocab", "temperature"])
def test_train_checks_the_model_options_before_any_output(tmp_path, capsys, flags,
                                                          message):
    data = gen_small(tmp_path)
    out = tmp_path / "out"
    assert run(["train", "--data", str(data), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-7", "config"])
def test_attribute_rejects_a_block_size_below_one(tmp_path, capsys, value):
    got = "0" if value == "config" else value
    data = gen_small(tmp_path)
    if value == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"block_size": 0}))
        flags = ["--config", str(config)]
    else:
        flags = ["--block-size", value]
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path)),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
        *flags,
    ]) == 2
    assert (f"block_size must be an int >= 1, got {got}\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "attr").exists()


def test_attribute_rejects_a_block_size_that_does_not_divide_the_features(
        tmp_path, capsys, monkeypatch):
    import emlang.cli

    def attribution_ran(*args):
        raise AssertionError("per_symbol_report ran before the block layout check")

    data = gen_small(tmp_path)
    monkeypatch.setattr(emlang.cli, "per_symbol_report", attribution_ran)
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path)),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
        "--block-size", "5",
    ]) == 2
    assert ("feature count 28 is not a multiple of block size 5"
            in capsys.readouterr().err)
    assert not (tmp_path / "attr").exists()


def test_gen_rejects_overflowing_features_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["gen", "--out", str(out), "--noise-sigma", "1e308"]) == 2
    assert "train features overflow" in capsys.readouterr().err
    assert not out.exists()


def test_repro_writes_the_named_label_column(tmp_path):
    out = tmp_path / "out"
    assert run(["repro", "--out", str(out), *SMALL_GEN, *SMALL_TRAIN,
                "--max-epochs", "2", "--patience", "2", "--label-column", "y"]) == 0
    for tag in ("train", "val", "test"):
        header = (out / "data" / f"{tag}.csv").read_text().splitlines()[0]
        assert header.endswith(",y")
    assert (out / "attribution" / "conductance.csv").exists()


def test_attribute_rejects_a_fractional_sampler_seed(tmp_path, capsys):
    data = gen_small(tmp_path)
    assert run([
        "attribute", "--checkpoint",
        str(untrained_checkpoint(tmp_path, sampler_seed=1.5)),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "sampler seed must be an int >= 0, got 1.5\n" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen", "train", "repro"])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, command, via):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "train":
        argv += ["--data", str(gen_small(tmp_path))]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    assert run(argv) == 2
    assert "error: seed must be an int >= 0, got -1\n" in capsys.readouterr().err
    assert not out.exists()


def scale_csvs(data, factor, offset):
    """Rewrite every feature column of the split CSVs as factor * x + offset."""
    for tag in ("train", "val", "test"):
        path = data / f"{tag}.csv"
        header, *rows = path.read_text().splitlines()
        out = [header]
        for row in rows:
            *features, label = row.split(",")
            out.append(",".join([repr(float(v) * factor + offset) for v in features]
                                + [label]))
        path.write_text("\n".join(out) + "\n")


def test_attribute_applies_checkpoint_standardization(tmp_path):
    import numpy as np

    from emlang.attribution import AttributionConfig, per_symbol_report
    from emlang.classifier import load_checkpoint
    from emlang.data import load_csv, rescale, standardization

    data = gen_small(tmp_path)
    scale_csvs(data, 10.0, 100.0)
    out = train_small(tmp_path, data, "el", extra=("--standardize",))
    attr = tmp_path / "attr"
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"), "--out", str(attr),
    ]) == 0
    summary = read_json(attr / "attribution_summary.json")["symbols"]
    assert [s["symbol"] for s in summary] == read_json(out / "eval_report.json")["symbols"]

    # the report on the splits as training standardized them
    model, stats, _, _ = load_checkpoint(read_json(out / "checkpoint.json"))
    train_set = load_csv(data / "train.csv", split="train")
    test_set = load_csv(data / "test.csv", split="test")
    train_stats = standardization(train_set)
    for stored, expected in zip(stats, train_stats):
        np.testing.assert_array_equal(stored, expected)
    scaled_test = rescale(test_set, train_stats)
    report = per_symbol_report(model, scaled_test, AttributionConfig())
    blocks = report.dominant_blocks(7)
    assert [s["dominant_block"] for s in summary] == [b for b, _ in blocks]
    assert [s["attribution_share"] for s in summary] == [s for _, s in blocks]


def test_attribute_rejects_feature_count_mismatch(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el", extra=("--standardize",))
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("".join(
        line.split(",", 1)[1] + "\n"
        for line in (data / "test.csv").read_text().splitlines()
    ))
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(narrow), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "expects 28" in capsys.readouterr().err


def test_checkpoint_records_no_standardization_by_default(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "baseline")
    assert read_json(out / "checkpoint.json")["standardization"] is None


def test_attribute_rejects_version_1_checkpoint(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    ckpt = out / "checkpoint.json"
    doc = read_json(ckpt)
    doc["format_version"] = 1
    del doc["standardization"]
    ckpt.write_text(json.dumps(doc))
    assert run([
        "attribute", "--checkpoint", str(ckpt),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "version" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def test_attribute_rejects_version_2_checkpoint(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    ckpt = out / "checkpoint.json"
    doc = read_json(ckpt)
    doc["format_version"] = 2
    del doc["feature_names"], doc["class_names"]
    ckpt.write_text(json.dumps(doc))
    assert run([
        "attribute", "--checkpoint", str(ckpt),
        "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert "version" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


def rename_columns(path, names):
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([",".join([*names, "label"]), *rows]) + "\n")


def test_checkpoint_records_the_training_header_and_classes(tmp_path):
    data = gen_small(tmp_path)
    names = [f"marker{i}" for i in range(28)]
    for tag in ("train", "val", "test"):
        rename_columns(data / f"{tag}.csv", names)
    out = train_small(tmp_path, data, "el")
    doc = read_json(out / "checkpoint.json")
    assert doc["format_version"] == 3
    assert doc["feature_names"] == names
    assert doc["class_names"] == ["class0", "class1", "class2", "class3"]
    attr = tmp_path / "attr"
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"), "--out", str(attr),
    ]) == 0
    header = (attr / "conductance.csv").read_text().splitlines()[0]
    assert header == ",".join(["symbol", "count", *names])


def test_attribute_rejects_other_feature_columns(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    names = [f"f{i}" for i in range(28)]
    swapped = [names[1], names[0], *names[2:]]
    renamed = [*names[:5], "gene5", *names[6:]]
    for case, columns in enumerate((swapped, renamed)):
        test_csv = tmp_path / f"test{case}.csv"
        test_csv.write_text((data / "test.csv").read_text())
        rename_columns(test_csv, columns)
        attr = tmp_path / f"attr{case}"
        assert run([
            "attribute", "--checkpoint", str(out / "checkpoint.json"),
            "--test-csv", str(test_csv), "--out", str(attr),
        ]) == 2
        assert "feature column" in capsys.readouterr().err
        assert not attr.exists()


def test_train_rejects_splits_with_other_feature_columns(tmp_path, capsys):
    data = gen_small(tmp_path)
    rename_columns(data / "val.csv", ["f1", "f0", *(f"f{i}" for i in range(2, 28))])
    assert run([
        "train", "--data", str(data), "--out", str(tmp_path / "out"),
        "--model", "baseline", *SMALL_TRAIN,
    ]) == 2
    assert "val.csv: feature column 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repro_small_end_to_end(tmp_path):
    out = tmp_path / "repro"
    assert run([
        "repro", "--out", str(out), "--seed", "1", *SMALL_GEN, *SMALL_TRAIN,
    ]) == 0
    comparison = read_json(out / "comparison.json")
    rows = {row["experiment"]: row for row in comparison["table"]}
    assert rows["baseline"]["symbols"] is None
    assert rows["el"]["symbols"]
    assert 0.0 <= rows["el"]["accuracy_percent"] <= 100.0
    for sub in ("data", "el", "baseline", "attribution"):
        assert (out / sub).is_dir()
    assert (out / "el" / "checkpoint.json").exists()
    assert (out / "attribution" / "conductance.csv").exists()


def _not_utf8(data):
    lines = (data / "test.csv").read_bytes().split(b"\n")
    lines[1] = lines[1].rsplit(b",", 1)[0] + b",caf\xe9"
    (data / "test.csv").write_bytes(b"\n".join(lines))


def _oversized_field(data):
    lines = (data / "test.csv").read_text().split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ',"' + "x" * 200_000 + '"'
    (data / "test.csv").write_text("\n".join(lines))


def _no_feature_column(data):
    for tag in ("train", "val", "test"):
        lines = (data / f"{tag}.csv").read_text().splitlines()
        (data / f"{tag}.csv").write_text(
            "".join(line.rsplit(",", 1)[1] + "\n" for line in lines))


def _label_column_twice(data):
    for tag in ("train", "val", "test"):
        header, *rows = (data / f"{tag}.csv").read_text().splitlines()
        (data / f"{tag}.csv").write_text(
            "".join(line + "\n" for line in [header + ",label",
                                              *(row + ",1.0" for row in rows)]))


def _val_without_a_class(data):
    header, *rows = (data / "val.csv").read_text().splitlines()
    rows = [row for row in rows if not row.endswith(",class0")]
    (data / "val.csv").write_text("\n".join([header, *rows]) + "\n")


def _set_first_column(data, tag, cells):
    """Rewrite the first feature column of tag's CSV as cells, in turn."""
    header, *rows = (data / f"{tag}.csv").read_text().splitlines()
    rows = [cells[i % len(cells)] + "," + row.split(",", 1)[1]
            for i, row in enumerate(rows)]
    (data / f"{tag}.csv").write_text("\n".join([header, *rows]) + "\n")


def _val_overflowing_after_scaling(data):
    # train's first column is 0 and 2e-150 in turn, so its standardized
    # scale is 1e-150, and 1e200 in val becomes 1e350, past float64's range
    _set_first_column(data, "train", ("0", "2e-150"))
    _set_first_column(data, "val", ("1e200",))


def _train_variance_overflowing(data):
    # train's first column is 1e200 and -1e200 in turn: its mean is 0, and
    # its variance overflows to an infinite std
    _set_first_column(data, "train", ("1e200", "-1e200"))


@pytest.mark.parametrize("corrupt, flags, message", [
    (_not_utf8, (), "test.csv: not UTF-8 text"),
    (_oversized_field, (), "test.csv: malformed CSV: field larger than field limit"),
    (_no_feature_column, (), "train.csv: header has no feature column"),
    (_label_column_twice, (), "train.csv: header names label column 'label' 2 times"),
    (_val_without_a_class, (), "val.csv classes ['class1', 'class2', 'class3'] do "
     "not match train.csv classes ['class0', 'class1', 'class2', 'class3']"),
    (_val_overflowing_after_scaling, ("--standardize",),
     "val features contain non-finite values"),
], ids=["not-utf8", "oversized-field", "no-feature-column", "label-column-twice",
        "val-lacks-a-class", "val-overflows-after-scaling"])
def test_train_rejects_a_malformed_csv_before_any_output(tmp_path, capsys, corrupt,
                                                         flags, message):
    data = gen_small(tmp_path)
    corrupt(data)
    out = tmp_path / "out"
    assert run(["train", "--data", str(data), "--out", str(out), *SMALL_TRAIN,
                *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("corrupt, message, trains", [
    (_train_variance_overflowing,
     "standardization must hold input_dim finite means and stds", False),
    (_val_overflowing_after_scaling, "val features contain non-finite values", True),
], ids=["train-variance-overflows", "val-overflows-after-scaling"])
def test_train_standardize_rejects_an_overflow_with_its_own_error_alone(
        tmp_path, capsys, monkeypatch, corrupt, message, trains):
    # the statistics are checked before any training, and numpy warns of
    # neither overflow: the run's one line of output is its error
    import warnings

    import emlang.cli

    def training_ran(*args):
        raise AssertionError("train ran before the standardization was checked")

    data = gen_small(tmp_path)
    corrupt(data)
    if not trains:
        monkeypatch.setattr(emlang.cli, "train", training_ran)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--data", str(data), "--out", str(out), *SMALL_TRAIN,
                    "--standardize"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_repro_keeps_the_stages_that_finished_when_el_diverges(tmp_path, capsys):
    # a temperature of 1e-310 overflows the channel on el's first epoch; the
    # baseline has no channel and never reads it, so its stage finishes
    import numpy as np

    train_flags = ["--seed", "0", "--vocab", "12", "--hidden", "12",
                   "--temperature", "1e-310", "--max-epochs", "3", "--patience", "3"]
    out = tmp_path / "repro"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["repro", "--out", str(out), *SMALL_GEN, *train_flags])
    assert code == 3
    assert "non-finite loss at epoch 1" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["baseline", "config.json", "data"]
    assert sorted(p.name for p in (out / "data").iterdir()) == [
        "spec.json", "test.csv", "train.csv", "val.csv"]
    names = ["checkpoint.json", "config.json", "eval_report.json", "training_log.csv"]
    assert sorted(p.name for p in (out / "baseline").iterdir()) == names
    # the kept stage is whole: the run `train` makes of the same data
    alone = tmp_path / "alone"
    assert run(["train", "--data", str(out / "data"), "--out", str(alone),
                "--model", "baseline", *train_flags]) == 0
    for name in names:
        assert (out / "baseline" / name).read_bytes() == (alone / name).read_bytes()


def test_train_and_attribute_runs_write_nothing(tmp_path, monkeypatch):
    import pickle

    from emlang.classifier import load_checkpoint
    from emlang.cli import (
        ATTRIBUTE_OPTIONS,
        REPRO_OPTIONS,
        TRAIN_OPTIONS,
        _attribute_run,
        _gen_run,
        _load_split_dir,
        _repro_run,
        _train_run,
        _write_run,
    )
    from emlang.data import SynthSpec, generate_synthetic

    def tree():
        return sorted((p.relative_to(tmp_path), p.is_dir() or p.stat().st_mtime_ns)
                      for p in tmp_path.rglob("*"))

    def defaults(options):
        return {name: default for name, (default, _) in options.items()}

    data = gen_small(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = tree()
    spec = SynthSpec(train_samples=90, val_samples=30, test_samples=30)
    files = _gen_run(spec, generate_synthetic(spec))
    assert tree() == before
    assert sorted(files) == ["spec.json", "test.csv", "train.csv", "val.csv"]
    splits = _load_split_dir(str(data), "label")
    files = _train_run({**defaults(TRAIN_OPTIONS), "vocab": 12, "hidden": 12,
                        "max_epochs": 5, "patience": 5}, splits)
    assert tree() == before
    assert sorted(files) == ["checkpoint.json", "config.json", "eval_report.json",
                             "training_log.csv"]
    # a run's files cross a process boundary as they are
    assert pickle.loads(pickle.dumps(files)) == files
    _write_run(tmp_path / "el", files)
    before = tree()
    checkpoint = load_checkpoint(read_json(tmp_path / "el" / "checkpoint.json"))
    files = _attribute_run(defaults(ATTRIBUTE_OPTIONS), checkpoint, splits[2],
                           str(data / "test.csv"))
    assert tree() == before
    assert sorted(files) == ["attribution_summary.json", "conductance.csv",
                             "config.json"]
    assert pickle.loads(pickle.dumps(files)) == files
    files, error = _repro_run({**defaults(REPRO_OPTIONS), "train_samples": 90,
                               "val_samples": 30, "test_samples": 30, "vocab": 12,
                               "hidden": 12, "max_epochs": 5, "patience": 5})
    assert error is None
    assert tree() == before
    assert sorted(files) == sorted([
        "config.json", "comparison.json",
        "data/spec.json", "data/test.csv", "data/train.csv", "data/val.csv",
        *(f"{kind}/{name}" for kind in ("baseline", "el") for name in (
            "checkpoint.json", "config.json", "eval_report.json", "training_log.csv")),
        "attribution/attribution_summary.json", "attribution/conductance.csv",
        "attribution/config.json",
    ])


def test_repro_writes_the_trees_of_its_stages(tmp_path):
    repro = tmp_path / "repro"
    flags = ["--seed", "3", *SMALL_GEN, *SMALL_TRAIN]
    assert run(["repro", "--out", str(repro), *flags]) == 0
    stages = tmp_path / "stages"
    assert run(["gen", "--out", str(stages / "data"), "--seed", "3", *SMALL_GEN]) == 0
    for kind in ("baseline", "el"):
        assert run(["train", "--data", str(stages / "data"), "--out",
                    str(stages / kind), "--model", kind, "--seed", "3",
                    *SMALL_TRAIN]) == 0
    assert run(["attribute", "--checkpoint", str(stages / "el" / "checkpoint.json"),
                "--test-csv", str(stages / "data" / "test.csv"),
                "--out", str(stages / "attribution")]) == 0
    for stage in ("data", "baseline", "el", "attribution"):
        names = sorted(p.name for p in (stages / stage).iterdir())
        assert sorted(p.name for p in (repro / stage).iterdir()) == names
        for name in names:
            assert ((repro / stage / name).read_bytes()
                    == (stages / stage / name).read_bytes()), f"{stage}/{name}"


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "-1", "learning_rate must be positive"),
    ("--baseline-vector", "1,2", "baseline vector has 2 entries"),
], ids=["lr", "baseline-vector"])
def test_repro_checks_the_options_before_training(tmp_path, capsys, monkeypatch,
                                                  flag, value, message):
    import emlang.cli

    def training_ran(*args):
        raise AssertionError("train ran before the options were checked")

    monkeypatch.setattr(emlang.cli, "train", training_ran)
    out = tmp_path / "out"
    assert run(["repro", "--out", str(out), *SMALL_GEN, *SMALL_TRAIN,
                flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_attribute_rejects_a_test_csv_without_rows(tmp_path, capsys):
    data = gen_small(tmp_path)
    test_csv = data / "test.csv"
    test_csv.write_text(test_csv.read_text().splitlines()[0] + "\n")
    assert run([
        "attribute", "--checkpoint", str(untrained_checkpoint(tmp_path)),
        "--test-csv", str(test_csv), "--out", str(tmp_path / "attr"),
    ]) == 2
    assert f"{test_csv}: no data rows" in capsys.readouterr().err
    assert not (tmp_path / "attr").exists()


@pytest.mark.parametrize("flags, message", [
    (("--config", "[]"), "config must be a JSON object"),
    (("--block-size", "0"), "block_size must be an int >= 1, got 0"),
], ids=["config-list", "block-size-0"])
def test_gen_rejects_a_bad_option_before_any_output(tmp_path, capsys, flags, message):
    flag, value = flags
    if flag == "--config":
        config = tmp_path / "config.json"
        config.write_text(value)
        value = str(config)
    out = tmp_path / "out"
    assert run(["gen", "--out", str(out), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# The int options' values a fuzzed run draws, as flag text and as --config
# values. None is large: a --hidden or --vocab of thousands passes every
# check and then asks numpy for gigabytes.
FLAG_TEXT = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["1.5", "1e3", "x"]))
CONFIG_VALUE = st.one_of(st.integers(-3, 40),
                         st.sampled_from([True, 1.5, "3", None, []]))

# command: (its options, the --config every fuzzed run starts from, which
# keeps the data and the training small)
FUZZED = {
    "gen": (GEN_OPTIONS, {"train_samples": 24, "val_samples": 8, "test_samples": 8}),
    "train": (TRAIN_OPTIONS, {"vocab": 6, "hidden": 6, "max_epochs": 1, "patience": 1}),
    "attribute": (ATTRIBUTE_OPTIONS, {}),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory for the fuzzed runs, and each command's input flags: a
    24/8/8-row data triple and an untrained checkpoint of its columns."""
    base = tmp_path_factory.mktemp("fuzz")
    data = base / "data"
    assert run(["gen", "--out", str(data), "--train-samples", "24",
                "--val-samples", "8", "--test-samples", "8"]) == 0
    return base, {
        "gen": [],
        "train": ["--data", str(data)],
        "attribute": ["--checkpoint", str(untrained_checkpoint(base)),
                      "--test-csv", str(data / "test.csv")],
    }


@pytest.mark.parametrize("command", sorted(FUZZED))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_int_option_value_exits_0_2_or_3_and_a_failure_writes_nothing(
        fuzz_inputs, command, data):
    base, inputs = fuzz_inputs
    options, config = FUZZED[command]
    names = st.sampled_from(sorted(name for name, (default, _) in options.items()
                                   if type(default) is int))
    flags = data.draw(st.dictionaries(names, FLAG_TEXT, max_size=2), label="flags")
    in_file = data.draw(st.dictionaries(names, CONFIG_VALUE, max_size=2),
                        label="config")
    run_dir = Path(tempfile.mkdtemp(dir=base))
    try:
        (run_dir / "config.json").write_text(json.dumps({**config, **in_file}))
        out = run_dir / "out"
        argv = [command, "--out", str(out), "--config", str(run_dir / "config.json"),
                *inputs[command]]
        for name, text in flags.items():
            argv += ["--" + name.replace("_", "-"), text]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects flag text that is no int
            code = exc.code
        event(f"exit {code}")
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
    finally:
        shutil.rmtree(run_dir)
