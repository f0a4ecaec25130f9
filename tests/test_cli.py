import json
from pathlib import Path

import pytest

from emlang.cli import main

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
        "--out", str(tmp_path / "attr"), "--riemann-steps", "20",
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

    config.write_text(json.dumps({"output_mode": "probability", "riemann_steps": 25}))
    assert run(["attribute", "--checkpoint", str(out / "el" / "checkpoint.json"),
                "--test-csv", str(out / "data" / "test.csv"),
                "--out", str(tmp_path / "attr"), "--config", str(config),
                "--riemann-steps", "20"]) == 0
    echo = read_json(tmp_path / "attr" / "config.json")
    assert (echo["output_mode"], echo["riemann_steps"]) == ("probability", 20)


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


def test_attribute_outputs(tmp_path):
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    attr = tmp_path / "attr"
    assert run([
        "attribute", "--checkpoint", str(out / "checkpoint.json"),
        "--test-csv", str(data / "test.csv"), "--out", str(attr),
        "--riemann-steps", "40",
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
        "--riemann-steps", "20", "--baseline-vector", vec,
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
    # two processes, so the error also crosses from the worker path
    import numpy as np

    from emlang import attribution

    monkeypatch.setattr(attribution, "_processes", lambda num_blocks: 2)
    data = gen_small(tmp_path)
    out = train_small(tmp_path, data, "el")
    doc = read_json(out / "checkpoint.json")
    layer = doc[section][-1]
    layer["weights"] = [1e308] * len(layer["weights"])
    ckpt = tmp_path / "overflow.json"
    ckpt.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([
            "attribute", "--checkpoint", str(ckpt),
            "--test-csv", str(data / "test.csv"), "--out", str(tmp_path / "attr"),
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
    ("--hidden", "0", "hidden must be a positive integer"),
    ("--riemann-steps", "0", "riemann_steps must be >= 1"),
    ("--baseline-vector", "1,2", "baseline vector has 2 entries"),
    ("--vocab", "1", "vocab_size must be >= 2"),
    ("--test-samples", "3", "test_samples must be >= num_classes"),
    ("--label-column", "f0", "label column 'f0' names a feature"),
], ids=["lr", "hidden", "riemann-steps", "baseline-vector", "vocab", "test-samples",
        "label-column"])
def test_repro_checks_every_option_before_any_output(tmp_path, capsys, flag, value,
                                                     message):
    out = tmp_path / "out"
    assert run(["repro", "--out", str(out), *SMALL_GEN, *SMALL_TRAIN,
                flag, value]) == 2
    assert message in capsys.readouterr().err
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
    assert "sampler seed must be an integer, got 1.5" in capsys.readouterr().err
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
    assert "seed must be >= 0" in capsys.readouterr().err
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
        "--riemann-steps", "40",
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
