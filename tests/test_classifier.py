import json

import numpy as np
import pytest

from emlang.classifier import (
    EarlyStopping,
    ModelGraph,
    TrainConfig,
    build_model,
    checkpoint_names,
    checkpoint_standardization,
    confusion_matrix,
    evaluate,
    load_checkpoint,
    macro_f1,
    save_checkpoint,
    train,
)
from emlang.data import Dataset
from emlang.errors import (
    DimensionError,
    FormatError,
    InputError,
    StateError,
    TrainingDivergedError,
)
from emlang.gumbel import noise_from_uniform
from emlang.nn import softmax, softmax_cross_entropy
from gradcheck import central_diff_inplace, max_rel_err, min_abs_preactivation


def two_class_toy(n=20, seed=0):
    """Linearly separable 2-feature, 2-class set."""
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    centers = np.array([[-2.0, -2.0], [2.0, 2.0]])
    features = centers[labels] + rng.normal(scale=0.3, size=(n, 2))
    return Dataset(features, labels, ["neg", "pos"])


def test_forward_shapes_and_records():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 5))
    el = build_model(5, 3, vocab_size=7, hidden_dim=4, seed=2)
    noise = noise_from_uniform(rng.uniform(size=(6, 7)))
    logits, symbols = el.forward(x, mode="train", noise=noise)
    assert logits.shape == (6, 3)
    assert symbols.shape == (6,)
    assert np.issubdtype(symbols.dtype, np.integer)
    assert np.all((0 <= symbols) & (symbols < 7))
    # each symbol is the argmax of the sampler's output under the same noise
    h = x
    for layer in el.sender:
        h = layer.forward(h)
    relaxed = el.bottleneck.forward(h, noise=noise, mode="soft")
    assert relaxed.shape == (6, 7)
    np.testing.assert_array_equal(symbols, np.argmax(relaxed, axis=1))

    baseline = build_model(5, 3, vocab_size=7, hidden_dim=4,
                           with_bottleneck=False, seed=2)
    logits, symbols = baseline.forward(x, mode="train")
    assert logits.shape == (6, 3)
    assert symbols is None


def test_eval_forward_emits_one_record_per_sample():
    model = build_model(5, 3, vocab_size=9, hidden_dim=4, seed=3)
    x = np.random.default_rng(4).normal(size=(1, 5))
    logits, symbols = model.forward(x, mode="eval")
    assert logits.shape == (1, 3)
    assert symbols.shape == (1,)
    assert 0 <= symbols[0] < 9
    # eval symbols are noise-free hard decodes: no relaxation is kept
    h = x
    for layer in model.sender:
        h = layer.forward(h)
    assert symbols[0] == np.argmax(h[0])
    with pytest.raises(StateError):
        model.backward(np.zeros((1, 3)))


def test_eval_forward_is_deterministic():
    model = build_model(5, 3, vocab_size=9, hidden_dim=4, seed=5)
    x = np.random.default_rng(6).normal(size=(8, 5))
    first, sym_a = model.forward(x, mode="eval")
    second, sym_b = model.forward(x, mode="eval")
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(sym_a, sym_b)


def test_bottleneck_bypass_reproduces_baseline_exactly():
    el = build_model(6, 4, vocab_size=8, hidden_dim=5, seed=7)
    baseline = build_model(6, 4, vocab_size=8, hidden_dim=5,
                           with_bottleneck=False, seed=7)
    x = np.random.default_rng(8).normal(size=(5, 6))
    el.bottleneck = None
    a, _ = el.forward(x, mode="eval")
    b, _ = baseline.forward(x, mode="eval")
    np.testing.assert_array_equal(a, b)


def test_zero_noise_unit_temperature_acts_as_softmax_bottleneck():
    model = build_model(4, 3, vocab_size=6, hidden_dim=4, temperature=1.0, seed=9)
    x = np.random.default_rng(10).normal(size=(3, 4))
    logits, _ = model.forward(x, mode="train", noise=np.zeros((3, 6)))
    h = x
    for layer in model.sender:
        h = layer.forward(h)
    h = softmax(h)
    for layer in model.receiver:
        h = layer.forward(h)
    np.testing.assert_allclose(logits, h, atol=1e-12)


def test_forward_dimension_check():
    model = build_model(4, 3, vocab_size=6, hidden_dim=4, seed=11)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((2, 5)))


def test_backward_requires_train_forward():
    model = build_model(4, 3, vocab_size=6, hidden_dim=4, seed=12)
    with pytest.raises(StateError):
        model.backward(np.ones((2, 3)))
    model.forward(np.zeros((2, 4)), mode="eval")
    with pytest.raises(StateError):
        model.backward(np.ones((2, 3)))


def test_graph_wiring_validation():
    el = build_model(4, 3, vocab_size=6, hidden_dim=4, seed=13)
    with pytest.raises(DimensionError):
        ModelGraph(el.sender, el.sender, None)


def test_end_to_end_gradients_match_finite_differences():
    # input 6 -> K=5 -> C=3, frozen noise, every parameter of every layer
    rng = np.random.default_rng(14)
    model = None
    for attempt in range(50):
        candidate = build_model(6, 3, vocab_size=5, hidden_dim=4,
                                seed=1000 + attempt)
        x = rng.normal(size=(3, 6))
        if min_abs_preactivation(candidate.layers(), x) > 1e-3:
            model = candidate
            break
    assert model is not None
    labels = np.array([0, 2, 1])
    noise = noise_from_uniform(np.random.default_rng(15).uniform(size=(3, 5)))

    logits, _ = model.forward(x, mode="train", noise=noise)
    _, dlogits = softmax_cross_entropy(logits, labels)
    input_grad, grads = model.backward(dlogits)

    def loss():
        out, _ = model.forward(x, mode="train", noise=noise)
        return softmax_cross_entropy(out, labels)[0]

    for layer, gw, gb in grads:
        assert max_rel_err(gw, central_diff_inplace(loss, layer.weights)) <= 1e-5
        assert max_rel_err(gb, central_diff_inplace(loss, layer.bias)) <= 1e-5
    fd_input = central_diff_inplace(loss, x)
    assert max_rel_err(input_grad, fd_input) <= 1e-5


def test_early_stopping_policy_trace():
    stopper = EarlyStopping(patience=2)
    improvements = [stopper.update(e, v)
                    for e, v in enumerate([1.0, 0.9, 0.95, 0.97], start=1)]
    assert improvements == [True, True, False, False]
    assert stopper.should_stop
    assert stopper.best_epoch == 2
    assert stopper.best_loss == 0.9


def test_early_stopping_not_triggered_while_improving():
    stopper = EarlyStopping(patience=2)
    for epoch, loss in enumerate([1.0, 0.9, 0.8, 0.7], start=1):
        stopper.update(epoch, loss)
        assert not stopper.should_stop


def test_train_restores_best_epoch_parameters():
    ds = two_class_toy(n=20, seed=16)
    val = two_class_toy(n=10, seed=17)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=18)
    config = TrainConfig(max_epochs=30, patience=5, vocab_size=4, seed=18)
    log = train(model, ds, val, config)
    assert log.best_epoch >= 1
    assert log.best_val_loss == min(s.val_loss for s in log.epochs)
    # restored parameters reproduce the best recorded validation loss
    from emlang.classifier import dataset_loss, _VAL_NOISE_STREAM

    val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
    reproduced = dataset_loss(model, val, config.batch_size, noise_rng=val_rng)
    assert reproduced == pytest.approx(log.best_val_loss, abs=1e-12)


@pytest.mark.parametrize("kind", ["baseline", "el"])
def test_separable_toy_reaches_full_train_accuracy(kind):
    ds = two_class_toy(n=20, seed=19)
    val = two_class_toy(n=10, seed=20)
    model = build_model(2, 2, vocab_size=8, hidden_dim=8,
                        with_bottleneck=kind == "el", seed=21)
    config = TrainConfig(max_epochs=200, patience=200, vocab_size=8, seed=21)
    train(model, ds, val, config)
    report = evaluate(model, ds)
    assert report.accuracy == 1.0


def test_training_is_bit_deterministic():
    def run():
        ds = two_class_toy(n=16, seed=22)
        val = two_class_toy(n=8, seed=23)
        model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=24)
        config = TrainConfig(max_epochs=12, patience=12, vocab_size=4, seed=24)
        log = train(model, ds, val, config)
        return model, log

    model_a, log_a = run()
    model_b, log_b = run()
    assert [(s.epoch, s.train_loss, s.val_loss) for s in log_a.epochs] == [
        (s.epoch, s.train_loss, s.val_loss) for s in log_b.epochs
    ]
    for la, lb in zip(model_a.layers(), model_b.layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)


@pytest.mark.parametrize("with_bottleneck", [True, False], ids=["el", "baseline"])
def test_train_twice_from_one_config_gives_equal_parameters(with_bottleneck):
    ds = two_class_toy(n=16, seed=50)
    val = two_class_toy(n=8, seed=51)
    config = TrainConfig(max_epochs=10, patience=3, vocab_size=4, seed=52)

    def run():
        model = build_model(2, 2, vocab_size=4, hidden_dim=4,
                            with_bottleneck=with_bottleneck, seed=52)
        train(model, ds, val, config)
        return [a.copy() for layer in model.layers()
                for a in (layer.weights, layer.bias)]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_trained_model_round_trips_through_checkpoint():
    ds = two_class_toy(n=16, seed=53)
    val = two_class_toy(n=8, seed=54)
    model = build_model(2, 2, vocab_size=5, hidden_dim=4, seed=55)
    train(model, ds, val, TrainConfig(max_epochs=10, patience=4, vocab_size=5,
                                      seed=55))
    # the trained layers are views into one flat parameter vector
    params = [a for layer in model.layers() for a in (layer.weights, layer.bias)]
    assert len({id(a.base) for a in params}) == 1
    assert params[0].base.size == sum(a.size for a in params)

    restored = load_checkpoint(json.loads(json.dumps(save_checkpoint(model))))
    for la, lb in zip(model.layers(), restored.layers()):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    logits_a, symbols_a = model.forward(ds.features, mode="eval")
    logits_b, symbols_b = restored.forward(ds.features, mode="eval")
    assert np.array_equal(logits_a, logits_b)
    assert np.array_equal(symbols_a, symbols_b)

    # training the original further leaves the restored copy untouched
    saved = [lb.weights.copy() for lb in restored.layers()]
    train(model, ds, val, TrainConfig(max_epochs=2, patience=2, vocab_size=5,
                                      seed=56))
    for lb, weights in zip(restored.layers(), saved):
        assert np.array_equal(lb.weights, weights)


def test_train_rejects_empty_datasets():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"])
    ds = two_class_toy(n=10, seed=25)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=25)
    with pytest.raises(InputError):
        train(model, empty, ds, TrainConfig(vocab_size=4))
    with pytest.raises(InputError):
        train(model, ds, empty, TrainConfig(vocab_size=4))


def test_train_divergence_reports_epoch():
    ds = two_class_toy(n=12, seed=26)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=26)
    config = TrainConfig(learning_rate=1e200, max_epochs=5, patience=5,
                         vocab_size=4, seed=26)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(model, ds, ds, config)
    assert excinfo.value.epoch >= 1


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(patience=30, max_epochs=20).validate()
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(InputError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(InputError):
        TrainConfig(temperature=-1.0).validate()


def test_train_config_defaults():
    config = TrainConfig()
    assert config.learning_rate == 1e-3
    assert config.batch_size == 32
    assert config.vocab_size == 100
    assert config.temperature == 1.0
    assert config.patience == 10


def test_macro_f1_hand_computed_binary_case():
    # class 1: TP=2 FP=1 FN=1 -> F1 = 2*2/(2*2+1+1) = 2/3; class 0 mirrors it
    labels = [1, 1, 1, 0, 0, 0]
    predictions = [1, 1, 0, 1, 0, 0]
    assert macro_f1(labels, predictions, 2) == pytest.approx(2.0 / 3.0)
    cm = confusion_matrix(labels, predictions, 2)
    assert cm.tolist() == [[2, 1], [1, 2]]


def test_macro_f1_perfect_and_absent_classes():
    assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0
    # class 2 absent from both truth and prediction contributes zero
    assert macro_f1([0, 1], [0, 1], 3) == pytest.approx(2.0 / 3.0)


def test_evaluate_perfect_classifier_metrics():
    ds = two_class_toy(n=20, seed=27)
    val = two_class_toy(n=10, seed=28)
    model = build_model(2, 2, vocab_size=8, hidden_dim=8, seed=29)
    train(model, ds, val, TrainConfig(max_epochs=200, patience=200,
                                      vocab_size=8, seed=29))
    report = evaluate(model, ds)
    assert report.accuracy == 1.0
    assert report.f1 == 1.0


def test_evaluate_symbol_inventory_consistency():
    ds = two_class_toy(n=24, seed=30)
    model = build_model(2, 2, vocab_size=6, hidden_dim=4, seed=31)
    report = evaluate(model, ds)
    assert report.symbols == sorted(report.symbols)
    assert len(set(report.symbols)) == len(report.symbols)
    assert sum(s.count for s in report.symbol_inventory) == ds.num_samples
    for stat in report.symbol_inventory:
        assert sum(stat.predicted_class_counts) == stat.count
    assert len(report.symbols) <= min(6, ds.num_samples)


def test_evaluate_baseline_has_empty_inventory():
    ds = two_class_toy(n=10, seed=32)
    model = build_model(2, 2, vocab_size=6, hidden_dim=4,
                        with_bottleneck=False, seed=33)
    report = evaluate(model, ds)
    assert report.symbol_inventory == []
    assert report.to_dict()["symbols"] is None


def test_evaluate_empty_test_set():
    model = build_model(2, 2, vocab_size=6, hidden_dim=4, seed=34)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"])
    with pytest.raises(InputError):
        evaluate(model, empty)


def test_checkpoint_round_trip_bit_exact():
    ds = two_class_toy(n=16, seed=35)
    model = build_model(2, 2, vocab_size=5, hidden_dim=4, seed=36)
    train(model, ds, ds, TrainConfig(max_epochs=5, patience=5, vocab_size=5,
                                     seed=36))
    doc = save_checkpoint(model)
    # through JSON text, as the on-disk format would do
    restored = load_checkpoint(json.loads(json.dumps(doc)))
    for la, lb in zip(model.layers(), restored.layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation
    before = evaluate(model, ds)
    after = evaluate(restored, ds)
    assert before.accuracy == after.accuracy
    assert before.f1 == after.f1
    assert before.symbols == after.symbols


def test_checkpoint_baseline_round_trip_has_no_bottleneck():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4,
                        with_bottleneck=False, seed=37)
    restored = load_checkpoint(save_checkpoint(model))
    assert restored.bottleneck is None
    assert save_checkpoint(model)["kind"] == "baseline"


def test_checkpoint_standardization_round_trip_and_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    assert checkpoint_standardization(save_checkpoint(model)) is None
    mean = np.array([0.1, -2.5, 1e3])
    std = np.array([1.0 / 3.0, 2.0, 7.5])
    doc = json.loads(json.dumps(save_checkpoint(model, (mean, std))))
    got_mean, got_std = checkpoint_standardization(doc)
    np.testing.assert_array_equal(got_mean, mean)
    np.testing.assert_array_equal(got_std, std)
    for bad in (
        {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
        {"mean": [0.0, 0.0, 0.0], "std": [1.0, 0.0, 1.0]},
        {"mean": [0.0, None, 0.0], "std": [1.0, 1.0, 1.0]},
        {"mean": [0.0, 0.0, 0.0]},
        "not a mapping",
    ):
        with pytest.raises(FormatError):
            checkpoint_standardization({**doc, "standardization": bad})
    missing = {k: v for k, v in doc.items() if k != "standardization"}
    with pytest.raises(FormatError):
        checkpoint_standardization(missing)


def test_checkpoint_names_round_trip_and_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=41)
    assert checkpoint_names(save_checkpoint(model)) == (["f0", "f1", "f2"], None)
    doc = json.loads(json.dumps(
        save_checkpoint(model, None, ["b", "a", "c"], ["no", "yes"])
    ))
    assert checkpoint_names(doc) == (["b", "a", "c"], ["no", "yes"])
    for key, bad in (
        ("feature_names", ["a", "b"]),
        ("feature_names", ["a", 1, "c"]),
        ("feature_names", None),
        ("class_names", ["only"]),
        ("class_names", "no,yes"),
    ):
        with pytest.raises(FormatError):
            checkpoint_names({**doc, key: bad})
    with pytest.raises(FormatError):
        checkpoint_names({k: v for k, v in doc.items() if k != "feature_names"})


def test_checkpoint_version_and_corruption_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=38)
    doc = save_checkpoint(model)
    with pytest.raises(FormatError):
        load_checkpoint({**doc, "format_version": 99})
    with pytest.raises(FormatError):
        load_checkpoint({**doc, "format_version": 1})
    with pytest.raises(FormatError):
        load_checkpoint({**doc, "format_version": 2})
    with pytest.raises(FormatError):
        load_checkpoint({**doc, "kind": "mystery"})
    truncated = {**doc, "sender": doc["sender"][:1]}
    with pytest.raises(FormatError):
        load_checkpoint(truncated)
    bad_shape = json.loads(json.dumps(doc))
    bad_shape["receiver"][0]["weights"] = bad_shape["receiver"][0]["weights"][:-3]
    with pytest.raises(FormatError):
        load_checkpoint(bad_shape)
    with pytest.raises(FormatError):
        load_checkpoint("not a mapping")
