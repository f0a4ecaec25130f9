import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlang.classifier import (
    ModelGraph,
    _pack,
    TrainConfig,
    build_model,
    confusion_matrix,
    evaluate,
    load_checkpoint,
    macro_f1,
    save_checkpoint,
    train,
)
from emlang.data import Dataset, SynthSpec, generate_synthetic
from emlang.errors import InputError, NumericalError
from emlang.gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform
from emlang.nn import DenseLayer, log_softmax, softmax, softmax_cross_entropy
from gradcheck import (
    central_diff_inplace,
    grad_buffers,
    max_rel_err,
    min_abs_preactivation,
)


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
    logits, tape = el.forward(x, noise)
    symbols = hard_decode(tape.channel[1])
    assert logits.shape == (6, 3)
    assert symbols.shape == (6,)
    assert np.issubdtype(symbols.dtype, np.integer)
    assert np.all((0 <= symbols) & (symbols < 7))
    # each symbol is the argmax of the sampler's output under the same noise
    h = x
    for layer in el.sender:
        h = layer.forward(h)
    relaxed = el.bottleneck.relax(h, noise)[1]
    assert relaxed.shape == (6, 7)
    np.testing.assert_array_equal(symbols, np.argmax(relaxed, axis=1))

    baseline = build_model(5, 3, vocab_size=7, hidden_dim=4,
                           with_bottleneck=False, seed=2)
    logits, tape = baseline.forward(x)
    assert logits.shape == (6, 3)
    assert tape.channel is None


def test_eval_forward_emits_one_record_per_sample():
    model = build_model(5, 3, vocab_size=9, hidden_dim=4, seed=3)
    x = np.random.default_rng(4).normal(size=(1, 5))
    logits, symbols = model.decode(x)
    assert logits.shape == (1, 3)
    assert symbols.shape == (1,)
    assert 0 <= symbols[0] < 9
    # eval symbols are noise-free hard decodes: no relaxation is kept
    h = x
    for layer in model.sender:
        h = layer.forward(h)
    assert symbols[0] == np.argmax(h[0])


def test_eval_forward_is_deterministic():
    model = build_model(5, 3, vocab_size=9, hidden_dim=4, seed=5)
    x = np.random.default_rng(6).normal(size=(8, 5))
    first, sym_a = model.decode(x)
    second, sym_b = model.decode(x)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(sym_a, sym_b)


def test_bottleneck_bypass_reproduces_baseline_exactly():
    el = build_model(6, 4, vocab_size=8, hidden_dim=5, seed=7)
    baseline = build_model(6, 4, vocab_size=8, hidden_dim=5,
                           with_bottleneck=False, seed=7)
    x = np.random.default_rng(8).normal(size=(5, 6))
    el.bottleneck = None
    a, _ = el.decode(x)
    b, _ = baseline.decode(x)
    np.testing.assert_array_equal(a, b)


def test_zero_noise_unit_temperature_acts_as_softmax_bottleneck():
    model = build_model(4, 3, vocab_size=6, hidden_dim=4, temperature=1.0, seed=9)
    x = np.random.default_rng(10).normal(size=(3, 4))
    logits, _ = model.forward(x, np.zeros((3, 6)))
    h = x
    for layer in model.sender:
        h = layer.forward(h)
    h = softmax(h)
    for layer in model.receiver:
        h = layer.forward(h)
    np.testing.assert_allclose(logits, h, atol=1e-12)


def test_forward_dimension_check():
    model = build_model(4, 3, vocab_size=6, hidden_dim=4, seed=11)
    with pytest.raises(InputError):
        model.forward(np.zeros((2, 5)))


def test_graph_wiring_validation():
    el = build_model(4, 3, vocab_size=6, hidden_dim=4, seed=13)
    with pytest.raises(InputError):
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

    logits, tape = model.forward(x, noise)
    _, dlogits = softmax_cross_entropy(logits, labels)
    grads = grad_buffers(model.layers())
    input_grad = model.backward(tape, dlogits, grads, input_grad=True)

    def loss():
        out, _ = model.forward(x, noise)
        return softmax_cross_entropy(out, labels)[0]

    for layer, (gw, gb) in zip(model.layers(), grads):
        assert max_rel_err(gw, central_diff_inplace(loss, layer.weights)) <= 1e-5
        assert max_rel_err(gb, central_diff_inplace(loss, layer.bias)) <= 1e-5
    fd_input = central_diff_inplace(loss, x)
    assert max_rel_err(input_grad, fd_input) <= 1e-5


class CachedLayer:
    """Reference: a dense layer that caches its last forward pass, with the
    backward that reads the cache, as the layers did before the tape."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, x):
        self._input = x
        self._preact = x @ self.layer.weights.T + self.layer.bias
        if self.layer.activation == "relu":
            return np.maximum(self._preact, 0.0)
        return self._preact

    def backward(self, g):
        if self.layer.activation == "relu":
            g = g * (self._preact > 0.0)
        return g @ self.layer.weights, g.T @ self._input, g.sum(axis=0)


def cached_reference(model, x, noise, dlogits):
    """Logits, flat parameter gradient and input gradient of a train
    forward and backward through per-layer caches."""
    sender = [CachedLayer(layer) for layer in model.sender]
    receiver = [CachedLayer(layer) for layer in model.receiver]
    h = x
    for layer in sender:
        h = layer.forward(h)
    if model.bottleneck is not None:
        log_p = log_softmax(h)
        relaxed = softmax((log_p + noise) / model.bottleneck.temperature)
        probs = np.exp(log_p)
        h = relaxed
    for layer in receiver:
        h = layer.forward(h)
    logits = h
    g = dlogits
    grads = []
    for layer in reversed(receiver):
        g, gw, gb = layer.backward(g)
        grads.append((gw, gb))
    if model.bottleneck is not None:
        dz = relaxed * (g - (g * relaxed).sum(axis=1, keepdims=True))
        dlogp = dz / model.bottleneck.temperature
        g = dlogp - probs * dlogp.sum(axis=1, keepdims=True)
    for layer in reversed(sender):
        g, gw, gb = layer.backward(g)
        grads.append((gw, gb))
    flat = np.concatenate([a.ravel() for pair in reversed(grads) for a in pair])
    return logits, flat, g


@st.composite
def tape_cases(draw):
    """A random graph (widths, relu or identity layers, with or without the
    channel, temperature 1e-3..10), a batch of 1-40 rows, the channel noise
    and an upstream logit gradient."""
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    activation = st.sampled_from(["relu", "identity"])

    def stack(dims):
        return [
            DenseLayer(rng.normal(size=(out, inp)), rng.normal(size=out),
                       draw(activation))
            for inp, out in zip(dims, dims[1:])
        ]

    code = draw(st.integers(2, 8), label="code")
    sender_dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    receiver_dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    bottleneck = None
    if draw(st.booleans(), label="channel"):
        temperature = 10.0 ** draw(st.floats(-3.0, 1.0), label="log10_tau")
        bottleneck = GumbelSoftmaxSampler(code, temperature=temperature)
    model = ModelGraph(stack(sender_dims + [code]), stack([code] + receiver_dims),
                       bottleneck)
    batch = draw(st.integers(1, 40), label="batch")
    x = rng.normal(size=(batch, model.input_dim))
    noise = noise_from_uniform(rng.uniform(size=(batch, code)))
    dlogits = rng.normal(size=(batch, model.num_classes))
    return model, x, noise, dlogits


@settings(max_examples=150, deadline=None)
@given(case=tape_cases())
def test_tape_gradient_equals_cached_per_layer_backward_bit_for_bit(case):
    model, x, noise, dlogits = case
    want_logits, want_flat, want_input = cached_reference(model, x, noise, dlogits)

    _, grads, grad_views = _pack(model)
    grads[...] = np.nan  # every entry must be written
    logits, tape = model.forward(x, noise)
    assert model.backward(tape, dlogits, grad_views) is None
    assert np.array_equal(logits, want_logits)
    assert np.array_equal(grads, want_flat)

    input_grad = model.backward(tape, dlogits, grad_views, input_grad=True)
    assert np.array_equal(input_grad, want_input)
    assert np.array_equal(grads, want_flat)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    patience=st.integers(1, 6),
    extra_epochs=st.integers(0, 12),
    # 1e-30 moves no weight, so every epoch's validation loss ties
    learning_rate=st.sampled_from([1e-30, 1e-3, 0.1]),
    with_bottleneck=st.booleans(),
)
def test_train_stops_after_patience_epochs_without_a_lower_val_loss(
    seed, patience, extra_epochs, learning_rate, with_bottleneck
):
    max_epochs = patience + extra_epochs
    model = build_model(2, 2, vocab_size=4, hidden_dim=4,
                        with_bottleneck=with_bottleneck, seed=seed)
    config = TrainConfig(learning_rate=learning_rate, max_epochs=max_epochs,
                         patience=patience, vocab_size=4, seed=seed)
    log = train(model, two_class_toy(n=16, seed=seed),
                two_class_toy(n=8, seed=seed + 1), config)
    losses = [s.val_loss for s in log.epochs]
    assert [s.epoch for s in log.epochs] == list(range(1, len(losses) + 1))
    assert log.best_val_loss == min(losses)
    assert log.best_epoch == losses.index(min(losses)) + 1
    assert len(losses) == min(max_epochs, log.best_epoch + patience)


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
    noise = noise_from_uniform(val_rng.uniform(size=(val.num_samples, 4)))
    reproduced = dataset_loss(model, val, config.batch_size, noise)
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


def test_retraining_restored_initial_weights_repeats_the_run():
    # the model holds only its weights: every noise stream starts in `train`,
    # so one object trained twice from the same weights trains the same way
    ds = two_class_toy(n=16, seed=53)
    val = two_class_toy(n=8, seed=54)
    config = TrainConfig(max_epochs=6, patience=6, vocab_size=4, seed=55)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=55)
    initial = [(layer.weights.copy(), layer.bias.copy()) for layer in model.layers()]
    runs = []
    for _ in range(2):
        for layer, (weights, bias) in zip(model.layers(), initial):
            layer.weights[...] = weights
            layer.bias[...] = bias
        log = train(model, ds, val, config)
        runs.append((
            [(s.train_loss, s.val_loss) for s in log.epochs],
            [a.copy() for layer in model.layers() for a in (layer.weights, layer.bias)],
        ))
    (losses_a, params_a), (losses_b, params_b) = runs
    assert losses_a == losses_b
    for a, b in zip(params_a, params_b):
        np.testing.assert_array_equal(a, b)


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

    restored = load_checkpoint(json.loads(json.dumps(save_checkpoint(model)))).model
    for la, lb in zip(model.layers(), restored.layers()):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    logits_a, symbols_a = model.decode(ds.features)
    logits_b, symbols_b = restored.decode(ds.features)
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


def test_train_rejects_labels_outside_the_class_range():
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=57)
    config = TrainConfig(max_epochs=2, patience=2, vocab_size=4, seed=57)
    for split, label in (("train", -1), ("val", -1), ("val", 2)):
        sets = {"train": two_class_toy(n=12, seed=58),
                "val": two_class_toy(n=8, seed=59)}
        # set after construction, past the Dataset's own check
        sets[split].labels[0] = label
        with pytest.raises(InputError, match=r"labels span"):
            train(model, sets["train"], sets["val"], config)


def test_evaluate_peak_memory_at_the_attribute_shape():
    import tracemalloc

    # 2,000 test rows through the default 28-64-64-100 / 100-64-4 graph
    _, _, test_set = generate_synthetic(SynthSpec(test_samples=2000, seed=0))
    model = build_model(test_set.num_features, test_set.num_classes, seed=0)
    evaluate(model, test_set)
    tracemalloc.start()
    try:
        evaluate(model, test_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_train_divergence_reports_epoch():
    ds = two_class_toy(n=12, seed=26)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=26)
    config = TrainConfig(learning_rate=1e200, max_epochs=5, patience=5,
                         vocab_size=4, seed=26)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^non-finite loss at epoch [1-5]$"):
            train(model, ds, ds, config)


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(patience=30, max_epochs=20).validate()
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(InputError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(InputError):
        TrainConfig(temperature=-1.0).validate()
    with pytest.raises(InputError, match="vocab_size must be >= 2"):
        TrainConfig(vocab_size=1).validate()
    with pytest.raises(InputError, match="seed"):
        TrainConfig(seed=-1).validate()


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


# weights: moderate values, so an eval forward stays finite, plus the edge
# cases of their decimal text
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.0 / 3.0]),
    st.floats(-1e3, 1e3),
)
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@st.composite
def checkpoint_cases(draw):
    """A model of either kind with drawn weights, and the optional
    checkpoint sections: standardization, feature names, class names."""
    input_dim, num_classes = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    model = build_model(
        input_dim, num_classes, vocab_size=draw(st.integers(2, 5)),
        hidden_dim=draw(st.integers(1, 4)),
        temperature=draw(st.floats(1e-3, 10.0)),
        with_bottleneck=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)),
    )
    for layer in model.layers():
        layer.weights = draw(arrays(np.float64, layer.weights.shape, elements=WEIGHTS))
        layer.bias = draw(arrays(np.float64, layer.bias.shape, elements=WEIGHTS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    stats = draw(st.none() | st.tuples(arrays(np.float64, input_dim, elements=finite),
                                       arrays(np.float64, input_dim, elements=positive)))
    features = draw(st.none() | st.lists(NAMES, min_size=input_dim, max_size=input_dim))
    classes = draw(st.none() | st.lists(NAMES, min_size=num_classes,
                                        max_size=num_classes))
    x = draw(arrays(np.float64, (3, input_dim), elements=st.floats(-10.0, 10.0)))
    return model, stats, features, classes, x


@settings(max_examples=100, deadline=None)
@given(case=checkpoint_cases())
def test_checkpoint_round_trip_bit_exact(case):
    model, stats, features, classes, x = case
    doc = save_checkpoint(model, stats, features, classes)
    assert doc["format_version"] == 3
    # through JSON text, as the on-disk format would do
    doc = json.loads(json.dumps(doc))
    restored, got, got_features, got_classes = load_checkpoint(doc)
    for la, lb in zip(model.layers(), restored.layers(), strict=True):
        # bytes, so -0.0 must come back as -0.0
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
        assert la.activation == lb.activation
    if model.bottleneck is None:
        assert restored.bottleneck is None
    else:
        for name in ("vocab_size", "temperature", "rng_seed"):
            assert getattr(restored.bottleneck, name) == getattr(model.bottleneck, name)
    if stats is None:
        assert got is None
    else:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in stats]
    default = [f"f{i}" for i in range(model.input_dim)]
    assert (got_features, got_classes) == (features or default, classes)
    logits_a, symbols_a = model.decode(x)
    logits_b, symbols_b = restored.decode(x)
    assert logits_a.tobytes() == logits_b.tobytes()
    if model.bottleneck is None:
        assert symbols_a is None and symbols_b is None
    else:
        assert np.array_equal(symbols_a, symbols_b)


def test_checkpoint_baseline_round_trip_has_no_bottleneck():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4,
                        with_bottleneck=False, seed=37)
    restored = load_checkpoint(save_checkpoint(model)).model
    assert restored.bottleneck is None
    assert save_checkpoint(model)["kind"] == "baseline"


def test_checkpoint_standardization_round_trip_and_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    assert load_checkpoint(save_checkpoint(model)).standardization is None
    mean = np.array([0.1, -2.5, 1e3])
    std = np.array([1.0 / 3.0, 2.0, 7.5])
    doc = json.loads(json.dumps(save_checkpoint(model, (mean, std))))
    got_mean, got_std = load_checkpoint(doc).standardization
    np.testing.assert_array_equal(got_mean, mean)
    np.testing.assert_array_equal(got_std, std)
    for bad in (
        {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
        {"mean": [0.0, 0.0, 0.0], "std": [1.0, 0.0, 1.0]},
        {"mean": [0.0, None, 0.0], "std": [1.0, 1.0, 1.0]},
        {"mean": [0.0, 0.0, 0.0]},
        "not a mapping",
    ):
        with pytest.raises(InputError):
            load_checkpoint({**doc, "standardization": bad})
    missing = {k: v for k, v in doc.items() if k != "standardization"}
    with pytest.raises(InputError):
        load_checkpoint(missing)


def test_checkpoint_names_round_trip_and_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=41)
    assert load_checkpoint(save_checkpoint(model))[2:] == (["f0", "f1", "f2"], None)
    doc = json.loads(json.dumps(
        save_checkpoint(model, None, ["b", "a", "c"], ["no", "yes"])
    ))
    assert load_checkpoint(doc)[2:] == (["b", "a", "c"], ["no", "yes"])
    for key, bad in (
        ("feature_names", ["a", "b"]),
        ("feature_names", ["a", 1, "c"]),
        ("feature_names", None),
        ("class_names", ["only"]),
        ("class_names", "no,yes"),
    ):
        with pytest.raises(InputError):
            load_checkpoint({**doc, key: bad})
    with pytest.raises(InputError):
        load_checkpoint({k: v for k, v in doc.items() if k != "feature_names"})


def test_checkpoint_version_and_corruption_errors():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=38)
    doc = save_checkpoint(model)
    with pytest.raises(InputError):
        load_checkpoint({**doc, "format_version": 99})
    with pytest.raises(InputError):
        load_checkpoint({**doc, "format_version": 1})
    with pytest.raises(InputError):
        load_checkpoint({**doc, "format_version": 2})
    with pytest.raises(InputError):
        load_checkpoint({**doc, "kind": "mystery"})
    truncated = {**doc, "sender": doc["sender"][:1]}
    with pytest.raises(InputError):
        load_checkpoint(truncated)
    bad_shape = json.loads(json.dumps(doc))
    bad_shape["receiver"][0]["weights"] = bad_shape["receiver"][0]["weights"][:-3]
    with pytest.raises(InputError):
        load_checkpoint(bad_shape)
    with pytest.raises(InputError):
        load_checkpoint("not a mapping")
    # json reads NaN and Infinity, so they reach the loader as floats
    for section, value in (("sender", float("nan")), ("receiver", float("-inf"))):
        bad = json.loads(json.dumps(doc))
        bad[section][-1]["bias"][0] = value
        with pytest.raises(InputError, match="finite"):
            load_checkpoint(bad)


@pytest.mark.parametrize("key, value", [
    ("sampler_seed", 1.5),
    ("sampler_seed", True),
    ("temperature", True),
    ("vocab_size", 5.0),
    ("vocab_size", True),
])
def test_checkpoint_sampler_fields_are_not_coerced(key, value):
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    with pytest.raises(InputError, match="must be an integer|must be a real"):
        load_checkpoint({**save_checkpoint(model), key: value})


def test_checkpoint_temperature_may_be_an_int():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    loaded = load_checkpoint({**save_checkpoint(model), "temperature": 2}).model
    assert loaded.bottleneck.temperature == 2.0
    assert type(loaded.bottleneck.temperature) is float


def test_channel_forward_without_noise_names_the_noise_it_needs():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4)
    with pytest.raises(InputError, match=r"channel needs \[batch, 5\] Gumbel noise"):
        model.forward(np.zeros((2, 3)))


@pytest.mark.parametrize("key, value", [
    ("sender", 5),
    ("vocab_size", "x"),
    ("temperature", "x"),
    ("sampler_seed", "x"),
    ("sampler_seed", -1),
    ("standardization", 5),
    ("standardization", {"mean": "x", "std": [1.0, 1.0, 1.0]}),
])
def test_malformed_checkpoint_sections_raise_input_error(key, value):
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    doc = {**save_checkpoint(model), key: value}
    with pytest.raises(InputError):
        load_checkpoint(doc)
