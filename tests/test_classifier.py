import copy
import json
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlang.classifier import (
    _SHUFFLE_STREAM,
    _VAL_NOISE_STREAM,
    DECODE_ROWS,
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
from emlang.data import (
    Dataset,
    SynthSpec,
    dataset_csv,
    generate_synthetic,
    load_csv,
    write_csv,
)
from emlang.errors import InputError, NumericalError
from emlang.gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform
from emlang.nn import (
    AdamState,
    DenseLayer,
    adam_step,
    cross_entropy,
    log_softmax,
    softmax,
    softmax_cross_entropy,
)
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


@pytest.mark.parametrize("with_bottleneck", [True, False], ids=["el", "baseline"])
def test_decode_matches_decode_of_each_chunk(with_bottleneck):
    # three chunks, the last one partial
    x = np.random.default_rng(40).normal(size=(2 * DECODE_ROWS + 17, 6))
    model = build_model(6, 3, vocab_size=8, hidden_dim=10,
                        with_bottleneck=with_bottleneck, seed=40)
    logits, symbols = model.decode(x)
    assert logits.shape == (x.shape[0], 3)
    for start in range(0, x.shape[0], DECODE_ROWS):
        rows = slice(start, start + DECODE_ROWS)
        chunk_logits, chunk_symbols = model.decode(x[rows])
        assert logits[rows].tobytes() == chunk_logits.tobytes()
        if with_bottleneck:
            assert symbols[rows].tobytes() == chunk_symbols.tobytes()
        else:
            assert symbols is None and chunk_symbols is None


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


@pytest.mark.parametrize("kwargs, message", [
    ({"hidden_dim": 0}, "hidden must be an int >= 1, got 0"),
    ({"hidden_dim": -1}, "hidden must be an int >= 1, got -1"),
    ({"with_bottleneck": False, "vocab_size": 1}, "vocab_size must be an int >= 2, got 1"),
    ({"with_bottleneck": False, "temperature": -1.0},
     "temperature must be a finite number > 0, got -1.0"),
    ({"seed": -1}, "seed must be an int >= 0, got -1"),
    ({"seed": -2}, "seed must be an int >= 0, got -2"),
    ({"seed": 1.0}, "seed must be an int >= 0, got 1.0"),
    ({"input_dim": 0}, "input_dim must be an int >= 1, got 0"),
    ({"num_classes": 0}, "num_classes must be an int >= 1, got 0"),
    ({"num_classes": 2.0}, "num_classes must be an int >= 1, got 2.0"),
], ids=["hidden-0", "hidden-negative", "baseline-vocab", "baseline-temperature",
        "seed-negative", "seed-below-the-channel's", "seed-float", "no-inputs",
        "no-classes", "float-classes"])
def test_build_model_checks_its_arguments(kwargs, message):
    # the messages `emlang train` prints for --hidden, --vocab and
    # --temperature, for either model kind; the seed is checked before the
    # channel's seed + 1, and a model has at least one input and one class
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build_model(**{"input_dim": 28, "num_classes": 4, **kwargs})


@pytest.mark.parametrize("kwargs, refusal", [
    ({"hidden_dim": 10**30}, "Maximum allowed dimension exceeded"),
    ({"hidden_dim": 2**62}, "array is too big"),
    ({"vocab_size": 10**30}, "Maximum allowed dimension exceeded"),
    ({"vocab_size": 2**62}, "array is too big"),
    # no float64 holds it, so the layer's Glorot limit fails first
    ({"hidden_dim": 10**400}, "int too large to convert to float"),
], ids=["hidden-1e30", "hidden-2**62", "vocab-1e30", "vocab-2**62", "hidden-1e400"])
def test_build_model_turns_a_layer_numpy_cannot_allocate_into_an_input_error(
        kwargs, refusal):
    # numpy rejects each size before it allocates anything; no count has an
    # upper bound of its own
    message = f"hidden and vocab_size make a layer too large to allocate: {refusal}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}"):
        build_model(28, 4, **kwargs)


def test_build_model_passes_an_input_error_from_a_layer_through(monkeypatch):
    # InputError is a ValueError, and must not be reworded as a refusal
    import emlang.nn

    def rejected(rng, fan_out, fan_in):
        raise InputError("rejected layer")

    monkeypatch.setattr(emlang.nn, "glorot_uniform", rejected)
    with pytest.raises(InputError, match="^rejected layer$"):
        build_model(28, 4)


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
                         patience=patience, seed=seed)
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
    config = TrainConfig(max_epochs=30, patience=5, seed=18)
    log = train(model, ds, val, config)
    assert log.best_epoch >= 1
    assert log.best_val_loss == min(s.val_loss for s in log.epochs)
    # restored parameters reproduce the best recorded validation loss
    from emlang.classifier import dataset_loss, _numpy_steps, _VAL_NOISE_STREAM

    val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
    noise = noise_from_uniform(val_rng.uniform(size=(val.num_samples, 4)))
    step = _numpy_steps(model, None)(val.features, val.labels, noise=noise)
    reproduced = dataset_loss(step, val.num_samples, config.batch_size)
    assert reproduced == pytest.approx(log.best_val_loss, abs=1e-12)


@pytest.mark.parametrize("kind", ["baseline", "el"])
def test_separable_toy_reaches_full_train_accuracy(kind):
    ds = two_class_toy(n=20, seed=19)
    val = two_class_toy(n=10, seed=20)
    model = build_model(2, 2, vocab_size=8, hidden_dim=8,
                        with_bottleneck=kind == "el", seed=21)
    config = TrainConfig(max_epochs=200, patience=200, seed=21)
    train(model, ds, val, config)
    report = evaluate(model, ds)
    assert report["accuracy"] == 1.0


def test_training_is_bit_deterministic():
    def run():
        ds = two_class_toy(n=16, seed=22)
        val = two_class_toy(n=8, seed=23)
        model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=24)
        config = TrainConfig(max_epochs=12, patience=12, seed=24)
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


def reference_losses(model, train_set, val_set, config):
    """Each epoch's (train, validation) mean loss, from a per-batch loop
    that draws the shuffle, the noise and Adam's state from `train`'s seeds
    and streams, and runs every epoch of config.max_epochs."""
    params, grads, grad_views = _pack(model)
    state = AdamState(params, grads, learning_rate=config.learning_rate)
    shuffle = np.random.default_rng(config.seed + _SHUFFLE_STREAM)
    symbols = model.bottleneck is not None
    if symbols:
        draws = np.random.default_rng(model.bottleneck.rng_seed)
        val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
        val_noise = noise_from_uniform(
            val_rng.random((val_set.num_samples, model.vocab_size)))
    losses = []
    for _ in range(config.max_epochs):
        order = shuffle.permutation(train_set.num_samples)
        total = 0.0
        for start in range(0, train_set.num_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            noise = None
            if symbols:
                noise = noise_from_uniform(
                    draws.random((len(idx), model.vocab_size)))
            logits, tape = model.forward(train_set.features[idx], noise)
            loss, dlogits = cross_entropy(logits, train_set.labels[idx])
            total += loss * len(idx)
            model.backward(tape, dlogits, grad_views)
            adam_step(state)
        val_total = 0.0
        for start in range(0, val_set.num_samples, config.batch_size):
            idx = np.arange(start, min(start + config.batch_size,
                                       val_set.num_samples))
            logits, _ = model.forward(val_set.features[idx],
                                      val_noise[idx] if symbols else None)
            val_total += cross_entropy(logits, val_set.labels[idx])[0] * len(idx)
        losses.append((total / train_set.num_samples,
                       val_total / val_set.num_samples))
    return losses


@pytest.mark.parametrize("with_bottleneck", [True, False], ids=["el", "baseline"])
def test_train_losses_match_a_per_batch_reference(with_bottleneck):
    # 21 and 11 rows in batches of 8: both splits end in a partial batch
    ds, val = (Dataset(toy.features[:-1], toy.labels[:-1], toy.class_names)
               for toy in (two_class_toy(n=22, seed=60),
                           two_class_toy(n=12, seed=61)))
    config = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=4,
                         patience=4, seed=62)

    def fresh():
        return build_model(2, 2, vocab_size=4, hidden_dim=4,
                           with_bottleneck=with_bottleneck, seed=63)

    log = train(fresh(), ds, val, config)
    expected = reference_losses(fresh(), ds, val, config)
    assert [(s.train_loss, s.val_loss) for s in log.epochs] == expected


@pytest.mark.parametrize("with_bottleneck", [True, False], ids=["el", "baseline"])
def test_two_batches_tapes_are_never_alive_at_once(numpy_path, with_bottleneck):
    model = build_model(2, 2, vocab_size=4, hidden_dim=4,
                        with_bottleneck=with_bottleneck, seed=64)
    real = model.forward
    inputs = []  # a weak reference to each batch's input, which its tape holds

    def forward(x, noise=None):
        assert all(ref() is None for ref in inputs)
        logits, tape = real(x, noise)
        inputs.append(weakref.ref(tape.sender[0][0]))
        return logits, tape

    model.forward = forward
    train(model, two_class_toy(n=20, seed=65), two_class_toy(n=12, seed=66),
          TrainConfig(batch_size=4, max_epochs=2, patience=2, seed=64))
    assert len(inputs) == 2 * (5 + 3)


@pytest.mark.parametrize("with_bottleneck", [True, False], ids=["el", "baseline"])
def test_train_twice_from_one_config_gives_equal_parameters(with_bottleneck):
    ds = two_class_toy(n=16, seed=50)
    val = two_class_toy(n=8, seed=51)
    config = TrainConfig(max_epochs=10, patience=3, seed=52)

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
    config = TrainConfig(max_epochs=6, patience=6, seed=55)
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
    train(model, ds, val, TrainConfig(max_epochs=10, patience=4, seed=55))
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
    train(model, ds, val, TrainConfig(max_epochs=2, patience=2, seed=56))
    for lb, weights in zip(restored.layers(), saved):
        assert np.array_equal(lb.weights, weights)


def test_train_rejects_empty_datasets():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"])
    ds = two_class_toy(n=10, seed=25)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=25)
    with pytest.raises(InputError):
        train(model, empty, ds, TrainConfig())
    with pytest.raises(InputError):
        train(model, ds, empty, TrainConfig())


def test_train_rejects_labels_outside_the_class_range():
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=57)
    config = TrainConfig(max_epochs=2, patience=2, seed=57)
    for split, label in (("train", -1), ("val", -1), ("val", 2), ("test", 2)):
        sets = {"train": two_class_toy(n=12, seed=58),
                "val": two_class_toy(n=8, seed=59),
                "test": two_class_toy(n=8, seed=60)}
        # set after construction, past the Dataset's own check
        sets[split].labels[0] = label
        message = f"data labels must be ints in [0, 1], got {label}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            train(model, sets["train"], sets["val"], config)
            evaluate(model, sets["test"])


def test_a_split_must_have_the_models_class_count(tmp_path):
    # the test CSV without its class1 rows reads back as three classes,
    # numbered 0-2 among themselves, so class2's rows would be scored as
    # class1's: a split of fewer classes than the model's is rejected
    train_set, val_set, test_set = generate_synthetic(
        SynthSpec(train_samples=24, val_samples=8, test_samples=40, seed=0))
    keep = test_set.labels != 1
    path = tmp_path / "test.csv"
    write_csv(path, *dataset_csv(Dataset(test_set.features[keep],
                                         test_set.labels[keep],
                                         test_set.class_names)))
    three = load_csv(path, split="test")
    assert three.class_names == ["class0", "class2", "class3"]
    model = build_model(28, 4, vocab_size=6, hidden_dim=4, seed=0)
    with pytest.raises(InputError, match="^test set has 3 classes, model expects 4$"):
        evaluate(model, three)
    config = TrainConfig(max_epochs=1, patience=1)
    with pytest.raises(InputError, match="^train set has 3 classes, model expects 4$"):
        train(model, replace(three, split="train"), val_set, config)
    with pytest.raises(InputError, match="^val set has 3 classes, model expects 4$"):
        train(model, train_set, replace(three, split="val"), config)


def test_evaluate_peak_memory_at_the_attribute_shape():
    import tracemalloc

    # test rows through the default 28-64-64-100 / 100-64-4 graph: the
    # attribute workload's 2,000, and ten times as many under the same bound
    # (one decode over all 20,000 rows peaked at 35.6 MiB)
    for test_samples in (2000, 20_000):
        _, _, test_set = generate_synthetic(
            SynthSpec(test_samples=test_samples, seed=0)
        )
        model = build_model(test_set.num_features, test_set.num_classes, seed=0)
        evaluate(model, test_set)
        tracemalloc.start()
        try:
            evaluate(model, test_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, test_samples


def test_train_divergence_reports_epoch():
    ds = two_class_toy(n=12, seed=26)
    model = build_model(2, 2, vocab_size=4, hidden_dim=4, seed=26)
    config = TrainConfig(learning_rate=1e200, max_epochs=5, patience=5, seed=26)
    with pytest.raises(NumericalError, match=r"^non-finite loss at epoch [1-5]$"):
        train(model, ds, ds, config)


def test_train_divergence_in_validation_alone_reports_epoch():
    # a baseline whose hidden units sum their inputs: the training rows stay
    # far from overflow, while the validation rows are finite, so they pass
    # the split check, but every hidden unit overflows on them and the logits
    # are inf - inf
    ds = two_class_toy(n=12, seed=27)
    val = Dataset(np.full((4, 2), 1.5e308), [0, 1, 0, 1], ds.class_names, "val")
    model = ModelGraph(
        [DenseLayer(np.ones((3, 2)), np.zeros(3), "relu")],
        [DenseLayer([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.5]], np.zeros(2), "identity")],
    )
    config = TrainConfig(max_epochs=5, patience=5, seed=27)
    with pytest.raises(NumericalError, match=r"^non-finite loss at epoch 1$"):
        train(model, ds, val, config)


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(patience=30, max_epochs=20)
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0)
    # json reads 1e999 as inf
    for rate in (math.inf, math.nan):
        with pytest.raises(InputError, match=f"^learning_rate must be a finite number "
                                             f"> 0, got {rate!r}$"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(InputError):
        TrainConfig(batch_size=0)
    with pytest.raises(InputError, match="seed"):
        TrainConfig(seed=-1)


def test_train_config_defaults():
    config = TrainConfig()
    assert config.learning_rate == 1e-3
    assert config.batch_size == 32
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


def loop_macro_f1(labels, predictions, num_classes):
    """The per-class loop that `macro_f1` computes with array reductions,
    kept as its reference."""
    cm = confusion_matrix(labels, predictions, num_classes)
    scores = []
    for c in range(num_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


@pytest.mark.parametrize("labels, predictions, num_classes", [
    ([0, 1], [0, 1], 3),
    ([4, 4, 0], [4, 0, 0], 7),
    ([0, 1, 2, 3, 1, 2], [2, 2, 2, 2, 2, 2], 4),
    ([0, 1, 1, 3], [2, 2, 2, 2], 5),
], ids=["one-absent-class", "four-absent-classes", "one-predicted-class",
        "one-predicted-class-absent-from-truth"])
def test_macro_f1_equals_the_per_class_loop_bit_for_bit(labels, predictions,
                                                         num_classes):
    got = macro_f1(labels, predictions, num_classes)
    assert got.hex() == loop_macro_f1(labels, predictions, num_classes).hex()


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 12).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                         min_size=1, max_size=80))))
def test_macro_f1_equals_the_per_class_loop_on_drawn_pairs(case):
    num_classes, pairs = case
    labels, predictions = zip(*pairs)
    got = macro_f1(labels, predictions, num_classes)
    assert got.hex() == loop_macro_f1(labels, predictions, num_classes).hex()


def test_evaluate_perfect_classifier_metrics():
    ds = two_class_toy(n=20, seed=27)
    val = two_class_toy(n=10, seed=28)
    model = build_model(2, 2, vocab_size=8, hidden_dim=8, seed=29)
    train(model, ds, val, TrainConfig(max_epochs=200, patience=200, seed=29))
    report = evaluate(model, ds)
    assert report["accuracy"] == 1.0
    assert report["f1"] == 1.0


def test_evaluate_symbol_inventory_consistency():
    ds = two_class_toy(n=24, seed=30)
    model = build_model(2, 2, vocab_size=6, hidden_dim=4, seed=31)
    report = evaluate(model, ds)
    assert report["symbols"] == sorted(report["symbols"])
    assert len(set(report["symbols"])) == len(report["symbols"])
    assert sum(s["count"] for s in report["symbol_inventory"]) == ds.num_samples
    for stat in report["symbol_inventory"]:
        assert sum(stat["predicted_class_counts"]) == stat["count"]
    assert len(report["symbols"]) <= min(6, ds.num_samples)


def test_evaluate_baseline_has_empty_inventory():
    ds = two_class_toy(n=10, seed=32)
    model = build_model(2, 2, vocab_size=6, hidden_dim=4,
                        with_bottleneck=False, seed=33)
    report = evaluate(model, ds)
    assert report["symbol_inventory"] == []
    assert report["symbols"] is None


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


@pytest.mark.parametrize("key, value, message", [
    ("sampler_seed", 1.5, "sampler seed must be an int >= 0, got 1.5"),
    ("sampler_seed", True, "sampler seed must be an int >= 0, got True"),
    ("temperature", True, "temperature must be a finite number > 0, got True"),
    ("vocab_size", 5.0, "vocab_size must be an int >= 2, got 5.0"),
    ("vocab_size", True, "vocab_size must be an int >= 2, got True"),
    # json reads Infinity as a float
    ("temperature", math.inf, "temperature must be a finite number > 0, got inf"),
], ids=["sampler_seed-1.5", "sampler_seed-True", "temperature-True", "vocab_size-5.0",
        "vocab_size-True", "temperature-inf"])
def test_checkpoint_sampler_fields_are_not_coerced(key, value, message):
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_checkpoint({**save_checkpoint(model), key: value})


def test_checkpoint_arrays_hold_only_numbers_and_a_loaded_checkpoint_round_trips():
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=40)
    doc = json.loads(json.dumps(save_checkpoint(
        model, (np.zeros(3), np.ones(3)), ["b", "a", "c"], ["no", "yes"])))
    assert save_checkpoint(*load_checkpoint(doc)) == doc
    layers, stats = doc["sender"] + doc["receiver"], doc["standardization"]
    arrays = [layers[0]["weights"], layers[-1]["bias"], stats["mean"], stats["std"]]
    for array in arrays:
        saved = array[0]
        # json reads each of these from a checkpoint; none is a number
        for value in (True, False, "1e3", None, [1.0]):
            array[0] = value
            with pytest.raises(InputError, match="must be a list of numbers"):
                load_checkpoint(doc)
        array[0] = 2  # an int is a JSON number
        assert save_checkpoint(*load_checkpoint(doc)) == doc
        array[0] = saved
    stats["mean"] = "0,0,0"
    with pytest.raises(InputError, match="standardization mean must be a list"):
        load_checkpoint(doc)


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


def checkpoint_doc(kind):
    return save_checkpoint(build_model(3, 2, vocab_size=5, hidden_dim=4,
                                       with_bottleneck=kind == "el", seed=39))


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in ("el", "baseline") for key in checkpoint_doc(kind)
])
def test_checkpoint_without_a_section_raises_input_error(kind, key):
    doc = checkpoint_doc(kind)
    del doc[key]
    with pytest.raises(InputError):
        load_checkpoint(doc)


# Values that each field of a checkpoint takes in turn: JSON's scalars and
# containers, numbers at and past float64's range, and the kind names.
BOUNDARY_VALUES = [None, True, False, 0, 1, -1, 1.5, "x", "1", [], [1], {},
                   math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, 2**1100,
                   "el", "baseline"]


def field_paths(node, path=()):
    """The path of every key of every mapping under node, and of the first
    and last element of every list, depth first."""
    if isinstance(node, dict):
        children = list(node)
    elif isinstance(node, list):
        children = sorted({0, len(node) - 1}) if node else []
    else:
        return
    for child in children:
        yield (*path, child)
        yield from field_paths(node[child], (*path, child))


def test_every_single_field_change_of_a_checkpoint_fails_or_round_trips():
    model = build_model(6, 3, vocab_size=4, hidden_dim=5, seed=1)
    stats = (np.linspace(-1.0, 1.0, 6), np.linspace(0.5, 2.0, 6))
    doc = save_checkpoint(model, stats, [f"x{i}" for i in range(6)], ["a", "b", "c"])
    outcomes = {"rejected": 0, "loaded": 0}
    for path in field_paths(doc):
        for value in BOUNDARY_VALUES:
            changed = copy.deepcopy(doc)
            *keys, last = path
            node = changed
            for key in keys:
                node = node[key]
            node[last] = value
            try:
                checkpoint = load_checkpoint(changed)
            except InputError:
                outcomes["rejected"] += 1
                continue
            # what loads is what save_checkpoint writes back: nothing was
            # coerced or dropped
            assert save_checkpoint(*checkpoint) == changed, (path, value)
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0


@pytest.mark.parametrize("where, message", [
    (("kind",), "baseline checkpoint has unknown keys: "
     "['sampler_seed', 'temperature', 'vocab_size']"),
    (("note",), "el checkpoint has unknown keys: ['note']"),
    (("sender", 0, "note"), "el checkpoint has unknown keys: ['note']"),
    (("receiver", 1, "note"), "el checkpoint has unknown keys: ['note']"),
    (("standardization", "note"), "el checkpoint has unknown keys: ['note']"),
], ids=["el-as-baseline", "top-level", "first-layer", "last-layer",
        "standardization"])
def test_a_checkpoint_holds_only_the_keys_its_kind_writes(where, message):
    doc = save_checkpoint(build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39),
                          (np.zeros(3), np.ones(3)))
    *keys, last = where
    node = doc
    for key in keys:
        node = node[key]
    # an el checkpoint read as a baseline would drop the channel's fields
    node[last] = "baseline" if last == "kind" else "x"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_checkpoint(doc)


@pytest.mark.parametrize("change, message", [
    ({"feature_names": ["a", "b"]}, "checkpoint names must be lists"),
    ({"feature_names": ["a", 1, "c"]}, "checkpoint names must be lists"),
    ({"feature_names": "abc"}, "checkpoint names must be lists"),
    ({"class_names": ["only"]}, "checkpoint names must be lists"),
    ({"class_names": "no"}, "checkpoint names must be lists"),
    ({"class_names": [b"no", b"yes"]}, "checkpoint names must be lists"),
    ({"standardization": (np.zeros(2), np.ones(2))},
     "standardization must hold input_dim finite means and stds"),
    ({"standardization": (np.zeros((1, 3)), np.ones((1, 3)))},
     "standardization must hold input_dim finite means and stds"),
    ({"standardization": ([0.0, math.nan, 0.0], np.ones(3))},
     "standardization must hold input_dim finite means and stds"),
    ({"standardization": (np.zeros(3), [1.0, math.inf, 1.0])},
     "standardization must hold input_dim finite means and stds"),
    ({"standardization": (np.zeros(3), [1.0, 0.0, 1.0])},
     "standardization std must be positive"),
    ({"standardization": (np.zeros(3), [1.0, -1.0, 1.0])},
     "standardization std must be positive"),
    ({"nan": ("sender", 0, "weights")}, "layer weights and bias must be finite"),
    ({"nan": ("receiver", -1, "bias")}, "layer weights and bias must be finite"),
], ids=["short-features", "int-feature", "string-features", "short-classes",
        "string-classes", "bytes-classes", "short-standardization",
        "2d-standardization", "nan-mean", "inf-std", "zero-std", "negative-std",
        "nan-weight", "nan-bias"])
def test_save_checkpoint_rejects_what_it_could_not_load(change, message):
    # each of these used to be written, and load_checkpoint then rejected
    # the document, or ("abc") read it back as three one-letter names
    model = build_model(3, 2, vocab_size=5, hidden_dim=4, seed=42)
    if "nan" in change:
        section, index, name = change.pop("nan")
        getattr(getattr(model, section)[index], name).flat[0] = math.nan
    with pytest.raises(InputError, match=f"^{re.escape(message)}"):
        save_checkpoint(model, **change)


@st.composite
def checkpoint_arguments(draw):
    """A small model, maybe with one non-finite weight or bias, and a drawn
    standardization and names, each either valid for the model or anything
    of the same kind: of any size, not finite, or not strings."""
    input_dim, num_classes = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    model = build_model(input_dim, num_classes, vocab_size=3, hidden_dim=2,
                        with_bottleneck=draw(st.booleans()), seed=43)
    if draw(st.integers(0, 3)) == 0:
        layer = draw(st.sampled_from(model.layers()))
        values = getattr(layer, draw(st.sampled_from(["weights", "bias"])))
        values.flat[0] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    means = arrays(np.float64, input_dim, elements=st.floats(-1e300, 1e300))
    stds = arrays(np.float64, input_dim, elements=st.floats(5e-324, 1e300))
    anything = st.integers(0, 4).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats() | st.just(0.0)))
    stats = draw(st.none() | st.tuples(means, stds) | st.tuples(anything, anything))

    def names(count):
        valid = st.lists(NAMES, min_size=count, max_size=count)
        return draw(st.none() | valid | valid.map(tuple) | NAMES
                    | st.lists(NAMES | st.integers() | st.none(), max_size=4))

    return model, stats, names(input_dim), names(num_classes)


@settings(max_examples=100, deadline=None)
@given(arguments=checkpoint_arguments())
def test_what_save_checkpoint_writes_loads_and_is_written_back_equal(arguments):
    try:
        doc = save_checkpoint(*arguments)
    except InputError:
        return
    doc = json.loads(json.dumps(doc, allow_nan=False))
    assert save_checkpoint(*load_checkpoint(doc)) == doc


@pytest.mark.parametrize("key, value", [
    ("input_dim", 4), ("num_classes", 3), ("input_dim", "missing"),
    ("feature_names", None),
])
def test_a_checkpoint_value_save_checkpoint_writes_otherwise_is_named(key, value):
    doc = save_checkpoint(build_model(3, 2, vocab_size=5, hidden_dim=4, seed=39))
    doc[key] = value
    if value == "missing":
        del doc[key]
    message = f"checkpoint {key} differs from what save_checkpoint writes back"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_checkpoint(doc)
