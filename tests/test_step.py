"""STEP_C, the compiled training and validation batch, in one library with
Adam's loop: it must give the bytes of the numpy path, load only where it
does, and run from a training's first batch, with the state's Adam on the
same library's loop."""

import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import classifier
from emlang.classifier import (TrainConfig, _bind_steps, _numpy_steps, _pack, _probe,
                               build_model, train)
from emlang.data import Dataset, SynthSpec, generate_synthetic
from emlang.errors import NumericalError
from emlang.gumbel import noise_from_uniform


def _library():
    """The compiled library, loaded; skips where no `cc` runs."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    loaded = classifier._library()
    assert loaded is not None, "the compiled library did not load or failed a self-check"
    return loaded


library = pytest.fixture(_library)


def test_the_step_library_loads_where_cc_runs(library):
    # CI fails here when training silently falls back to the numpy path
    assert library.shared[0]  # numpy's own ILP64 dgemm


def _bytes(result):
    return [np.asarray(value).tobytes() for value in result]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_kernel_batch_equals_the_numpy_batch_bit_for_bit(data):
    library = _library()
    symbols = data.draw(st.booleans(), label="el")
    width = st.integers(2, 9)
    inputs, hidden, classes = (data.draw(width, label=name)
                               for name in ("inputs", "hidden", "classes"))
    # past 128 symbols each row's pairwise sum recurses
    vocab = data.draw(st.integers(2, 140), label="vocab")
    # any temperature, but mostly ones that neither flatten nor overflow the
    # channel, where the bytes of every step of it show
    temperature = data.draw(st.one_of(st.floats(0.05, 20.0),
                                      st.floats(1e-300, 1e300, allow_subnormal=False)),
                            label="temperature")
    rows = data.draw(st.integers(1, 40), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    features = rng.normal(size=(rows, inputs)) * 10.0 ** rng.integers(-3, 3, (rows, 1))
    dataset = Dataset(features, rng.integers(0, classes, rows),
                      [f"c{c}" for c in range(classes)])
    uniforms = rng.random((rows, vocab))
    model = build_model(inputs, classes, vocab_size=vocab, hidden_dim=hidden,
                        temperature=temperature, with_bottleneck=symbols,
                        seed=int(rng.integers(0, 1000)))
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return library.step(*args)

    with np.errstate(all="ignore"):
        expected = _probe(model, dataset, uniforms)
        got = _probe(model, dataset, uniforms, library._replace(step=counted))
    assert _bytes(got) == _bytes(expected)
    # a 1-row batch is numpy's gemv, not dgemm, so it never reaches the kernel
    assert calls == ([] if rows == 1 else [rows, rows])


@pytest.mark.parametrize("shape", [dict(input_dim=1, num_classes=3, hidden_dim=4),
                                   dict(input_dim=3, num_classes=1, hidden_dim=4),
                                   dict(input_dim=3, num_classes=3, hidden_dim=1)],
                         ids=["one-input", "one-class", "hidden-1"])
def test_a_width_of_one_binds_no_kernel(library, shape):
    model = build_model(**shape, vocab_size=5)
    _, _, grad_views = _pack(model)
    assert _bind_steps(library, model, 8, grad_views) is None


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("kind", ["el", "baseline"])
@pytest.mark.parametrize("path", ["numpy", "kernel"])
def test_only_a_training_batch_with_a_finite_loss_writes_gradients(path, kind, rows):
    # the contract of both binds: a validation batch never writes the
    # gradient vector, and a training batch only when its loss is finite
    model = build_model(3, 2, vocab_size=4, hidden_dim=3, with_bottleneck=kind == "el",
                        seed=8)
    _, grads, grad_views = _pack(model)
    bind = (_numpy_steps(model, grad_views) if path == "numpy"
            else _bind_steps(_library(), model, rows, grad_views))
    rng = np.random.default_rng(8)
    features, uniforms = rng.normal(size=(rows, 3)), rng.random((rows, 4))
    labels = np.arange(rows, dtype=np.int64) % 2
    train_step = bind(features, labels, np.arange(rows, dtype=np.int64), uniforms)
    val_step = bind(features, labels, noise=noise_from_uniform(uniforms))
    sentinel = np.full_like(grads, -7.25).tobytes()

    def written(step):
        """(loss, whether any byte of the gradient vector changed)"""
        grads[...] = -7.25
        with np.errstate(all="ignore"):
            loss = step(0, rows)
        return math.isfinite(loss), grads.tobytes() != sentinel

    assert written(val_step) == (True, False)
    assert written(train_step) == (True, True)
    # a class logit of inf, past the channel: a NaN loss on both paths
    model.receiver[-1].bias[...] = np.inf
    assert written(train_step) == (False, False)
    assert written(val_step) == (False, False)


def _trained(kind, temperature=1.0, **options):
    """(every epoch's losses, the best epoch and its loss, the parameters)
    of a 534-row training, or the message of the NumericalError it raised."""
    train_set, val_set, _ = generate_synthetic(SynthSpec(seed=4))
    model = build_model(train_set.num_features, train_set.num_classes, vocab_size=20,
                        hidden_dim=16, temperature=temperature,
                        with_bottleneck=kind == "el", seed=4)
    try:
        log = train(model, train_set, val_set, TrainConfig(**options))
    except NumericalError as exc:
        return str(exc)
    return ([(e.epoch, e.train_loss, e.val_loss) for e in log.epochs],
            [log.best_epoch, log.best_val_loss],
            b"".join(a.tobytes() for layer in model.layers()
                     for a in (layer.weights, layer.bias)))


@pytest.mark.parametrize("kind", ["el", "baseline"])
@pytest.mark.parametrize("options", [
    # 534 and 133 rows in batches of 33: the validation split ends in a 1-row batch
    dict(batch_size=33, max_epochs=8, patience=8),
    dict(batch_size=64, max_epochs=6, patience=2, seed=5),
    dict(temperature=1e-310, max_epochs=3, patience=3),
], ids=["batch-33", "early-stop", "temperature-1e-310"])
def test_train_gives_the_same_log_and_parameters_on_both_paths(library, request,
                                                                kind, options):
    kernel = _trained(kind, **options)
    request.getfixturevalue("numpy_path")
    assert _trained(kind, **options) == kernel
    if options.get("temperature") and kind == "el":
        assert kernel == "non-finite loss at epoch 1"


def _not_c(monkeypatch):
    monkeypatch.setattr(classifier, "STEP_C", "this is not C\n")


def rounding_changed_step_c():
    # a multiply by the reciprocal rounds differently from the divide
    source = classifier.STEP_C.replace("cb[i * K + j] / s[i]", "cb[i * K + j] * (1.0 / s[i])")
    assert source != classifier.STEP_C
    return source


def _rounding_changed(monkeypatch):
    monkeypatch.setattr(classifier, "STEP_C", rounding_changed_step_c())


def _no_numpy_dgemm(monkeypatch):
    # as where numpy is linked to a BLAS that has no ILP64 `*cblas_dgemm64_`
    monkeypatch.setattr(classifier, "DGEMM_SYMBOLS", ("no_such_cblas_dgemm64_",))


def _no_cc(monkeypatch):
    monkeypatch.setenv("PATH", "/nonexistent")


@pytest.mark.parametrize("case", [_not_c, _rounding_changed, _no_numpy_dgemm, _no_cc],
                         ids=["compile-fails", "self-check-mismatch", "no-ilp64-dgemm",
                              "no-cc"])
def test_training_runs_the_numpy_path_where_no_step_library_loads(
        cold_cache, monkeypatch, capfd, case):
    case(monkeypatch)
    assert classifier._library() is None
    kernels = _adam_kernels(monkeypatch)
    train_set, val_set, _ = generate_synthetic(SynthSpec(seed=6, train_samples=64,
                                                         val_samples=16))
    model = build_model(train_set.num_features, train_set.num_classes, vocab_size=8,
                        hidden_dim=8, seed=6)
    log = train(model, train_set, val_set, TrainConfig(max_epochs=2, patience=2))
    assert len(log.epochs) == 2
    assert kernels == [None] * 4  # Adam on its numpy passes too
    assert capfd.readouterr() == ("", "")  # the compiler's output is discarded


def test_a_batch_of_non_finite_sender_logits_fails_on_both_paths(library):
    # `forward` raises, and the kernel returns a NaN loss, which `train`
    # reports with the same NumericalError
    model = build_model(3, 2, vocab_size=4, hidden_dim=3, seed=8)
    model.sender[0].weights[...] = 1.0  # 3 x 1e308 overflows
    dataset = Dataset(np.full((5, 3), 1e308), [0, 1, 0, 1, 0], ["a", "b"])
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError):  # relax rejects the overflowed logits
            _probe(model, dataset, np.full((5, 4), 0.5))
        loss, _, val_loss = _probe(model, dataset, np.full((5, 4), 0.5), library)
    assert math.isnan(loss) and math.isnan(val_loss)


def test_a_one_epoch_training_on_a_warm_cache_runs_step_c_from_its_first_batch(
        library, monkeypatch):
    # no cc can run, so the library comes from the cache
    monkeypatch.setenv("PATH", "/nonexistent")
    forwards, steps = [], []
    numpy_forward = classifier.ModelGraph.forward

    def forward(model, x, noise=None):
        forwards.append(len(x))
        return numpy_forward(model, x, noise)

    def counted(*args):
        steps.append(args[-1])
        return library.step(*args)

    warm = classifier._library.__wrapped__()  # loaded again, not this process's
    assert warm is not None
    monkeypatch.setattr(classifier, "_library", lambda: warm._replace(step=counted))
    kernels = _adam_kernels(monkeypatch)
    monkeypatch.setattr(classifier.ModelGraph, "forward", forward)
    # 64 training rows in batches of 32, and 16 validation rows in one
    train_set, val_set, _ = generate_synthetic(SynthSpec(seed=9, train_samples=64,
                                                         val_samples=16))
    model = build_model(train_set.num_features, train_set.num_classes, vocab_size=8,
                        hidden_dim=8, seed=9)
    train(model, train_set, val_set, TrainConfig(max_epochs=1, patience=1))
    assert forwards == [] and steps == [32, 32, 16]
    assert kernels == [warm.adam] * 2  # each Adam step on the library's loop


def _adam_kernels(monkeypatch):
    """The compiled loop (or None) of the state of every `adam_step` that
    `train` makes from now on."""
    kernels = []
    adam_step = classifier.adam_step

    def recorded(state):
        kernels.append(state.kernel and state.kernel.func)
        adam_step(state)

    monkeypatch.setattr(classifier, "adam_step", recorded)
    return kernels
