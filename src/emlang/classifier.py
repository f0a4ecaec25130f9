"""End-to-end symbol-bottleneck classifier: sender -> channel -> receiver.

The sender maps input features to vocabulary logits, the Gumbel-softmax
channel turns them into a (relaxed) one-hot symbol, and the receiver
classifies from the symbol alone. A baseline model is the same graph with
the channel removed: the sender output feeds the receiver directly.

Training runs mini-batch Adam on cross-entropy through the soft relaxation,
with every layer's weights and bias packed into one flat vector so each batch
is one optimizer step: `ModelGraph.forward` takes each batch's Gumbel noise,
which `train` draws from the sampler's seed, and returns an explicit `Tape`;
the backward writes every layer's gradients straight into its views of one
flat gradient vector. `ModelGraph.decode` is the one noise-free evaluation
of the package: each input's sender logits decode to their argmax symbol,
and the receiver classifies from that symbol's one-hot alone. Early
stopping restores the parameters of the best validation epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform, one_hot
from .nn import (
    AdamState,
    DenseLayer,
    adam_step,
    as_f64,
    cross_entropy,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
)

CHECKPOINT_VERSION = 3

# Offsets deriving the independent RNG streams from one user seed.
_SAMPLER_STREAM = 1
_SHUFFLE_STREAM = 2
_VAL_NOISE_STREAM = 3


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    temperature: float = 1.0
    vocab_size: int = 100
    seed: int = 0

    def validate(self):
        if not (self.learning_rate > 0):
            raise InputError("learning_rate must be positive")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be a positive integer")
        if self.vocab_size < 2:
            raise InputError("vocab_size must be >= 2")
        if not (self.temperature > 0):
            raise InputError("temperature must be positive")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.patience > self.max_epochs:
            raise InputError("patience must not exceed max_epochs")


class ModelGraph:
    """Ordered composition of sender layers, an optional sampler bottleneck,
    and receiver layers ending in class logits."""

    def __init__(self, sender, receiver, bottleneck=None):
        sender = list(sender)
        receiver = list(receiver)
        if not sender or not receiver:
            raise InputError("sender and receiver must each have at least one layer")
        # the channel keeps width K, so sender and receiver are one chain
        layers = sender + receiver
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise InputError(
                    f"layer chain mismatch: {prev.out_dim} -> {nxt.in_dim}"
                )
        if bottleneck is not None and bottleneck.vocab_size != sender[-1].out_dim:
            raise InputError(
                f"sender output dim {sender[-1].out_dim} does not match "
                f"vocabulary size {bottleneck.vocab_size}"
            )
        self.sender = sender
        self.receiver = receiver
        self.bottleneck = bottleneck

    @property
    def input_dim(self):
        return self.sender[0].in_dim

    @property
    def num_classes(self):
        return self.receiver[-1].out_dim

    @property
    def vocab_size(self):
        return self.bottleneck.vocab_size if self.bottleneck is not None else None

    def layers(self):
        return self.sender + self.receiver

    def _rows(self, x):
        x = as_f64(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InputError(
                f"input shape {x.shape} incompatible with input_dim {self.input_dim}"
            )
        return x

    def forward(self, x, noise=None):
        """(logits, tape) through the soft relaxation with the given
        [batch, K] Gumbel noise (None without a bottleneck), for training."""
        sender, receiver = [], []
        h = stack_forward(self.sender, self._rows(x), sender)
        channel = None
        if self.bottleneck is not None:
            channel = self.bottleneck.relax(h, noise)
            h = channel[1]
        logits = stack_forward(self.receiver, h, receiver)
        return logits, Tape(sender, channel, receiver)

    def decode(self, x):
        """(logits, symbols) without noise: the receiver reads the one-hot of
        each row's argmax sender logit, and symbols is that int array, or
        None without a bottleneck. A non-finite sender logit raises
        NumericalError."""
        h = stack_forward(self.sender, self._rows(x))
        symbols = None
        if self.bottleneck is not None:
            symbols = hard_decode(h)
            h = one_hot(symbols, self.vocab_size)
        return stack_forward(self.receiver, h), symbols

    def backward(self, tape, dlogits, grads, input_grad=False):
        """Backpropagate a logit gradient through a `forward`'s tape,
        writing each layer's gradients into its (weight, bias) pair in
        `grads` (forward order). Returns the input gradient when
        `input_grad` is true; training needs none, so it is skipped."""
        split = len(self.sender)
        g = stack_backward(self.receiver, tape.receiver, dlogits, grads[split:])
        if self.bottleneck is not None:
            g = self.bottleneck.relax_backward(tape.channel, g)
        return stack_backward(self.sender, tape.sender, g, grads[:split], input_grad)


class Tape(NamedTuple):
    """What `forward` keeps for its backward: each layer's
    (input, pre-activation), and the channel's (probs, relaxed) or None."""

    sender: list
    channel: tuple | None
    receiver: list


def build_model(
    input_dim,
    num_classes,
    vocab_size=100,
    hidden_dim=64,
    temperature=1.0,
    with_bottleneck=True,
    seed=0,
):
    """Default architecture: sender input->hidden->hidden->K with relu hidden
    layers, receiver K->hidden->C. Identical seeds give identical weights
    with and without the bottleneck."""
    rng = np.random.default_rng(seed)
    sender = [
        DenseLayer.init(rng, input_dim, hidden_dim, "relu"),
        DenseLayer.init(rng, hidden_dim, hidden_dim, "relu"),
        DenseLayer.init(rng, hidden_dim, vocab_size, "identity"),
    ]
    receiver = [
        DenseLayer.init(rng, vocab_size, hidden_dim, "relu"),
        DenseLayer.init(rng, hidden_dim, num_classes, "identity"),
    ]
    bottleneck = None
    if with_bottleneck:
        bottleneck = GumbelSoftmaxSampler(
            vocab_size, temperature=temperature, seed=seed + _SAMPLER_STREAM
        )
    return ModelGraph(sender, receiver, bottleneck)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainLog:
    """Every epoch's losses, and the first epoch with the lowest validation
    loss, whose parameters `train` restores."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf


def _pack(model):
    """Copy all weights and biases into one float64 vector `params` and point
    the layers at views of it. Also returns `grads`, a vector of the same
    layout, with each layer's (weight, bias) views into it in forward order."""
    layers = model.layers()
    params = np.empty(sum(layer.weights.size + layer.bias.size for layer in layers))
    grads = np.empty_like(params)
    grad_views = []
    start = 0
    for layer in layers:
        views = []
        for name in ("weights", "bias"):
            value = getattr(layer, name)
            stop = start + value.size
            params[start:stop] = value.ravel()
            setattr(layer, name, params[start:stop].reshape(value.shape))
            views.append(grads[start:stop].reshape(value.shape))
            start = stop
        grad_views.append(views)
    return params, grads, grad_views


def _batches(n, batch_size, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def dataset_loss(model, dataset, batch_size, noise=None):
    """Mean cross-entropy over a dataset, batched in input order.

    With a bottleneck and `noise` (one [num_samples, K] row of Gumbel noise
    per sample), the soft relaxation is used with that noise (the
    validation contract); otherwise it is the noise-free `decode`.
    """
    total = 0.0
    for idx in _batches(dataset.num_samples, batch_size):
        xb = dataset.features[idx]
        if model.bottleneck is not None and noise is not None:
            logits = model.forward(xb, noise[idx])[0]
        else:
            logits = model.decode(xb)[0]
        loss, _ = softmax_cross_entropy(logits, dataset.labels[idx])
        total += loss * len(idx)
    return total / dataset.num_samples


def _diverged(epoch):
    return NumericalError(f"non-finite loss at epoch {epoch}")


def train(model, train_set, val_set, config):
    """Mini-batch Adam with per-epoch validation and early stopping.

    Returns a TrainLog; the model is left holding the best-validation-epoch
    parameters as views into one flat vector. Shapes, features and labels
    are checked once, up front; raises NumericalError (naming the epoch) on
    a non-finite logit or loss. Every random stream starts here, so equal
    weights and config train to equal results.
    """
    config.validate()
    if train_set.num_samples == 0 or val_set.num_samples == 0:
        raise InputError("train and validation sets must be non-empty")
    for ds in (train_set, val_set):
        if ds.num_features != model.input_dim:
            raise InputError(
                f"dataset has {ds.num_features} features, model expects "
                f"{model.input_dim}"
            )
        if not np.all(np.isfinite(ds.features)):
            raise InputError(f"{ds.split or 'data'} features contain non-finite values")
        low, high = ds.labels.min(), ds.labels.max()
        if low < 0 or high >= model.num_classes:
            raise InputError(
                f"{ds.split or 'data'} labels span [{low}, {high}], outside "
                f"[0, {model.num_classes})"
            )
    shuffle_rng = np.random.default_rng(config.seed + _SHUFFLE_STREAM)
    params, grads, grad_views = _pack(model)
    state = AdamState(params, learning_rate=config.learning_rate)
    # each batch's noise comes from the sampler's seed; the validation noise
    # is drawn once per call, so losses compare across epochs
    noise_rng = val_noise = None
    if model.bottleneck is not None:
        noise_rng = np.random.default_rng(model.bottleneck.rng_seed)
        val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
        val_noise = noise_from_uniform(
            val_rng.random(size=(val_set.num_samples, model.vocab_size))
        )

    log = TrainLog()
    best = params.copy()
    stale_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train_set.num_samples)
        running = 0.0
        for idx in _batches(train_set.num_samples, config.batch_size, order):
            noise = None
            if noise_rng is not None:
                u = noise_rng.random((len(idx), model.vocab_size))
                noise = noise_from_uniform(u)
            try:
                logits, tape = model.forward(train_set.features[idx], noise)
            except NumericalError:
                # inputs were validated up front, so a non-finite logit here
                # means the optimization blew up
                raise _diverged(epoch) from None
            loss, dlogits = cross_entropy(logits, train_set.labels[idx])
            if not math.isfinite(loss):
                raise _diverged(epoch)
            running += loss * len(idx)
            model.backward(tape, dlogits, grad_views)
            del tape  # so two batches' tapes are never alive at once
            adam_step(state, params, grads)
        train_loss = running / train_set.num_samples
        try:
            val_loss = dataset_loss(model, val_set, config.batch_size, val_noise)
        except NumericalError:
            raise _diverged(epoch) from None
        if not math.isfinite(val_loss):
            raise _diverged(epoch)
        log.epochs.append(EpochStats(epoch, train_loss, val_loss))
        if val_loss < log.best_val_loss:
            log.best_epoch, log.best_val_loss = epoch, val_loss
            best[...] = params
            stale_epochs = 0
        else:  # stop after `patience` epochs without a strictly lower loss
            stale_epochs += 1
            if stale_epochs == config.patience:
                break
    params[...] = best
    return log


@dataclass
class SymbolStat:
    symbol: int
    count: int
    predicted_class_counts: list[int]


@dataclass
class EvalReport:
    accuracy: float
    f1: float
    symbol_inventory: list[SymbolStat] = field(default_factory=list)

    @property
    def symbols(self):
        return [stat.symbol for stat in self.symbol_inventory]

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "symbols": self.symbols if self.symbol_inventory else None,
            "symbol_inventory": [
                {
                    "symbol": s.symbol,
                    "count": s.count,
                    "predicted_class_counts": s.predicted_class_counts,
                }
                for s in self.symbol_inventory
            ],
        }


def confusion_matrix(labels, predictions, num_classes):
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(labels, dtype=np.int64),
                   np.asarray(predictions, dtype=np.int64)), 1)
    return cm


def macro_f1(labels, predictions, num_classes):
    """Unweighted mean of per-class F1; a class absent from both truth and
    prediction contributes 0."""
    cm = confusion_matrix(labels, predictions, num_classes)
    scores = []
    for c in range(num_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def evaluate(model, test_set):
    """Deterministic test-set report: accuracy, macro-F1, and (for symbol
    models) the sorted unique-symbol inventory with per-symbol counts and
    predicted-class histograms."""
    if test_set.num_samples == 0:
        raise InputError("test set must be non-empty")
    if not np.all(np.isfinite(test_set.features)):
        raise InputError("test features contain non-finite values")
    logits, symbols = model.decode(test_set.features)
    predictions = np.argmax(logits, axis=1)
    accuracy = float((predictions == test_set.labels).mean())
    f1 = macro_f1(test_set.labels, predictions, model.num_classes)
    inventory = []
    if symbols is not None:
        unique, rows = np.unique(symbols, return_inverse=True)
        hists = np.zeros((unique.size, model.num_classes), dtype=np.int64)
        np.add.at(hists, (rows, predictions), 1)
        inventory = [
            SymbolStat(int(symbol), int(hist.sum()), hist.tolist())
            for symbol, hist in zip(unique, hists)
        ]
    return EvalReport(accuracy, f1, inventory)


def _layer_doc(layer):
    return {
        "activation": layer.activation,
        "shape": [layer.out_dim, layer.in_dim],
        "weights": layer.weights.ravel().tolist(),
        "bias": layer.bias.tolist(),
    }


def _layer_from_doc(doc):
    out_dim, in_dim = doc["shape"]
    weights = np.array(doc["weights"], dtype=np.float64)
    bias = np.array(doc["bias"], dtype=np.float64)
    if weights.size != out_dim * in_dim or bias.size != out_dim:
        raise InputError(
            f"layer data does not match declared shape [{out_dim}, {in_dim}]"
        )
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise InputError("layer weights and bias must be finite")
    return DenseLayer(weights.reshape(out_dim, in_dim), bias, doc["activation"])


def save_checkpoint(model, standardization=None, feature_names=None,
                    class_names=None):
    """Self-describing document; round-trips weights bit-exactly via decimal
    text (JSON float rendering is shortest-round-trip). `standardization` is
    the (mean, std) the model's inputs were scaled by, or None for raw
    features. `feature_names` are the input columns in order (default
    f0..f{D-1}, the names a Dataset gives unnamed columns); `class_names`
    name each class index, or are None when unknown."""
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(model.input_dim)]
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "el" if model.bottleneck is not None else "baseline",
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "sender": [_layer_doc(layer) for layer in model.sender],
        "receiver": [_layer_doc(layer) for layer in model.receiver],
        "standardization": None,
        "feature_names": list(feature_names),
        "class_names": None if class_names is None else list(class_names),
    }
    if standardization is not None:
        mean, std = standardization
        doc["standardization"] = {
            "mean": as_f64(mean).tolist(),
            "std": as_f64(std).tolist(),
        }
    if model.bottleneck is not None:
        doc["vocab_size"] = model.bottleneck.vocab_size
        doc["temperature"] = model.bottleneck.temperature
        doc["sampler_seed"] = model.bottleneck.rng_seed
    return doc


class Checkpoint(NamedTuple):
    """A loaded checkpoint: the model, the (mean, std) its inputs must be
    scaled by or None for raw features, its input columns in order, and
    the name of each class index or None."""

    model: ModelGraph
    standardization: tuple | None
    feature_names: list
    class_names: list | None


def load_checkpoint(doc):
    """The Checkpoint a `save_checkpoint` document describes. The whole
    document is checked in one pass before anything is returned; a missing
    or malformed section raises InputError."""
    try:
        if not isinstance(doc, dict):
            raise InputError("checkpoint document must be a mapping")
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise InputError(
                f"unsupported checkpoint version {version!r}, expected "
                f"{CHECKPOINT_VERSION}"
            )
        kind = doc.get("kind")
        if kind not in ("el", "baseline"):
            raise InputError(f"unknown model kind {kind!r}")
        sender = [_layer_from_doc(d) for d in doc["sender"]]
        receiver = [_layer_from_doc(d) for d in doc["receiver"]]
        bottleneck = None
        if kind == "el":
            bottleneck = GumbelSoftmaxSampler(
                doc["vocab_size"],
                temperature=doc["temperature"],
                seed=doc.get("sampler_seed", 0),
            )
        model = ModelGraph(sender, receiver, bottleneck)
        if model.input_dim != doc.get("input_dim") or model.num_classes != doc.get(
            "num_classes"
        ):
            raise InputError("checkpoint metadata does not match layer shapes")
        stats = doc["standardization"]
        if stats is not None:
            stats = tuple(as_f64(stats[key]) for key in ("mean", "std"))
            for values in stats:
                if values.shape != (model.input_dim,) or not np.all(np.isfinite(values)):
                    raise InputError(
                        "standardization must hold input_dim finite means and stds"
                    )
            if not np.all(stats[1] > 0):
                raise InputError("standardization std must be positive")
        names = doc["feature_names"], doc["class_names"]
        for values, count, optional in (
            (names[0], model.input_dim, False),
            (names[1], model.num_classes, True),
        ):
            if values is None and optional:
                continue
            if (
                not isinstance(values, list)
                or len(values) != count
                or not all(isinstance(name, str) for name in values)
            ):
                raise InputError(
                    "checkpoint names must be lists of input_dim feature and "
                    "num_classes class strings"
                )
        return Checkpoint(model, stats, *names)
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"malformed checkpoint: {exc!r}") from None
