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
flat gradient vector, which one `AdamState` binds with the parameter vector
for the whole call. Training and validation score their batches in one
walk, `_batch_losses`, which runs `forward` and the loss on each batch; on a
symbol model the validation noise is drawn once per `train` call. Early
stopping restores the parameters of the best validation epoch.

`ModelGraph.decode` is the one noise-free evaluation of the package, which
`evaluate` and attribution share: each input's sender logits decode to their
argmax symbol, and the receiver classifies from that symbol's one-hot alone.
It runs DECODE_ROWS rows at a time, so its hidden activations never span a
whole test set, and it raises NumericalError on a non-finite logit on either
side of the channel, so an overflow is never reported as a prediction.
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
    as_labels,
    check_int,
    check_real,
    check_shape,
    cross_entropy,
    is_real,
    stack_backward,
    stack_forward,
)

CHECKPOINT_VERSION = 3

# Rows per pass of `decode`; a pass holds ~1.8 KiB a row at the default
# shape. Measured on `evaluate` of 20,000 rows of that shape (2-vCPU VM,
# numpy 2.4.6), when only each row's argmaxes were kept: one pass over all
# rows peaked at 35.6 MiB under tracemalloc and took 48-62 ms; passes of 256
# rows peaked at 1.1 MiB (the same at 128; 1.2 MiB at 512, 2.2 MiB at 1,024)
# in 38-41 ms, while passes of 32 rows took 78 ms. Keeping every row's class
# logits as well adds 32 bytes a row at 4 classes.
DECODE_ROWS = 256

# Offsets deriving the independent RNG streams from one user seed.
_SAMPLER_STREAM = 1
_SHUFFLE_STREAM = 2
_VAL_NOISE_STREAM = 3


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, 0, strict=True)
        check_int("batch_size", self.batch_size, 1)
        check_int("max_epochs", self.max_epochs, 1)
        check_int("patience", self.patience, 1, self.max_epochs)
        check_int("seed", self.seed, 0)


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
        check_shape("input", x, (None, self.input_dim))
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

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def decode(self, x):
        """(logits, symbols) without noise, DECODE_ROWS rows at a time: the
        receiver reads the one-hot of each row's argmax sender logit, and
        symbols is that int array, or None without a bottleneck. A
        non-finite sender logit on any row raises NumericalError before a
        non-finite class logit on any row does, with no numpy warning."""
        x = self._rows(x)
        logits = np.empty((x.shape[0], self.num_classes))
        symbols = None if self.bottleneck is None else np.empty(x.shape[0], np.intp)
        for start in range(0, x.shape[0], DECODE_ROWS):
            rows = slice(start, start + DECODE_ROWS)
            h = stack_forward(self.sender, x[rows])
            if symbols is not None:
                symbols[rows] = hard_decode(h)
                h = one_hot(symbols[rows], self.vocab_size)
            logits[rows] = stack_forward(self.receiver, h)
        if not np.isfinite(logits).all():
            raise NumericalError("non-finite network output at decode")
        return logits, symbols

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
    with and without the bottleneck. The arguments are checked for either
    model kind: input_dim and num_classes must be ints >= 1 and seed an int
    >= 0; the channel is built from vocab_size, temperature and seed in
    both, and attached only with the bottleneck; then hidden_dim."""
    check_int("input_dim", input_dim, 1)
    check_int("num_classes", num_classes, 1)
    check_int("seed", seed, 0)
    channel = GumbelSoftmaxSampler(vocab_size, temperature=temperature,
                                   seed=seed + _SAMPLER_STREAM)
    check_int("hidden", hidden_dim, 1)
    rng = np.random.default_rng(seed)
    try:
        sender = [
            DenseLayer.init(rng, input_dim, hidden_dim, "relu"),
            DenseLayer.init(rng, hidden_dim, hidden_dim, "relu"),
            DenseLayer.init(rng, hidden_dim, vocab_size, "identity"),
        ]
        receiver = [
            DenseLayer.init(rng, vocab_size, hidden_dim, "relu"),
            DenseLayer.init(rng, hidden_dim, num_classes, "identity"),
        ]
    except InputError:
        raise
    except (ValueError, OverflowError, MemoryError) as exc:
        # no upper bound is set on either count: numpy's (or the float
        # conversion's) refusal is the only one
        raise InputError(
            f"hidden and vocab_size make a layer too large to allocate: {exc}"
        ) from None
    return ModelGraph(sender, receiver, channel if with_bottleneck else None)


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


def _batch_losses(model, dataset, batch_size, order, noise=None):
    """Walk the rows `order` names, batch_size at a time, yielding each
    batch's (rows, tape, loss, dlogits): its row count, its `forward` tape,
    and its `cross_entropy` mean loss and logit gradient. `noise` maps the
    batch's row indices to its [rows, K] Gumbel noise; None for a baseline.
    The caller drops each tape before it asks for the next batch, so two
    batches' tapes are never alive at once."""
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        batch_noise = None if noise is None else noise(idx)
        logits, tape = model.forward(dataset.features[idx], batch_noise)
        yield (len(idx), tape, *cross_entropy(logits, dataset.labels[idx]))
        del logits, tape


def dataset_loss(model, dataset, batch_size, noise=None):
    """Mean cross-entropy of `forward` over a dataset, batched in input
    order. A model with a bottleneck needs `noise`, one [num_samples, K] row
    of Gumbel noise per sample, and is scored through the soft relaxation
    with it (the validation contract); a baseline takes None. There is no
    noise-free loss of a symbol model. The caller checks the split once
    (`train` does, with `_check_split`), so no batch is checked again."""
    n = dataset.num_samples
    batches = _batch_losses(model, dataset, batch_size, np.arange(n),
                            None if noise is None else noise.__getitem__)
    total = 0.0
    for rows, _, loss, _ in batches:
        total += loss * rows
    return total / n


def _check_split(model, ds):
    """InputError unless `ds` is non-empty, has the model's feature and
    class counts and finite features, and labels in [0, num_classes). A
    split of another class count numbers its labels among its own classes,
    so they would be scored against the wrong ones."""
    name = ds.split or "data"
    if ds.num_samples == 0:
        raise InputError(f"{name} set must be non-empty")
    for what, got, want in (("features", ds.num_features, model.input_dim),
                            ("classes", ds.num_classes, model.num_classes)):
        if got != want:
            raise InputError(f"{name} set has {got} {what}, model expects {want}")
    if not np.all(np.isfinite(ds.features)):
        raise InputError(f"{name} features contain non-finite values")
    as_labels(f"{name} labels", ds.labels, model.num_classes)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(model, train_set, val_set, config):
    """Mini-batch Adam with per-epoch validation and early stopping.

    Returns a TrainLog; the model is left holding the best-validation-epoch
    parameters as views into one flat vector. Both splits are checked once,
    up front; raises NumericalError (naming the epoch) on a non-finite logit
    or loss, with no numpy warning ahead of it. Every random stream starts
    here, so equal weights and config train to equal results.
    """
    _check_split(model, train_set)
    _check_split(model, val_set)
    shuffle_rng = np.random.default_rng(config.seed + _SHUFFLE_STREAM)
    params, grads, grad_views = _pack(model)
    state = AdamState(params, grads, learning_rate=config.learning_rate)
    # each batch's noise comes from the sampler's seed; the validation noise
    # is drawn once per call, so losses compare across epochs
    draw = val_noise = None
    if model.bottleneck is not None:
        noise_rng = np.random.default_rng(model.bottleneck.rng_seed)
        val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)

        def draw(idx, rng=noise_rng):
            return noise_from_uniform(rng.random((len(idx), model.vocab_size)))

        val_noise = draw(range(val_set.num_samples), val_rng)

    log = TrainLog()
    best = params.copy()
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train_set.num_samples)
        running = 0.0
        # the splits were checked up front, so a non-finite logit or loss
        # anywhere in the epoch means the optimization blew up
        try:
            batches = _batch_losses(model, train_set, config.batch_size, order, draw)
            for rows, tape, loss, dlogits in batches:
                if not math.isfinite(loss):
                    raise NumericalError("non-finite training loss")
                running += loss * rows
                model.backward(tape, dlogits, grad_views)
                del tape  # before the next batch's forward
                adam_step(state)
            val_loss = dataset_loss(model, val_set, config.batch_size, val_noise)
            if not math.isfinite(val_loss):
                raise NumericalError("non-finite validation loss")
        except NumericalError:
            raise NumericalError(f"non-finite loss at epoch {epoch}") from None
        train_loss = running / train_set.num_samples
        log.epochs.append(EpochStats(epoch, train_loss, val_loss))
        if val_loss < log.best_val_loss:
            log.best_epoch, log.best_val_loss = epoch, val_loss
            best[...] = params
        elif epoch - log.best_epoch == config.patience:
            # `patience` epochs without a strictly lower loss: epoch 1 is
            # always a best, since its finite loss is below inf
            break
    params[...] = best
    return log


def confusion_matrix(labels, predictions, num_classes):
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (as_labels("labels", labels, num_classes),
                   as_labels("predictions", predictions, num_classes)), 1)
    return cm


def macro_f1(labels, predictions, num_classes):
    """Unweighted mean of per-class F1; a class absent from both truth and
    prediction contributes 0."""
    cm = confusion_matrix(labels, predictions, num_classes)
    # 2 tp + fp + fn is a class's column sum plus its row sum; where that is
    # 0, tp is 0 too and the class scores 0.0
    denom = cm.sum(axis=0) + cm.sum(axis=1)
    return float(np.mean(2.0 * np.diag(cm) / np.maximum(denom, 1)))


def evaluate(model, test_set):
    """Deterministic test-set report, as the JSON-ready document a run
    writes: accuracy, macro-F1, and for symbol models the sorted symbols
    used and the symbol inventory, each symbol's count and predicted-class
    histogram (None and [] for a baseline). The split is checked as
    `train` checks its own."""
    _check_split(model, test_set)
    logits, symbols = model.decode(test_set.features)
    predictions = np.argmax(logits, axis=1)
    report = {
        "accuracy": float((predictions == test_set.labels).mean()),
        "f1": macro_f1(test_set.labels, predictions, model.num_classes),
        "symbols": None,
        "symbol_inventory": [],
    }
    if symbols is not None:
        unique, rows = np.unique(symbols, return_inverse=True)
        hists = np.zeros((unique.size, model.num_classes), dtype=np.int64)
        np.add.at(hists, (rows, predictions), 1)
        report["symbols"] = unique.tolist()
        report["symbol_inventory"] = [
            {
                "symbol": int(symbol),
                "count": int(hist.sum()),
                "predicted_class_counts": hist.tolist(),
            }
            for symbol, hist in zip(unique, hists)
        ]
    return report


def _layer_doc(layer):
    if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
        raise InputError("layer weights and bias must be finite")
    return {
        "activation": layer.activation,
        "shape": [layer.out_dim, layer.in_dim],
        "weights": layer.weights.ravel().tolist(),
        "bias": layer.bias.tolist(),
    }


def _numbers(values, what):
    """values, a list of JSON numbers, as a float64 array. Anything else is
    an InputError, a bool or a string of a number included, so that
    `save_checkpoint` writes back the values of every document that loads."""
    if not isinstance(values, list) or not all(map(is_real, values)):
        raise InputError(f"checkpoint {what} must be a list of numbers")
    return np.array(values, dtype=np.float64)


def _layer_from_doc(doc):
    out_dim, in_dim = doc["shape"]
    weights = _numbers(doc["weights"], "layer weights")
    bias = _numbers(doc["bias"], "layer bias")
    if weights.size != out_dim * in_dim or bias.size != out_dim:
        raise InputError(
            f"layer data does not match declared shape [{out_dim}, {in_dim}]"
        )
    return DenseLayer(weights.reshape(out_dim, in_dim), bias, doc["activation"])


def save_checkpoint(model, standardization=None, feature_names=None,
                    class_names=None):
    """Self-describing document; round-trips weights bit-exactly via decimal
    text (JSON float rendering is shortest-round-trip). `standardization` is
    the (mean, std) the model's inputs were scaled by, each of input_dim
    finite values with every std > 0, or None for raw features.
    `feature_names` are the input columns in order (default f0..f{D-1}, the
    names a Dataset gives unnamed columns); `class_names` name each class
    index, or are None when unknown. Names are lists or tuples of strings.
    Anything else, or a non-finite weight, raises InputError, so every
    document written here loads."""
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(model.input_dim)]
    for names, count in ((feature_names, model.input_dim),
                         (class_names, model.num_classes)):
        if names is not None and not (
                isinstance(names, (list, tuple)) and len(names) == count
                and all(isinstance(name, str) for name in names)):
            raise InputError("checkpoint names must be lists of input_dim feature and "
                             "num_classes class strings")
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
        mean, std = map(as_f64, standardization)
        for values in (mean, std):
            if values.shape != (model.input_dim,) or not np.all(np.isfinite(values)):
                raise InputError(
                    "standardization must hold input_dim finite means and stds"
                )
        if not np.all(std > 0):
            raise InputError("standardization std must be positive")
        doc["standardization"] = {"mean": mean.tolist(), "std": std.tolist()}
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
    """The Checkpoint a `save_checkpoint` document describes. Only what the
    writer cannot take as objects is parsed here: the mapping, the version,
    the kind, each layer's numbers and shape, the channel's fields and the
    standardization's numbers. The document then loads exactly when
    `save_checkpoint` writes the Checkpoint back equal to it, so a missing
    or malformed section, a value the writer rejects or writes otherwise,
    and a key it does not write for the document's kind all raise
    InputError."""
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
                seed=doc["sampler_seed"],
            )
        model = ModelGraph(sender, receiver, bottleneck)
        stats = doc["standardization"]
        if stats is not None:
            stats = tuple(_numbers(stats[key], f"standardization {key}")
                          for key in ("mean", "std"))
        checkpoint = Checkpoint(model, stats, doc["feature_names"], doc["class_names"])
        written = save_checkpoint(*checkpoint)
        # each mapping may hold only the keys save_checkpoint writes there,
        # or a key would be dropped on the way back
        given, back = ([d, d["standardization"] or {}, *d["sender"], *d["receiver"]]
                       for d in (doc, written))
        if extra := set().union(*(g.keys() - b.keys() for g, b in zip(given, back))):
            raise InputError(f"{kind} checkpoint has unknown keys: "
                             f"{sorted(map(str, extra))}")
        # and each value must be the one written back, or it was coerced or
        # disagrees with the layers (input_dim, num_classes)
        for key, value in written.items():
            if doc.get(key) != value:
                raise InputError(
                    f"checkpoint {key} differs from what save_checkpoint writes back")
        return checkpoint
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed checkpoint: {exc!r}") from None
