"""End-to-end symbol-bottleneck classifier: sender -> channel -> receiver.

The sender maps input features to vocabulary logits, the Gumbel-softmax
channel turns them into a (relaxed) one-hot symbol, and the receiver
classifies from the symbol alone. A baseline model is the same graph with
the channel removed: the sender output feeds the receiver directly.

Training runs mini-batch Adam on cross-entropy through the soft relaxation,
with every layer's weights and bias packed into one flat vector so each batch
is one optimizer step; evaluation decodes hard, noise-free symbols. Early
stopping restores the parameters of the best validation epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    InputError,
    StateError,
    TrainingDivergedError,
)
from .gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform
from .nn import AdamState, DenseLayer, adam_step, as_f64, softmax_cross_entropy

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
        for name in ("batch_size", "max_epochs", "patience", "vocab_size"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be a positive integer")
        if not (self.temperature > 0):
            raise InputError("temperature must be positive")
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
        for prev, nxt in zip(sender, sender[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"sender layer chain mismatch: {prev.out_dim} -> {nxt.in_dim}"
                )
        for prev, nxt in zip(receiver, receiver[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"receiver layer chain mismatch: {prev.out_dim} -> {nxt.in_dim}"
                )
        if bottleneck is not None and bottleneck.vocab_size != sender[-1].out_dim:
            raise DimensionError(
                f"sender output dim {sender[-1].out_dim} does not match "
                f"vocabulary size {bottleneck.vocab_size}"
            )
        if sender[-1].out_dim != receiver[0].in_dim:
            raise DimensionError(
                f"receiver input dim {receiver[0].in_dim} does not match "
                f"sender output dim {sender[-1].out_dim}"
            )
        self.sender = sender
        self.receiver = receiver
        self.bottleneck = bottleneck
        self._train_path = False

    @property
    def input_dim(self):
        return self.sender[0].in_dim

    @property
    def num_classes(self):
        return self.receiver[-1].out_dim

    @property
    def code_dim(self):
        return self.sender[-1].out_dim

    @property
    def vocab_size(self):
        return self.bottleneck.vocab_size if self.bottleneck is not None else None

    def layers(self):
        return self.sender + self.receiver

    def forward(self, x, mode="train", noise=None):
        """Class logits for a batch, and the decoded symbol index per sample
        as an int array (argmax of the soft relaxation in train mode, of the
        hard one-hot in eval); symbols is None without a bottleneck."""
        if mode not in ("train", "eval"):
            raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
        x = as_f64(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"input shape {x.shape} incompatible with input_dim {self.input_dim}"
            )
        h = x
        for layer in self.sender:
            h = layer.forward(h)
        symbols = None
        if self.bottleneck is not None:
            if mode == "train":
                h = self.bottleneck.forward(h, noise=noise, mode="soft")
            else:
                h = self.bottleneck.forward(h, mode="hard_eval")
            symbols = hard_decode(h)
        for layer in self.receiver:
            h = layer.forward(h)
        self._train_path = mode == "train"
        return h, symbols

    def backward(self, upstream_grad):
        """Backpropagate a logit gradient through the cached train forward.

        Returns (input_grad, grads) where grads lists one
        (layer, weight_grad, bias_grad) per layer in forward order.
        """
        if not self._train_path:
            raise StateError("backward requires a preceding train-mode forward")
        g = as_f64(upstream_grad)
        grads = []
        for layer in reversed(self.receiver):
            g, gw, gb = layer.backward(g)
            grads.append((layer, gw, gb))
        if self.bottleneck is not None:
            g = self.bottleneck.backward(g)
        for layer in reversed(self.sender):
            g, gw, gb = layer.backward(g)
            grads.append((layer, gw, gb))
        grads.reverse()
        return g, grads


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


class EarlyStopping:
    """Stop after `patience` consecutive epochs without a strictly better
    validation loss; remembers which epoch was best."""

    def __init__(self, patience):
        if patience < 1:
            raise InputError("patience must be a positive integer")
        self.patience = patience
        self.best_loss = math.inf
        self.best_epoch = 0
        self.stale_epochs = 0

    def update(self, epoch, val_loss):
        """Record one epoch; returns True when it improved on the best."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.stale_epochs = 0
            return True
        self.stale_epochs += 1
        return False

    @property
    def should_stop(self):
        return self.stale_epochs >= self.patience


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    stopped_early: bool = False


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


def dataset_loss(model, dataset, batch_size, noise_rng=None):
    """Mean cross-entropy over a dataset, batched in input order.

    With a bottleneck and a noise_rng, the soft relaxation is used with
    noise drawn from that generator (the validation contract); otherwise the
    forward pass is the deterministic eval path.
    """
    total = 0.0
    for idx in _batches(dataset.num_samples, batch_size):
        xb = dataset.features[idx]
        if model.bottleneck is not None and noise_rng is not None:
            noise = noise_from_uniform(
                noise_rng.uniform(size=(len(idx), model.vocab_size))
            )
            logits, _ = model.forward(xb, mode="train", noise=noise)
        else:
            logits, _ = model.forward(xb, mode="eval")
        loss, _ = softmax_cross_entropy(logits, dataset.labels[idx])
        total += loss * len(idx)
    return total / dataset.num_samples


def train(model, train_set, val_set, config):
    """Mini-batch Adam with per-epoch validation and early stopping.

    Returns a TrainLog; the model is left holding the best-validation-epoch
    parameters as views into one flat vector. Raises TrainingDivergedError
    (with the epoch) on a non-finite loss.
    """
    config.validate()
    if train_set.num_samples == 0 or val_set.num_samples == 0:
        raise InputError("train and validation sets must be non-empty")
    for ds in (train_set, val_set):
        if ds.num_features != model.input_dim:
            raise DimensionError(
                f"dataset has {ds.num_features} features, model expects "
                f"{model.input_dim}"
            )
        if not np.all(np.isfinite(ds.features)):
            raise InputError(f"{ds.split or 'data'} features contain non-finite values")
        if ds.labels.max() >= model.num_classes:
            raise InputError(
                f"label {ds.labels.max()} out of range for {model.num_classes} classes"
            )
    shuffle_rng = np.random.default_rng(config.seed + _SHUFFLE_STREAM)
    params, grads, grad_views = _pack(model)
    state = AdamState.for_param(params, learning_rate=config.learning_rate)

    stopper = EarlyStopping(config.patience)
    log = TrainLog()
    best = params.copy()
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train_set.num_samples)
        running = 0.0
        for idx in _batches(train_set.num_samples, config.batch_size, order):
            try:
                logits, _ = model.forward(train_set.features[idx], mode="train")
                loss, dlogits = softmax_cross_entropy(logits, train_set.labels[idx])
            except InputError:
                # inputs were validated up front, so a non-finite value here
                # means the optimization blew up
                raise TrainingDivergedError(epoch) from None
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            running += loss * len(idx)
            _, layer_grads = model.backward(dlogits)
            for (vw, vb), (_, gw, gb) in zip(grad_views, layer_grads):
                vw[...] = gw
                vb[...] = gb
            adam_step(state, params, grads)
        train_loss = running / train_set.num_samples
        # validation noise stream is rebuilt each epoch so losses are
        # comparable across epochs
        val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
        try:
            val_loss = dataset_loss(model, val_set, config.batch_size,
                                    noise_rng=val_rng)
        except InputError:
            raise TrainingDivergedError(epoch) from None
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(epoch)
        log.epochs.append(EpochStats(epoch, train_loss, val_loss))
        if stopper.update(epoch, val_loss):
            best = params.copy()
        if stopper.should_stop:
            log.stopped_early = True
            break
    params[...] = best
    log.best_epoch = stopper.best_epoch
    log.best_val_loss = stopper.best_loss
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
    logits, symbols = model.forward(test_set.features, mode="eval")
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
    try:
        out_dim, in_dim = doc["shape"]
        weights = np.array(doc["weights"], dtype=np.float64)
        bias = np.array(doc["bias"], dtype=np.float64)
        activation = doc["activation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed layer document: {exc}") from None
    if weights.size != out_dim * in_dim or bias.size != out_dim:
        raise FormatError(
            f"layer data does not match declared shape [{out_dim}, {in_dim}]"
        )
    try:
        return DenseLayer(weights.reshape(out_dim, in_dim), bias, activation)
    except (InputError, DimensionError) as exc:
        raise FormatError(str(exc)) from None


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


def load_checkpoint(doc):
    if not isinstance(doc, dict):
        raise FormatError("checkpoint document must be a mapping")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"unsupported checkpoint version {version!r}, expected "
            f"{CHECKPOINT_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in ("el", "baseline"):
        raise FormatError(f"unknown model kind {kind!r}")
    try:
        sender = [_layer_from_doc(d) for d in doc["sender"]]
        receiver = [_layer_from_doc(d) for d in doc["receiver"]]
    except KeyError as exc:
        raise FormatError(f"checkpoint missing section {exc}") from None
    bottleneck = None
    if kind == "el":
        try:
            bottleneck = GumbelSoftmaxSampler(
                doc["vocab_size"],
                temperature=doc["temperature"],
                seed=doc.get("sampler_seed", 0),
            )
        except (KeyError, InputError) as exc:
            raise FormatError(f"bad sampler metadata: {exc}") from None
    try:
        model = ModelGraph(sender, receiver, bottleneck)
    except (DimensionError, InputError) as exc:
        raise FormatError(str(exc)) from None
    if model.input_dim != doc.get("input_dim") or model.num_classes != doc.get(
        "num_classes"
    ):
        raise FormatError("checkpoint metadata does not match layer shapes")
    return model


def checkpoint_standardization(doc):
    """The (mean, std) a checkpoint's model expects its inputs scaled by, or
    None when it was trained on raw features."""
    try:
        section = doc["standardization"]
    except (KeyError, TypeError):
        raise FormatError("checkpoint missing section 'standardization'") from None
    if section is None:
        return None
    try:
        mean, std = (as_f64(section[key]) for key in ("mean", "std"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed standardization: {exc!r}") from None
    for values in (mean, std):
        if values.shape != (doc.get("input_dim"),) or not np.all(np.isfinite(values)):
            raise FormatError(
                "standardization must hold input_dim finite means and stds"
            )
    if not np.all(std > 0):
        raise FormatError("standardization std must be positive")
    return mean, std


def checkpoint_names(doc):
    """(feature_names, class_names) of a checkpoint's model: its input
    columns in order, and the name of each class index or None."""
    try:
        features, classes = doc["feature_names"], doc["class_names"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"checkpoint missing section {exc}") from None
    for names, count, optional in (
        (features, doc.get("input_dim"), False),
        (classes, doc.get("num_classes"), True),
    ):
        if names is None and optional:
            continue
        if (
            not isinstance(names, list)
            or len(names) != count
            or not all(isinstance(name, str) for name in names)
        ):
            raise FormatError(
                "checkpoint names must be lists of input_dim feature and "
                "num_classes class strings"
            )
    return features, classes
