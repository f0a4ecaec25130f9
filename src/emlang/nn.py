"""Dense float64 network primitives: layers, softmax cross-entropy, Adam.

Everything runs on plain numpy arrays, batch-first and float64, and nothing
is cached between calls: ``stack_forward`` records what ``stack_backward``
needs on a tape the caller passes, and the backward writes gradients into
arrays the caller owns. ``adam_step`` updates parameters and moments in
place, so one call steps every layer whose weights are views into a shared
flat vector. An ``AdamState`` holds the moments, the step count and the
learning rate; the decay rates and epsilon, which no caller varies, are the
module constants ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError

ACTIVATIONS = ("relu", "identity")

ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8


def as_f64(values):
    return np.asarray(values, dtype=np.float64)


def is_int(value):
    """Whether value is an integer, numpy's included, and not a bool: a
    count or an index is never read from a bool, a fraction or a string."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name, value, least):
    """InputError unless value `is_int` and is at least `least`: the one
    rule, and the one message, for every count, seed and index."""
    if not (is_int(value) and value >= least):
        raise InputError(f"{name} must be an int >= {least}, got {value!r}")


def glorot_uniform(rng, fan_out, fan_in):
    """Seeded uniform init in +/- sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def softmax(logits, axis=-1):
    """Softmax along `axis` (by default row-wise), stabilized by subtracting
    the max."""
    z = as_f64(logits)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits):
    z = as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class DenseLayer:
    """Affine map plus activation: y = act(x @ W.T + b).

    weights has shape [out, in], bias [out]; activation is fixed at
    construction to 'relu' or 'identity'.
    """

    def __init__(self, weights, bias, activation="relu"):
        weights = as_f64(weights)
        bias = as_f64(bias)
        if weights.ndim != 2:
            raise InputError(f"weights must be 2-d, got shape {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise InputError(
                f"bias shape {bias.shape} does not match weights {weights.shape}"
            )
        if activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {activation!r}")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @classmethod
    def init(cls, rng, in_dim, out_dim, activation="relu"):
        """Glorot-initialized weights, zero bias."""
        return cls(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim), activation)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def forward(self, x):
        """act(x @ W.T + b) for a batch of rows; keeps nothing."""
        x = as_f64(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise InputError(
                f"input shape {x.shape} incompatible with weights {self.weights.shape}"
            )
        return stack_forward((self,), x)


def stack_forward(layers, x, tape=None):
    """Run the float64 rows x through `layers`, appending each layer's
    (input, pre-activation) to `tape` if one is given. Shapes are the
    caller's to check."""
    h = x
    for layer in layers:
        z = h @ layer.weights.T
        z += layer.bias
        if tape is not None:
            tape.append((h, z))
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return h


def stack_backward(layers, tape, upstream, grads, input_grad=True):
    """Chain rule from `upstream`, the float64 gradient at the output of a
    `stack_forward` recorded on `tape`, writing layer i's weight and bias
    gradients into the pair `grads[i]`. Returns the input gradient, or None
    without computing it when `input_grad` is false. ReLU uses the
    subgradient 0 at exactly zero pre-activation."""
    g = upstream
    if g.shape != tape[-1][1].shape:
        raise InputError(
            f"upstream grad shape {g.shape} does not match the stack's output "
            f"{tape[-1][1].shape}"
        )
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        x, z = tape[i]
        weight_grad, bias_grad = grads[i]
        if layer.activation == "relu":
            g = g * (z > 0.0)
        np.matmul(g.T, x, out=weight_grad)
        np.add.reduce(g, axis=0, out=bias_grad)
        if i == 0 and not input_grad:
            return None
        g = g @ layer.weights
    return g


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels.

    Returns (loss, logit_grad) with logit_grad = (softmax - onehot) / batch.
    """
    logits = as_f64(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise InputError(f"logits must be 2-d, got shape {logits.shape}")
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise InputError(
            f"labels shape {labels.shape} does not match batch of {n}"
        )
    if n == 0:
        raise InputError("empty batch")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return cross_entropy(logits, labels)


def cross_entropy(logits, labels):
    """`softmax_cross_entropy` without its checks, for callers that check
    once for many batches: float64 [n, C] logits, n >= 1, labels in [0, C)."""
    n = logits.shape[0]
    logp = log_softmax(logits)
    rows = np.arange(n)
    loss = -float(logp[rows, labels].sum()) / n
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


class AdamState:
    """Adam moments, step count and learning rate for one parameter tensor,
    with two scratch tensors of the same shape that `adam_step` computes in."""

    def __init__(self, param, learning_rate=1e-3):
        param = as_f64(param)
        self.first_moment = np.zeros_like(param)
        self.second_moment = np.zeros_like(param)
        self.scratch = (np.empty_like(param), np.empty_like(param))
        self.step_count = 0
        self.learning_rate = learning_rate


def adam_step(state, params, grads):
    """One bias-corrected Adam update, in place.

    Overwrites `params` (when it is already a float64 array) and the moments
    in `state`, and returns `params`. Elementwise, so one call on a flat
    vector equals separate calls on any split of it, bit for bit. Every
    intermediate goes to the state's scratch tensors, so a step allocates no
    array of the parameters' size.
    """
    params = as_f64(params)
    grads = as_f64(grads)
    if params.shape != state.first_moment.shape:
        raise InputError(
            f"params shape {params.shape} does not match state "
            f"{state.first_moment.shape}"
        )
    if grads.shape != params.shape:
        raise InputError(
            f"grads shape {grads.shape} does not match params {params.shape}"
        )
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    a, b = state.scratch
    # in place, in the elementwise order of the textbook update, so the
    # result matches it bit for bit:
    #   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    #   params -= (lr (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
    m *= ADAM_B1
    np.multiply(grads, 1.0 - ADAM_B1, out=a)
    m += a
    v *= ADAM_B2
    np.multiply(grads, 1.0 - ADAM_B2, out=a)
    a *= grads
    v += a
    np.divide(m, 1.0 - ADAM_B1 ** t, out=a)
    a *= state.learning_rate
    np.divide(v, 1.0 - ADAM_B2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a
    return params
