"""Dense float64 network primitives: layers, softmax cross-entropy, Adam.

Everything runs on plain numpy arrays, batch-first and float64. Layers cache
their last forward pass so ``backward`` can run without re-supplying inputs;
a cache belongs to a single training context and is overwritten by the next
forward call. ``adam_step`` updates parameters and moments in place, so one
call steps every layer whose weights are views into a shared flat vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError, StateError

ACTIVATIONS = ("relu", "identity")


def as_f64(values):
    return np.asarray(values, dtype=np.float64)


def glorot_uniform(rng, fan_out, fan_in):
    """Seeded uniform init in +/- sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def softmax(logits):
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
            raise DimensionError(f"weights must be 2-d, got shape {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise DimensionError(
                f"bias shape {bias.shape} does not match weights {weights.shape}"
            )
        if activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {activation!r}")
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self._input = None
        self._preact = None

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
        x = as_f64(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"input shape {x.shape} incompatible with weights {self.weights.shape}"
            )
        z = x @ self.weights.T + self.bias
        self._input = x
        self._preact = z
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return z

    def backward(self, upstream_grad):
        """Chain-rule gradients for the cached forward pass.

        Returns (input_grad, weight_grad, bias_grad). ReLU uses the
        subgradient 0 at exactly zero pre-activation.
        """
        if self._input is None:
            raise StateError("backward called before forward")
        g = as_f64(upstream_grad)
        if g.shape != self._preact.shape:
            raise DimensionError(
                f"upstream grad shape {g.shape} does not match cached output "
                f"{self._preact.shape}"
            )
        if self.activation == "relu":
            g = g * (self._preact > 0.0)
        input_grad = g @ self.weights
        weight_grad = g.T @ self._input
        bias_grad = g.sum(axis=0)
        return input_grad, weight_grad, bias_grad


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels.

    Returns (loss, logit_grad) with logit_grad = (softmax - onehot) / batch.
    """
    logits = as_f64(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-d, got shape {logits.shape}")
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch of {n}"
        )
    if n == 0:
        raise InputError("empty batch")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    logp = log_softmax(logits)
    rows = np.arange(n)
    loss = float(-logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class AdamState:
    """Adam moments and hyperparameters for one parameter tensor, with two
    scratch tensors of the same shape that `adam_step` computes in."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (
            np.empty_like(self.first_moment),
            np.empty_like(self.first_moment),
        )

    @classmethod
    def for_param(cls, param, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        param = as_f64(param)
        return cls(
            first_moment=np.zeros_like(param),
            second_moment=np.zeros_like(param),
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


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
        raise DimensionError(
            f"params shape {params.shape} does not match state "
            f"{state.first_moment.shape}"
        )
    if grads.shape != params.shape:
        raise DimensionError(
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
    m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=a)
    m += a
    v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=a)
    a *= grads
    v += a
    np.divide(m, 1.0 - state.beta1 ** t, out=a)
    a *= state.learning_rate
    np.divide(v, 1.0 - state.beta2 ** t, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    a /= b
    params -= a
    return params
