"""Gumbel-softmax symbol channel.

The channel turns a vector of sender logits into a (relaxed) one-hot symbol
over a vocabulary of size K. Adding Gumbel noise g = -log(-log(u)) to log
category probabilities makes the argmax an exact categorical draw; dividing
by a temperature and renormalizing with a softmax keeps the draw
differentiable, so gradients reach the sender.

Training uses the sampler: `relax` returns the soft forward's tape for the
noise it is given and `relax_backward` takes it back; the sampler keeps
nothing between calls. Evaluation is noise-free: `hard_decode` picks each
row's argmax symbol and `one_hot` encodes it for the receiver.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError, NumericalError
from .nn import as_f64, check_int, log_softmax, softmax

# Uniform draws are clamped away from {0, 1} before the double log.
UNIFORM_EPS = 1e-12


def noise_from_uniform(u):
    """-log(-log(u)) with u clamped to (UNIFORM_EPS, 1 - UNIFORM_EPS)."""
    u = np.clip(as_f64(u), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def one_hot(indices, depth):
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((indices.shape[0], depth))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def _check_finite(logits):
    # inputs and weights are checked finite at entry, so this is an overflow
    if not np.isfinite(logits).all():
        raise NumericalError("logits contain non-finite values")


def hard_decode(logits):
    """Symbol index per row of [batch, K] logits (or relaxed rows): argmax,
    ties broken by lowest index. A non-finite value raises NumericalError."""
    logits = as_f64(logits)
    if logits.ndim != 2:
        raise InputError(f"expected [batch, K] rows, got shape {logits.shape}")
    _check_finite(logits)
    return np.argmax(logits, axis=1)


class GumbelSoftmaxSampler:
    """Soft Gumbel-softmax relaxation over a vocabulary of K symbols, for
    training.

    `relax` takes Gumbel noise g and returns
    softmax((log_softmax(logits) + g) / temperature) with its tape; rows lie
    strictly inside the simplex. `relax_backward` is the exact
    Jacobian-vector product w.r.t. the logits (noise treated as constant).

    `rng_seed` seeds the noise that `train` draws; the sampler draws none.
    """

    def __init__(self, vocab_size, temperature=1.0, seed=0):
        check_int("vocab_size", vocab_size, 2)
        if isinstance(temperature, bool) or not (
                isinstance(temperature, numbers.Real) and 0 < temperature < math.inf):
            raise InputError(
                f"temperature must be positive and finite, got {temperature!r}"
            )
        check_int("sampler seed", seed, 0)
        self.vocab_size = int(vocab_size)
        self.temperature = float(temperature)
        self.rng_seed = int(seed)

    def relax(self, logits, noise):
        """Soft forward of float64 [batch, K] logits with [batch, K] noise;
        returns the tape (softmax(logits), relaxed output). A non-finite
        logit raises NumericalError: a training blow-up shows here."""
        if logits.ndim != 2 or logits.shape[1] != self.vocab_size:
            raise InputError(
                f"logits shape {logits.shape} incompatible with vocabulary "
                f"size {self.vocab_size}"
            )
        _check_finite(logits)
        if noise is None:
            raise InputError(
                f"the model's channel needs [batch, {self.vocab_size}] Gumbel "
                "noise; ModelGraph.decode runs without it"
            )
        noise = as_f64(noise)
        if noise.shape != logits.shape:
            raise InputError(
                f"noise shape {noise.shape} does not match logits {logits.shape}"
            )
        log_p = log_softmax(logits)
        relaxed = softmax((log_p + noise) / self.temperature)
        return np.exp(log_p), relaxed

    def relax_backward(self, tape, upstream):
        """Gradient w.r.t. the logits of a `relax` forward, from its tape and
        the gradient at its output: the outer softmax Jacobian (scaled by
        1/temperature) chained through the inner log-softmax."""
        probs, relaxed = tape
        g = upstream
        dz = relaxed * (g - (g * relaxed).sum(axis=1, keepdims=True))
        dlogp = dz / self.temperature
        return dlogp - probs * dlogp.sum(axis=1, keepdims=True)
