"""Gumbel-softmax symbol channel.

The channel turns a vector of sender logits into a (relaxed) one-hot symbol
over a vocabulary of size K. Adding Gumbel noise g = -log(-log(u)) to log
category probabilities makes the argmax an exact categorical draw; dividing
by a temperature and renormalizing with a softmax keeps the draw
differentiable, so gradients reach the sender.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError, StateError
from .nn import as_f64, log_softmax, softmax

# Uniform draws are clamped away from {0, 1} before the double log.
UNIFORM_EPS = 1e-12

MODES = ("soft", "hard_eval")


def noise_from_uniform(u):
    """-log(-log(u)) with u clamped to (UNIFORM_EPS, 1 - UNIFORM_EPS)."""
    u = np.clip(as_f64(u), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def gumbel_noise(count, rng):
    """`count` independent standard-Gumbel draws from a seeded generator."""
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    return noise_from_uniform(rng.uniform(size=count))


def one_hot(indices, depth):
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((indices.shape[0], depth))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def hard_decode(relaxed):
    """Symbol index per row: argmax, ties broken by lowest index."""
    relaxed = as_f64(relaxed)
    if relaxed.ndim != 2:
        raise DimensionError(f"expected [batch, K] rows, got shape {relaxed.shape}")
    return np.argmax(relaxed, axis=1)


class GumbelSoftmaxSampler:
    """Discrete bottleneck over a vocabulary of K one-hot symbols.

    Soft mode (training): forward draws Gumbel noise g and returns
    softmax((log_softmax(logits) + g) / temperature); rows lie strictly
    inside the simplex and backward produces the exact Jacobian-vector
    product w.r.t. the logits (noise treated as constant).

    hard_eval mode: forward is the noise-free one-hot of the argmax logit,
    so evaluation is deterministic. No backward pass is available in this
    mode.

    The sampler owns its RNG stream; callers may inject explicit noise
    (e.g. to freeze it for finite-difference checks).
    """

    def __init__(self, vocab_size, temperature=1.0, mode="soft", seed=0):
        if vocab_size < 2:
            raise InputError(f"vocab_size must be >= 2, got {vocab_size}")
        if not (temperature > 0):
            raise InputError(f"temperature must be positive, got {temperature}")
        if mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {mode!r}")
        self.vocab_size = int(vocab_size)
        self.temperature = float(temperature)
        self.mode = mode
        self.rng_seed = int(seed)
        self.rng = np.random.default_rng(self.rng_seed)
        self._cache = None

    def reseed(self, seed):
        self.rng_seed = int(seed)
        self.rng = np.random.default_rng(self.rng_seed)

    def _check_logits(self, logits):
        logits = as_f64(logits)
        if logits.ndim != 2 or logits.shape[1] != self.vocab_size:
            raise DimensionError(
                f"logits shape {logits.shape} incompatible with vocabulary "
                f"size {self.vocab_size}"
            )
        if not np.all(np.isfinite(logits)):
            raise InputError("logits contain non-finite values")
        return logits

    def forward(self, logits, noise=None, mode=None):
        """Relaxed (soft) or one-hot (hard_eval) symbol rows for a logit batch."""
        logits = self._check_logits(logits)
        mode = self.mode if mode is None else mode
        if mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "hard_eval":
            self._cache = None
            return one_hot(np.argmax(logits, axis=1), self.vocab_size)
        if noise is None:
            noise = noise_from_uniform(self.rng.uniform(size=logits.shape))
        else:
            noise = as_f64(noise)
            if noise.shape != logits.shape:
                raise DimensionError(
                    f"noise shape {noise.shape} does not match logits {logits.shape}"
                )
        log_p = log_softmax(logits)
        relaxed = softmax((log_p + noise) / self.temperature)
        self._cache = (np.exp(log_p), relaxed)
        return relaxed

    def backward(self, upstream_grad):
        """Gradient w.r.t. the logits for the cached soft forward pass.

        Chains the outer softmax Jacobian (scaled by 1/temperature) through
        the inner log-softmax.
        """
        if self._cache is None:
            raise StateError("backward called before a soft forward pass")
        probs, relaxed = self._cache
        g = as_f64(upstream_grad)
        if g.shape != relaxed.shape:
            raise DimensionError(
                f"upstream grad shape {g.shape} does not match cached output "
                f"{relaxed.shape}"
            )
        dz = relaxed * (g - (g * relaxed).sum(axis=1, keepdims=True))
        dlogp = dz / self.temperature
        return dlogp - probs * dlogp.sum(axis=1, keepdims=True)
