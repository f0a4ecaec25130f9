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
for the whole call. Each batch is one call of a step bound to its split's
arrays, with one contract on both paths: `_numpy_steps` binds `forward`,
the loss and `backward`, and `_bind_steps` binds STEP_C, the whole batch in
C (the noise, the forward, the loss and, when training, the backward).
`train` binds STEP_C where it can and the numpy path otherwise; on a symbol
model the validation noise is drawn once per `train` call. Early stopping
restores the parameters of the best validation epoch.

STEP_C and `nn.ADAM_C` are one library, which the first `train` of a
process loads through `nn.compiled`, which compiles it once per machine,
before it makes its `AdamState`; the library is kept only if both halves
give the numpy path's bytes on their probes, `_steps_agree` and
`nn._agrees`, so a process trains either fully compiled or fully on numpy.
STEP_C makes the calls numpy makes, into numpy's own dgemm and exp, log and
maximum loops, and takes every other operation in numpy's IEEE order, so
the two paths give the same bytes and which one ran cannot show in a run's
output. The default study's two 200-epoch trainings took ~1.9 s against
~2.9-3.4 s on the numpy path (2-vCPU VM, gcc 12.2, numpy 2.4.6; README).

`ModelGraph.decode` is the one noise-free evaluation of the package, which
`evaluate` and attribution share: each input's sender logits decode to their
argmax symbol, and the receiver classifies from that symbol's one-hot alone.
It runs DECODE_ROWS rows at a time, so its hidden activations never span a
whole test set, and it raises NumericalError on a non-finite logit on either
side of the channel, so an overflow is never reported as a prediction.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .data import Dataset
from .errors import InputError, NumericalError
from .gumbel import (UNIFORM_EPS, GumbelSoftmaxSampler, hard_decode, noise_from_uniform,
                     one_hot)
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
    the layers at views of it. Also returns `grads`, a zeroed vector of the
    same layout, with each layer's (weight, bias) views into it in forward
    order; a batch whose loss is not finite writes no gradient into it."""
    layers = model.layers()
    params = np.empty(sum(layer.weights.size + layer.bias.size for layer in layers))
    grads = np.zeros_like(params)
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


def _numpy_steps(model, grad_views):
    """`bind(features, labels, order=None, uniforms=None, noise=None)`,
    which binds the numpy path to the model, its (weight, bias) gradient
    views (forward order) and one split's arrays, and returns `step(start,
    rows) -> loss`, the batch's `cross_entropy` mean loss through `forward`.
    With an `order`, a training batch of the rows `order[start:start +
    rows]`, with the Gumbel noise of `uniforms[:rows]` on a symbol model,
    which writes its gradients only when its loss is finite; without one,
    a validation batch of the rows from `start` and their rows of `noise`,
    which writes none. STEP_C's contract, as `_bind_steps` binds it."""

    def bind(features, labels, order=None, uniforms=None, noise=None):
        def step(start, rows):
            if order is None:
                idx = slice(start, start + rows)
                batch = None if noise is None else noise[idx]
            else:
                idx = order[start : start + rows]
                batch = None if uniforms is None else noise_from_uniform(uniforms[:rows])
            logits, tape = model.forward(features[idx], batch)
            loss, dlogits = cross_entropy(logits, labels[idx])
            if order is not None and math.isfinite(loss):
                model.backward(tape, dlogits, grad_views)
            return loss

        return step

    return bind


def dataset_loss(step, n, batch_size):
    """Mean loss of a bound validation `step` over its split's n rows,
    batch_size at a time in input order, weighted by row count. A symbol
    model is scored through the soft relaxation with the noise bound to the
    step; there is no noise-free loss of one."""
    total = 0.0
    for start in range(0, n, batch_size):
        rows = min(batch_size, n - start)
        total += step(start, rows) * rows
    return total / n


# One training or validation batch of `_numpy_steps` in one C call, taking
# the same IEEE operations in the same order as the numpy path: every
# matmul is numpy's own cblas_dgemm called with the arguments np.matmul
# passes it, every exp, log and relu is numpy's own float64 loop (from
# `_numpy_calls`), row sums are numpy's pairwise sum from its identity 0.0,
# bias gradients are summed row by row, and each elementwise expression
# rounds each operation as numpy's separate passes do
STEP_C = f"#define UNIFORM_EPS {UNIFORM_EPS!r}\n" + r"""#include <math.h>
#include <string.h>

typedef long long i64;
/* a numpy strided loop, and the head of the call-info struct numpy fills
   in for one: the loop, its context and its auxdata */
typedef int (*loop_t)(void *, char *const *, const i64 *, const i64 *, void *);
typedef struct { loop_t loop; void *context, *auxdata; } ufunc;
typedef void (*gemm_t)(int, int, int, i64, i64, i64, double, const double *, i64,
                       const double *, i64, double, double *, i64);
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* the ufunc's loop on n contiguous doubles, as numpy runs it on an array */
static void unary(const ufunc *f, const double *in, double *out, i64 n) {
    char *data[2] = {(char *)in, (char *)out};
    const i64 strides[2] = {8, 8};
    f->loop(f->context, data, &n, strides, f->auxdata);
}

/* np.maximum(z, 0.0), through numpy's own loop */
static void relu(const ufunc *f, const double *z, double *h, i64 n) {
    const double zero = 0.0;
    char *data[3] = {(char *)z, (char *)&zero, (char *)h};
    const i64 strides[3] = {8, 0, 8};
    f->loop(f->context, data, &n, strides, f->auxdata);
}

/* numpy's pairwise sum: 8 accumulators, halved above 128 terms */
static double pairwise(const double *a, i64 n) {
    if (n < 8) {
        double res = -0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 i;
        for (int j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* each row's sum as np.sum(axis=-1) gives it, from its identity 0.0 */
static void row_sums(const double *a, i64 rows, i64 k, double *s) {
    for (i64 i = 0; i < rows; i++) s[i] = 0.0 + pairwise(a + i * k, k);
}

/* each row's max as np.max(axis=-1) gives it, NaN included */
static double row_max(const double *a, i64 k) {
    double m = a[0];
    for (i64 j = 1; j < k; j++) m = (m >= a[j] || m != m) ? m : a[j];
    return m;
}

/* log_softmax: z = x - max, out = z - log(sum(exp(z))); s holds 2 rows */
static void log_softmax(const ufunc *ex, const ufunc *lg, const double *x, i64 rows,
                        i64 k, double *z, double *e, double *s, double *out) {
    for (i64 i = 0; i < rows; i++) {
        double m = row_max(x + i * k, k);
        for (i64 j = 0; j < k; j++) z[i * k + j] = x[i * k + j] - m;
    }
    unary(ex, z, e, rows * k);
    row_sums(e, rows, k, s);
    unary(lg, s, s + rows, rows);
    for (i64 i = 0; i < rows; i++)
        for (i64 j = 0; j < k; j++) out[i * k + j] = z[i * k + j] - s[rows + i];
}

/* where each buffer lies in the scratch, in doubles from its start */
typedef struct {
    i64 x0, z, h, noise, ca, cb, logp, probs, relaxed, la, lb, lp, dl, picked, s, g1, g2,
        gm, end;
} layout_t;

static layout_t layout(const i64 *dims) {
    i64 L = dims[0], K = dims[2], B = dims[3];
    const i64 *w = dims + 4;
    i64 wide = 0, widths = 0, at = 0;
    for (i64 l = 0; l <= L; l++) wide = w[l] > wide ? w[l] : wide;
    for (i64 l = 1; l <= L; l++) widths += B * w[l];
    layout_t b;
#define TAKE(name, n) (b.name = at, at += (n))
    TAKE(x0, B * w[0]); TAKE(z, widths); TAKE(h, widths);
    TAKE(noise, B * K); TAKE(ca, B * K); TAKE(cb, B * K); TAKE(logp, B * K);
    TAKE(probs, B * K); TAKE(relaxed, B * K);
    TAKE(la, B * w[L]); TAKE(lb, B * w[L]); TAKE(lp, B * w[L]); TAKE(dl, B * w[L]);
    TAKE(picked, B); TAKE(s, 2 * B); TAKE(g1, B * wide); TAKE(g2, B * wide);
    TAKE(gm, B * wide);
#undef TAKE
    b.end = at;
    return b;
}

long long scratch_doubles(const i64 *dims) { return layout(dims).end; }

/* One batch of `rows` rows through the chain that `dims` describes,
   returning its mean cross-entropy, or NaN on a non-finite sender logit;
   `_bind_steps` lays out dims and p. A batch with an order is a training
   batch: its rows are order[start:start + rows], its noise comes from the
   bound uniforms, and when its loss is finite it writes every layer's
   gradients. One without is a validation batch of the `rows` rows and
   rows of noise from `start`, and computes no gradient. */
double step(const i64 *dims, void *const *p, double temperature, i64 start, i64 rows) {
    const i64 L = dims[0], S = dims[1], K = dims[2], *w = dims + 4, *act = dims + 5 + L;
    const gemm_t gemm = (gemm_t)p[0];
    const ufunc *ex = p[1], *lg = p[2], *mx = p[3];
    const double *features = p[4], *uniforms = p[7];
    const i64 *labels = p[5], *order = p[6];
    double *scratch = p[9];
    void *const *params = p + 10;
    const layout_t b = layout(dims);
    double *s = scratch + b.s;
    const double *x = features + start * w[0];
    if (order) {
        x = scratch + b.x0;
        for (i64 i = 0; i < rows; i++)
            memcpy(scratch + b.x0 + i * w[0], features + order[start + i] * w[0],
                   w[0] * sizeof(double));
    }
    const double *noise = p[8] ? (const double *)p[8] + start * K : 0;
    if (K && uniforms) {  /* -log(-log(clip(u, eps, 1 - eps))) */
        double *ca = scratch + b.ca, *cb = scratch + b.cb, *out = scratch + b.noise;
        for (i64 i = 0; i < rows * K; i++) {
            double u = uniforms[i] > UNIFORM_EPS ? uniforms[i] : UNIFORM_EPS;
            ca[i] = u < 1.0 - UNIFORM_EPS ? u : 1.0 - UNIFORM_EPS;
        }
        unary(lg, ca, cb, rows * K);
        for (i64 i = 0; i < rows * K; i++) ca[i] = -cb[i];
        unary(lg, ca, cb, rows * K);
        for (i64 i = 0; i < rows * K; i++) out[i] = -cb[i];
        noise = out;
    }
    /* forward, keeping each layer's input, pre-activation and output */
    const double *in[L];
    double *zs[L], *hs[L];
    double *z = scratch + b.z, *h = scratch + b.h;
    for (i64 l = 0; l < L; l++) {
        const i64 n = rows * w[l + 1];
        const double *wt = params[4 * l], *bias = params[4 * l + 1];
        in[l] = x;
        zs[l] = z;
        /* x @ W.T, as np.matmul calls dgemm for it */
        gemm(ROW_MAJOR, NO_TRANS, TRANS, rows, w[l + 1], w[l], 1.0, x, w[l], wt, w[l], 0.0,
             z, w[l + 1]);
        for (i64 i = 0; i < rows; i++)
            for (i64 j = 0; j < w[l + 1]; j++) z[i * w[l + 1] + j] += bias[j];
        hs[l] = z;
        if (act[l]) {
            relu(mx, z, h, n);
            hs[l] = h;
        }
        x = hs[l];
        z += dims[3] * w[l + 1];
        h += dims[3] * w[l + 1];
        if (K && l == S - 1) {  /* the channel: relaxed = softmax((log_p + g) / T) */
            double *ca = scratch + b.ca, *cb = scratch + b.cb, *logp = scratch + b.logp,
                   *relaxed = scratch + b.relaxed;
            for (i64 i = 0; i < rows * K; i++)
                if (!isfinite(x[i])) return NAN;
            log_softmax(ex, lg, x, rows, K, ca, cb, s, logp);
            for (i64 i = 0; i < rows; i++) {
                for (i64 j = 0; j < K; j++)
                    ca[i * K + j] = (logp[i * K + j] + noise[i * K + j]) / temperature;
                double m = row_max(ca + i * K, K);
                for (i64 j = 0; j < K; j++) ca[i * K + j] = ca[i * K + j] - m;
            }
            unary(ex, ca, cb, rows * K);
            row_sums(cb, rows, K, s);
            for (i64 i = 0; i < rows; i++)
                for (i64 j = 0; j < K; j++) relaxed[i * K + j] = cb[i * K + j] / s[i];
            unary(ex, logp, scratch + b.probs, rows * K);
            x = relaxed;
        }
    }
    /* cross_entropy of the class logits x */
    const i64 C = w[L];
    double *lp = scratch + b.lp, *dl = scratch + b.dl, *picked = scratch + b.picked;
    log_softmax(ex, lg, x, rows, C, scratch + b.la, scratch + b.lb, s, lp);
    for (i64 i = 0; i < rows; i++)
        picked[i] = lp[i * C + labels[order ? order[start + i] : start + i]];
    const double loss = -(0.0 + pairwise(picked, rows)) / (double)rows;
    if (!order || !isfinite(loss)) return loss;
    unary(ex, lp, dl, rows * C);
    for (i64 i = 0; i < rows; i++) dl[i * C + labels[order[start + i]]] -= 1.0;
    for (i64 i = 0; i < rows * C; i++) dl[i] /= (double)rows;
    /* backward, into each layer's weight and bias gradient */
    double *g = dl, *next = scratch + b.g1, *other = scratch + b.g2;
    for (i64 l = L - 1; l >= 0; l--) {
        const i64 out = w[l + 1], n = rows * out;
        double *gw = params[4 * l + 2], *gb = params[4 * l + 3];
        if (act[l]) {
            double *gm = scratch + b.gm;
            for (i64 i = 0; i < n; i++) gm[i] = g[i] * (zs[l][i] > 0.0 ? 1.0 : 0.0);
            g = gm;
        }
        gemm(ROW_MAJOR, TRANS, NO_TRANS, out, w[l], rows, 1.0, g, out, in[l], w[l], 0.0,
             gw, w[l]);
        for (i64 j = 0; j < out; j++) gb[j] = 0.0;
        for (i64 i = 0; i < rows; i++)
            for (i64 j = 0; j < out; j++) gb[j] += g[i * out + j];
        if (l == 0) break;
        gemm(ROW_MAJOR, NO_TRANS, NO_TRANS, rows, w[l], out, 1.0, g, out, params[4 * l],
             w[l], 0.0, next, w[l]);
        g = next;
        next = other;
        other = g;
        if (K && l == S) {  /* back through the channel to the sender's logits */
            const double *relaxed = scratch + b.relaxed, *probs = scratch + b.probs;
            double *ca = scratch + b.ca, *cb = scratch + b.cb;
            for (i64 i = 0; i < rows * K; i++) ca[i] = g[i] * relaxed[i];
            row_sums(ca, rows, K, s);
            for (i64 i = 0; i < rows; i++)
                for (i64 j = 0; j < K; j++)
                    cb[i * K + j] = relaxed[i * K + j] * (g[i * K + j] - s[i]) / temperature;
            row_sums(cb, rows, K, s);
            for (i64 i = 0; i < rows; i++)
                for (i64 j = 0; j < K; j++)
                    next[i * K + j] = cb[i * K + j] - probs[i * K + j] * s[i];
            g = next;
            next = other;
            other = g;
        }
    }
    return loss;
}
"""
# -O3 vectorizes ADAM_C's loops, as restrict lets it, where -O2 does not
# (~50 against ~95-100 us a step on 19,240 parameters; the build takes
# ~0.45-0.55 s against ~0.25), and runs a batch of STEP_C as fast, since its
# time is numpy's dgemm and loops. -ffp-contract=off forbids fused
# multiply-adds; never -ffast-math, -Ofast or -march=native, which may reorder
# or contract the arithmetic. -pipe, and no -lm (sqrt compiles to one
# instruction without errno), each save a little of the build
CFLAGS = ("-pipe", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
# numpy's own ILP64 dgemm, as numpy 2's scipy-openblas and numpy 1's
# openblas64_ name it; an LP64 or other BLAS is not taken
DGEMM_SYMBOLS = ("scipy_cblas_dgemm64_", "cblas_dgemm64_")
# the float64 loops STEP_C calls, in the order it reads them, with the byte
# strides numpy calls each with
LOOPS = ((np.exp, (8, 8)), (np.log, (8, 8)), (np.maximum, (8, 0, 8)))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


class Library(NamedTuple):
    """The compiled library's functions, STEP_C's two and ADAM_C's, and the
    addresses of what STEP_C calls in numpy: its dgemm, then the call-info
    of each of LOOPS, whose capsules keep the loops' data alive."""

    step: object
    scratch_doubles: object
    adam: object
    shared: tuple
    capsules: list


def _numpy_calls():
    """(shared, capsules) of a Library: the address of numpy's dgemm and of
    each LOOPS call-info, with the capsules numpy fills in for them, or
    None where numpy hands out no such dgemm or loop, or a loop that needs
    the GIL."""
    blas = nn.numpy_extension()
    try:
        gemm = next(ctypes.cast(getattr(blas, name), ctypes.c_void_p).value
                    for name in DGEMM_SYMBOLS if hasattr(blas, name))
        f8 = np.dtype(np.float64)
        capsules = [ufunc._resolve_dtypes_and_context((f8,) * len(strides))[1]
                    for ufunc, strides in LOOPS]
        for (ufunc, strides), info in zip(LOOPS, capsules):
            ufunc._get_strided_loop(info, fixed_strides=strides)
        infos = [_CAPSULE_POINTER(info, b"numpy_1.24_ufunc_call_info") for info in capsules]
    except (StopIteration, AttributeError, TypeError, ValueError):
        return None
    # each call-info holds the loop, its context and auxdata, then a flag
    # that the loop needs the GIL, which a ctypes call releases
    if any(ctypes.c_bool.from_address(info + 3 * ctypes.sizeof(ctypes.c_void_p)).value
           for info in infos):
        return None
    return (gemm, *infos), capsules


def _load(calls, lib):
    """The Library of a built `nn.ADAM_C` and STEP_C, calling what
    `_numpy_calls` gave, or None where either half fails its self-check,
    `nn._agrees` or `_steps_agree`."""
    lib.step.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
                         ctypes.c_longlong, ctypes.c_longlong]
    lib.step.restype = ctypes.c_double
    lib.scratch_doubles.argtypes = [ctypes.c_void_p]
    lib.scratch_doubles.restype = ctypes.c_longlong
    lib.adam_step.argtypes = ([ctypes.c_longlong] + [ctypes.c_void_p] * 4
                              + [ctypes.c_double] * 6)
    lib.adam_step.restype = None
    library = Library(lib.step, lib.scratch_doubles, lib.adam_step, *calls)
    return library if nn._agrees(library.adam) and _steps_agree(library) else None


@functools.cache
def _library():
    """The Library of `nn.ADAM_C` and STEP_C, joined into one source and
    `compiled` with CFLAGS at the first `train` of a process, or None where
    `_numpy_calls` finds nothing to call or no library passes `_load`."""
    calls = _numpy_calls()
    return calls and nn.compiled(nn.ADAM_C + STEP_C, CFLAGS, functools.partial(_load, calls))


def _bind_steps(library, model, rows, grad_views):
    """A `bind` with `_numpy_steps`' contract that binds `library`'s STEP_C
    to the model's layers, their gradient views and one split's arrays, for
    batches of at most `rows` rows. Its step runs a 1-row batch on the
    numpy path, as numpy's matmul runs gemv or a dot product on a 1-row
    operand, not dgemm, and the bytes could differ; for the same reason it
    is None when a layer width is 1. Every address is bound once."""
    layers = model.layers()
    widths = [model.input_dim, *(layer.out_dim for layer in layers)]
    if min(widths) == 1:
        return None
    # layers, sender layers, K (0 without a channel), rows, then the widths
    # and each layer's relu flag
    dims = (ctypes.c_longlong * (5 + 2 * len(layers)))(
        len(layers), len(model.sender), model.vocab_size or 0, rows, *widths,
        *(layer.activation == "relu" for layer in layers))
    scratch = np.empty(library.scratch_doubles(dims))
    arrays = [a for layer, grads in zip(layers, grad_views)
              for a in (layer.weights, layer.bias, *grads)]
    temperature = 1.0 if model.bottleneck is None else model.bottleneck.temperature

    def bind(features, labels, order=None, uniforms=None, noise=None):
        split = (np.ascontiguousarray(features), np.ascontiguousarray(labels), order,
                 uniforms, noise)
        # numpy's dgemm and loops, the split's arrays (NULL for None), the
        # scratch, then each layer's weights, bias and their two gradients
        pointers = (ctypes.c_void_p * (10 + len(arrays)))(
            *library.shared, *(None if a is None else a.ctypes.data for a in split),
            scratch.ctypes.data, *(a.ctypes.data for a in arrays))
        kernel = functools.partial(library.step, dims, pointers, temperature)
        one_row = _numpy_steps(model, grad_views)(*split)

        def step(start, rows):
            return kernel(start, rows) if rows > 1 else one_row(start, rows)

        step.arrays = split, scratch, arrays  # alive as long as it reads them
        return step

    return bind


def _probe(model, dataset, uniforms, library=None):
    """One training batch of all of `dataset`'s rows, with the Gumbel noise
    of the [rows, K] `uniforms` on a symbol model, then one validation batch
    of them scored with that noise, through STEP_C from `library`, or
    through `forward` where it is None: (training loss, gradient vector,
    validation loss). Packs the model's parameters; changes none."""
    _, grads, grad_views = _pack(model)
    n = dataset.num_samples
    noise = None if model.bottleneck is None else noise_from_uniform(uniforms)
    bind = (library and _bind_steps(library, model, n, grad_views)
            or _numpy_steps(model, grad_views))
    loss = bind(dataset.features, dataset.labels, np.arange(n, dtype=np.int64),
                uniforms)(0, n)
    return loss, grads, bind(dataset.features, dataset.labels, noise=noise)(0, n)


@np.errstate(all="ignore")
def _steps_agree(library):
    """Whether `library`'s STEP_C gives the numpy path's bytes in `_probe`
    on both model kinds: 140 rows, so the loss sum's pairwise sum recurses,
    130 symbols, so each row's does too, ReLU inputs of zero, uniforms that
    the noise clips, and a temperature that is not 1."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(140, 5))
    features[::7] = 0.0
    data = Dataset(features, rng.integers(0, 3, 140), ["a", "b", "c"])
    uniforms = rng.random((140, 130))
    uniforms[::9, ::5] = 0.0
    for symbols in (True, False):
        model = build_model(5, 3, vocab_size=130, hidden_dim=6, temperature=0.7,
                            with_bottleneck=symbols, seed=3)
        numpy_path, kernel = (_probe(model, data, uniforms, lib) for lib in (None, library))
        if not all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(numpy_path, kernel)):
            return False
    return True


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

    Where `_library` gives the compiled library, loaded before the
    `AdamState`, the state steps with its ADAM_C and batches run its STEP_C
    from the first, bound by `_bind_steps`; where it gives none, or
    `_bind_steps` binds nothing, Adam runs its numpy passes and batches run
    the numpy path that `_numpy_steps` binds. Both paths give the same bytes.
    """
    _check_split(model, train_set)
    _check_split(model, val_set)
    shuffle_rng = np.random.default_rng(config.seed + _SHUFFLE_STREAM)
    params, grads, grad_views = _pack(model)
    library = _library()
    state = AdamState(params, grads, learning_rate=config.learning_rate,
                      kernel=library and library.adam)
    n = train_set.num_samples
    order = np.empty(n, np.int64)
    rows = min(config.batch_size, max(n, val_set.num_samples))
    # each batch's uniforms come from the sampler's seed, drawn into one
    # bound array; the validation noise is drawn once per call, so losses
    # compare across epochs
    val_noise = uniforms = None
    if model.bottleneck is not None:
        noise_rng = np.random.default_rng(model.bottleneck.rng_seed)
        val_rng = np.random.default_rng(config.seed + _VAL_NOISE_STREAM)
        uniforms = np.empty((min(rows, n), model.vocab_size))
        val_noise = noise_from_uniform(val_rng.random((val_set.num_samples,
                                                       model.vocab_size)))
    bind = (library and _bind_steps(library, model, rows, grad_views)
            or _numpy_steps(model, grad_views))
    train_step = bind(train_set.features, train_set.labels, order, uniforms)
    val_step = bind(val_set.features, val_set.labels, noise=val_noise)

    log = TrainLog()
    best = params.copy()
    for epoch in range(1, config.max_epochs + 1):
        order[...] = shuffle_rng.permutation(n)
        running = 0.0
        # the splits were checked up front, so a non-finite logit or loss
        # anywhere in the epoch means the optimization blew up
        try:
            for start in range(0, n, config.batch_size):
                batch_rows = min(config.batch_size, n - start)
                if uniforms is not None:
                    noise_rng.random(out=uniforms[:batch_rows])
                loss = train_step(start, batch_rows)
                if not math.isfinite(loss):
                    raise NumericalError("non-finite training loss")
                running += loss * batch_rows
                adam_step(state)
            val_loss = dataset_loss(val_step, val_set.num_samples, config.batch_size)
            if not math.isfinite(val_loss):
                raise NumericalError("non-finite validation loss")
        except NumericalError:
            raise NumericalError(f"non-finite loss at epoch {epoch}") from None
        train_loss = running / n
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
