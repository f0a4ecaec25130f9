"""Dense float64 network primitives: layers, softmax cross-entropy, Adam.

Everything runs on plain numpy arrays, batch-first and float64, and nothing
is cached between calls: ``stack_forward`` records what ``stack_backward``
needs on a tape the caller passes, and the backward writes gradients into
arrays the caller owns. An ``AdamState`` binds a flat float64 parameter
vector and its gradient vector, checked once when it is made, with the
moments, the step count and the learning rate; ``adam_step(state)`` then
updates the parameters and moments in place, converting and checking
nothing, so one call steps every layer whose weights are views into the
bound vector. The decay rates and epsilon, which no caller varies, are the
module constants ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``.

The module also holds the package's one number rule: ``check_int`` checks
every count, seed and index, with an inclusive upper bound where one
applies, and ``check_real`` every real-valued setting, each with one
message, which shows the value's ``repr``, or only the size of an int too
long for one. ``is_int`` and ``is_real`` are their type tests, and neither
ever reads a bool or a string as a number. ``check_shape`` is the one shape
rule, for every array a function is given. These checks test values; they
convert nothing, so a config keeps the value it was given. ``as_labels`` is
the rule for an array of labels or indices, and the one place the package
converts to an integer dtype: it returns int64 labels only from a 1-d
integer array whose every entry lies in [0, num_classes), and never
truncates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

ACTIVATIONS = ("relu", "identity")

ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8

# concrete types, not the numbers.Real ABC: `is_real` tests every weight of a
# checkpoint that `load_checkpoint` reads, and over the 19,240 of a default
# one an ABC test took 23 ms to this tuple's 3 ms (2-vCPU VM, Python 3.11)
REAL_TYPES = (int, float, np.integer, np.floating)


def as_f64(values):
    return np.asarray(values, dtype=np.float64)


def _shown(value):
    """repr(value) for a message, or the size of an int too long for repr:
    by default Python prints no int of more than 4,300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def is_int(value):
    """Whether value is an int, numpy's included, and not a bool: a count or
    an index is never read from a bool, a fraction or a string."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def check_int(name, value, least, most=None):
    """InputError unless value `is_int` and is at least `least`, and at most
    `most` if one is given: the one rule, and the one message, for every
    count, seed and index."""
    if not (is_int(value) and value >= least and (most is None or value <= most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise InputError(f"{name} must be an int {bound}, got {_shown(value)}")


def as_labels(name, labels, num_classes):
    """labels as an int64 array, or InputError unless numpy reads them as a
    1-d array of an integer dtype (so no bool, float, string or object)
    whose every entry lies in [0, num_classes): the one rule, and the one
    message, for every array of labels or indices. The message shows the
    first entry outside the range, or of an array of another dtype its
    first entry; an array of another rank meets `check_shape`. An empty
    input has no entry to reject."""
    try:
        labels = np.asarray(labels)
    except ValueError:  # a ragged sequence
        raise InputError(f"{name} must be ints in [0, {num_classes - 1}], got an "
                         "input numpy cannot read as an array") from None
    check_shape(name, labels, (None,))
    outside = (labels[(labels < 0) | (labels >= num_classes)]
               if labels.dtype.kind in "iu" else labels)
    if outside.size:
        raise InputError(f"{name} must be ints in [0, {num_classes - 1}], "
                         f"got {_shown(outside.ravel().tolist()[0])}")
    return labels.astype(np.int64, copy=False)


def is_real(value):
    """Whether value is an int or a float, numpy's included, and not a bool."""
    return isinstance(value, REAL_TYPES) and type(value) is not bool


def check_real(name, value, least=-math.inf, strict=False):
    """InputError unless value `is_real`, fits in a finite float64 and is at
    least `least`, or above it when `strict`: the one rule, and the one
    message, for every real number a setting is given."""
    try:
        fits = is_real(value) and math.isfinite(value)
    except OverflowError:  # an int beyond float64's range
        fits = False
    if not (fits and (value > least if strict else value >= least)):
        bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least}"
        raise InputError(f"{name} must be a finite number{bound}, got {_shown(value)}")


# mapped, not a generator: with a * the check took 0.55 us a call against a
# generator's 1.1 us (2-vCPU VM, Python 3.11), five times per training step
def _fits(length, want):
    return want is None or want == length


def check_shape(name, array, shape):
    """InputError unless array's shape has as many dimensions as `shape` and
    equals each of its entries that is not None: the one rule, and the one
    message, for every array shape. None matches any length and shows as *."""
    got = array.shape
    if got == shape:  # the hot path's case, at the cost of a tuple compare
        return
    if len(got) != len(shape) or not all(map(_fits, got, shape)):
        dims = ", ".join("*" if want is None else str(want) for want in shape)
        comma = "," if len(shape) == 1 else ""
        raise InputError(f"{name} must have shape ({dims}{comma}), got {got}")


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
        check_shape("weights", weights, (None, None))
        check_shape("bias", bias, (weights.shape[0],))
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
        check_shape("input", x, (None, self.in_dim))
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
    check_shape("upstream grad", g, tape[-1][1].shape)
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
    check_shape("logits", logits, (None, None))
    n, num_classes = logits.shape
    labels = as_labels("labels", labels, num_classes)
    check_shape("labels", labels, (n,))
    if n == 0:
        raise InputError("empty batch")
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
    """Adam's update of one float64 parameter vector from its gradient
    vector: binds both, checked once, with the moments, the step count, the
    learning rate and two scratch arrays of their shape that `adam_step`
    computes in. The caller writes each step's gradient into the bound
    `grads` before it calls `adam_step`."""

    def __init__(self, params, grads, learning_rate=1e-3):
        if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64
                    for a in (params, grads)) and params.shape == grads.shape):
            raise InputError("params and grads must be float64 arrays of one shape")
        self.params, self.grads = params, grads
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self.scratch = (np.empty_like(params), np.empty_like(params))
        self.step_count = 0
        self.learning_rate = learning_rate


def adam_step(state):
    """One bias-corrected Adam update of the state's parameters from its
    gradients, in place; the state's own checks are all it needs.

    Elementwise, so one call on a flat vector equals separate calls on any
    split of it, bit for bit. Every intermediate goes to the state's scratch
    arrays, so a step allocates no array of the parameters' size.
    """
    state.step_count += 1
    t = state.step_count
    params, grads = state.params, state.grads
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
