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

Adam runs as one compiled loop where it can: ``ADAM_C``, the numpy passes
written as one C loop, which ``classifier`` compiles into one library with
its training step and keeps only if ``_agrees`` passes, and which a state
runs when it is given that loop as its ``kernel``. ``compiled`` is the
package's one loader of C: it keeps each library it builds in a cache
directory, ``$XDG_CACHE_HOME/emlang`` or ``~/.cache/emlang``, named by the
sha256 of the source, the flags and the machine type, so it compiles once
per machine and later processes load the file. ``_agrees`` steps a probe
of zeros, subnormals, +-1e300 and mixed signs, at steps on both sides of
t = 356, and passes the loop only if it gives the numpy passes' bytes. A
state runs its kernel when its two vectors are aligned, writeable,
C-contiguous and share no memory; other states, and every state given no
kernel, run the numpy passes. The bytes cannot differ: both paths take the
same IEEE operations in the same order on each element, each correctly
rounded, and the flags allow no contraction into a fused multiply-add and
no reordering (no -ffast-math). From t = 357, where c1 = 1 - b1^t rounds
to 1.0, the loop skips its divide by c1, as x / 1.0 == x. The kernel makes
one pass where numpy makes fourteen: a step on the default study's 19,240
parameters took ~70 us, and ~55 us from t = 357, instead of 115-130 us
(2-vCPU VM, gcc 12.2 at -O3, numpy 2.4.6). ``numpy_extension`` is the one
way into numpy's own BLAS, for its dgemm and its thread count.

The module also holds the package's one number rule: ``check_int`` checks
every count, seed and index, with an inclusive upper bound where one
applies, and ``check_real`` every real-valued setting, each with one
message, which shows the value's ``repr``, or only the size of an int too
long for one. ``is_int`` and ``is_real`` are their type tests, and neither
ever reads a bool or a string as a number. ``check_shape`` is the one shape
rule, for every array a function is given. These checks test values; they
convert nothing, so a config keeps the value it was given. ``as_array`` is
the rule for reading an array: InputError, not numpy's ValueError, when
numpy cannot read the input as one, and ``as_f64`` reads floats through
it. ``as_labels`` is the rule for an array of labels or indices, and the
one place the package converts to an integer dtype: it returns int64
labels only from a 1-d integer array whose every entry lies in [0,
num_classes), and never truncates.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import shutil
import signal
import stat
import time

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


def as_array(name, values, must, dtype=None):
    """values as a numpy array, of `dtype` if one is given, or InputError
    when numpy cannot read them as one, as it cannot a ragged sequence: the
    one rule, and the one message, for reading an input as an array, where
    `must` says what its entries must be."""
    try:
        return np.asarray(values, dtype=dtype)
    except ValueError:  # a ragged sequence, or a string that is no float
        raise InputError(f"{name} must be {must}, got an input numpy cannot "
                         "read as an array") from None


def as_f64(values, name="input"):
    return as_array(name, values, "numbers", np.float64)


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
    labels = as_array(name, labels, f"ints in [0, {num_classes - 1}]")
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


# `_adam_passes` as one loop: each element takes the same IEEE operations in
# the same order, each one correctly rounded, so it gets the same double. Once
# c1 = 1 - b1^t rounds to 1.0 (t >= 357), the second loop skips its divide,
# since x / 1.0 == x for every double
ADAM_C = r"""
#include <math.h>

void adam_step(long long n, double *restrict p, const double *restrict g,
               double *restrict m, double *restrict v, double b1, double b2,
               double eps, double c1, double c2, double lr) {
    if (c1 != 1.0)
        for (long long i = 0; i < n; i++) {
            m[i] = m[i] * b1 + g[i] * (1.0 - b1);
            v[i] = v[i] * b2 + (g[i] * (1.0 - b2)) * g[i];
            p[i] = p[i] - ((m[i] / c1) * lr) / (sqrt(v[i] / c2) + eps);
        }
    else
        for (long long i = 0; i < n; i++) {
            m[i] = m[i] * b1 + g[i] * (1.0 - b1);
            v[i] = v[i] * b2 + (g[i] * (1.0 - b2)) * g[i];
            p[i] = p[i] - (m[i] * lr) / (sqrt(v[i] / c2) + eps);
        }
}
"""
# a compile that takes longer is killed, with all it started; gcc takes ~0.5 s
BUILD_SECONDS = 60
# how long a killed compile's orphans are waited for, until init reaps them
REAP_SECONDS = 5


@functools.cache
def numpy_extension():
    """numpy's compiled core module opened by ctypes, or None where it does
    not open: a symbol looked up through it is found in what numpy itself
    loaded, so its BLAS is numpy's own and no other on the system."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return _loaded(umath.__file__, lambda lib: lib)


def cache_directory():
    """Where `compiled` keeps its libraries: `$XDG_CACHE_HOME/emlang`, or
    `~/.cache/emlang` where that variable is unset or not an absolute path,
    made with mode 0700 if missing. None unless it is a directory, not a
    link, that this user owns and may write and that nobody else may write,
    so that no other user can put a library there."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "emlang")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:  # no home, or nothing may be written there
        return None
    private = (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
               and not st.st_mode & 0o022 and os.access(path, os.W_OK | os.X_OK))
    return path if private else None


def _loaded(path, load):
    """What `load` makes of the library at path, or None where it does not
    load or lacks a function."""
    try:
        return load(ctypes.CDLL(path))
    except (OSError, AttributeError):
        return None


def _sweep(cache):
    """Delete each `build-*` directory in `cache` that is older than twice
    BUILD_SECONDS, which a build killed midway leaves behind: no live build
    is that old."""
    old = time.time() - 2 * BUILD_SECONDS
    with contextlib.suppress(OSError), os.scandir(cache) as entries:
        for entry in entries:
            if entry.name.startswith("build-") and entry.stat().st_mtime < old:
                shutil.rmtree(entry.path, ignore_errors=True)


def compiled(source, flags, load):
    """What `load` makes of the library `cc` compiles from the C `source`
    with `flags`, or None where no library passes it. `load` binds the
    library's functions and returns None unless they pass its self-check,
    which runs on every load, cached or new.

    The library is kept in `cache_directory()`, named by the sha256 of the
    source, the flags and the machine type, and sealed by the sha256 of its
    bytes, appended to them, which dlopen ignores. A file there that is not
    whole, does not load or does not pass is rebuilt, never used. A build
    runs `cc` in a new directory inside the cache, or in the system's
    temporary directory where there is no cache, and only a library that
    passed is moved into place, by `os.replace`, so no process reads a
    partial file and processes that build at once each end with a valid
    one. `cc`'s output is discarded, and a compile that outlasts
    BUILD_SECONDS is killed with every process it started, which are then
    waited for, up to REAP_SECONDS, until none is left, not even a zombie.
    A miss first deletes what `_sweep` finds stale, the directories of
    killed builds."""
    import hashlib
    import platform
    import subprocess
    import tempfile

    cache = cache_directory()
    if cache is not None:
        key = hashlib.sha256(repr((source, flags, platform.machine())).encode())
        path = os.path.join(cache, f"{key.hexdigest()}.so")
        try:
            with open(path, "rb") as fh:
                sealed = fh.read()
        except OSError:  # not built yet
            sealed = b""
        # checked before dlopen, which dies of SIGBUS on a truncated library
        if hashlib.sha256(sealed[:-32]).digest() == sealed[-32:]:
            loaded = _loaded(path, load)
            if loaded is not None:
                return loaded
        _sweep(cache)
    try:
        work = tempfile.mkdtemp(prefix="build-", dir=cache)
    except OSError:  # no temporary directory
        return None
    built = os.path.join(work, "lib.so")
    cc = None
    try:
        with open(os.path.join(work, "lib.c"), "w", encoding="utf-8") as fh:
            fh.write(source)
        cc = subprocess.Popen(["cc", *flags, "-o", built, "lib.c"], cwd=work,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, start_new_session=True)
        if cc.wait(BUILD_SECONDS) != 0:
            return None
        with open(built, "rb+") as fh:  # sealed before it is mapped
            fh.write(hashlib.sha256(fh.read()).digest())
        loaded = _loaded(built, load)
        if loaded is not None and cache is not None:
            with contextlib.suppress(OSError):  # kept, if not for the next process
                os.replace(built, path)
        return loaded
    except (OSError, subprocess.TimeoutExpired):  # no cc, no room, or no time
        return None
    finally:
        if cc is not None and cc.poll() is None:  # out of time, or interrupted
            os.killpg(cc.pid, signal.SIGKILL)  # cc and every process it started
            cc.wait()
            # the rest of the group are orphans that init reaps, not this
            # process: the group exists until the last of them is gone
            deadline = time.monotonic() + REAP_SECONDS
            with contextlib.suppress(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(cc.pid, 0)
                    time.sleep(0.01)
        shutil.rmtree(work, ignore_errors=True)


@np.errstate(all="ignore")  # the probe overflows, as it is meant to
def _agrees(kernel):
    """Whether `kernel`, ADAM_C's `adam_step` as a ctypes function, steps a
    probe of zeros, subnormals, +-1e300 and mixed signs to the bytes
    `_adam_passes` gives, at steps on both sides of t = 356, where
    1 - 0.9**t first rounds to 1.0."""
    probe = np.array([0.0, -0.0, 5e-324, -2.5e-308, 1e300, -1e300, 1.5, -3e-7, 42.0, 1e-8])
    sides = np.zeros((2, 4, probe.size))  # params, grads and moments, per path
    sides[:, 0] = probe[::-1]
    for t in (*range(1, 9), *range(353, 361)):
        c1, c2 = 1.0 - ADAM_B1 ** t, 1.0 - ADAM_B2 ** t
        sides[:, 1] = probe * (-1.0) ** t
        kernel(probe.size, *(a.ctypes.data for a in sides[0]),
               ADAM_B1, ADAM_B2, ADAM_EPS, c1, c2, 1e-3)
        _adam_passes(*sides[1], np.empty((2, probe.size)), c1, c2, 1e-3)
    return sides[0].tobytes() == sides[1].tobytes()


class AdamState:
    """Adam's update of one float64 parameter vector from its gradient
    vector: binds both, checked once, with the moments, the step count and
    the learning rate, and picks how `adam_step` runs. The caller writes
    each step's gradient into the bound `grads` before it calls
    `adam_step`.

    `kernel` is the compiled loop the state is given, ADAM_C's as a ctypes
    function that passed `_agrees`, bound to the four vectors, which it
    keeps alive, so an attribute set to another array later does not
    rebind it, when both bound arrays are aligned, writeable and
    C-contiguous and share no memory (the loop's pointers are restrict);
    otherwise, and when it is given none, it is None, and `adam_step`
    computes in the two `scratch` arrays."""

    def __init__(self, params, grads, learning_rate=1e-3, kernel=None):
        if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64
                    for a in (params, grads)) and params.shape == grads.shape):
            raise InputError("params and grads must be float64 arrays of one shape")
        self.params, self.grads = params, grads
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self.scratch = (np.empty_like(params), np.empty_like(params))
        self.step_count = 0
        self.learning_rate = learning_rate
        bound = (kernel is not None and params.flags.carray and grads.flags.carray
                 and not np.may_share_memory(params, grads))
        # ctypes views of the vectors, which keep them alive with the kernel
        self.kernel = None if not bound else functools.partial(kernel, params.size, *(
            np.ctypeslib.as_ctypes(a.reshape(-1)) for a in (
                params, grads, self.first_moment, self.second_moment)),
            ADAM_B1, ADAM_B2, ADAM_EPS)


def adam_step(state):
    """One bias-corrected Adam update of the state's parameters from its
    gradients, in place; the state's own checks are all it needs.

    Elementwise, so one call on a flat vector equals separate calls on any
    split of it, bit for bit. It runs the state's `kernel` in one pass over
    the vectors: ADAM_C, compiled with the training step (no fused
    multiply-add, no -ffast-math) once per machine, and kept only after it
    matched the numpy passes bit for bit on a probe. A state has no kernel
    where it was given none, or where its vectors are strided, unaligned,
    read-only or overlapping; then the numpy passes of `_adam_passes` run,
    computing in the state's scratch arrays. The bytes
    cannot differ: both take the same IEEE operations in the same order on
    each element, each correctly rounded. Neither allocates an array of
    the parameters' size.
    """
    state.step_count += 1
    t = state.step_count
    c1, c2 = 1.0 - ADAM_B1 ** t, 1.0 - ADAM_B2 ** t
    if state.kernel is not None:
        state.kernel(c1, c2, state.learning_rate)
    else:
        _adam_passes(state.params, state.grads, state.first_moment,
                     state.second_moment, state.scratch, c1, c2, state.learning_rate)


def _adam_passes(params, grads, m, v, scratch, c1, c2, lr):
    """Adam's update in numpy passes, in place, given the bias corrections
    c1 = 1 - b1^t and c2 = 1 - b2^t."""
    a, b = scratch
    # in place, in the elementwise order of the textbook update, so the
    # result matches it bit for bit:
    #   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    #   params -= (lr (m / c1)) / (sqrt(v / c2) + eps)
    m *= ADAM_B1
    np.multiply(grads, 1.0 - ADAM_B1, out=a)
    m += a
    v *= ADAM_B2
    np.multiply(grads, 1.0 - ADAM_B2, out=a)
    a *= grads
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a
