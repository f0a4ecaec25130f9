"""Integrated gradients and neuron conductance over dense stacks.

Both attributions integrate gradients along the straight line
x' + a (x - x'), a in [0, 1], from a baseline x' to the input x:

  IG_i      = (x_i - x'_i) * integral dF/dx_i da
  Cond^y_i  = (x_i - x'_i) * integral dF/dy * dy/dx_i da

F is the pre-softmax logit of a target class by default, or its softmax
probability; y is a post-activation hidden unit. Summing Cond^y over all
units of one layer recovers IG componentwise.

Both outputs are integrated exactly, by one rule: the path's restriction
to the relu segments, as in ExactLine (Sotoudeh & Thakur, "Computing Linear
Restrictions of Neural Networks", arXiv 1908.06214). The stack holds only
relu and identity layers, so the network is affine on each stretch of the
path where no relu pre-activation changes sign. `path_segments` finds those
breakpoints exactly, and each segment takes one backward at its midpoint,
of the upstream gradient at the logits averaged over the segment, weighted
by its length. For the logit output that average is the one-hot of the
target. For the probability output the logits move along a line inside
the segment, so the average of d p_t / d logits is a smooth integral in a,
which `_probability_upstream` takes by Gauss-Legendre quadrature on pieces
short enough for it to be exact to rounding. Completeness then holds to
rounding for both outputs: each segment adds the change of F across it.

Every attribution is one batched pass of `attribute_block` over the paths
of several samples: segment rows carry a sample id and stay sorted by
(sample, a), one forward over all rows keeps its relu masks in local
arrays, one backward computes input gradients only, and `np.add.reduceat`
sums each sample's rows. An `AttributionConfig` holds what every entry
point reads, the baseline, the target class and the output, each checked
when the config is made. Nothing is stored on the model, so attribution
leaves a model's training state untouched.

The three entry points, `integrated_gradients`, `neuron_conductance` and
`per_symbol_report`, share one door, `_prepare`, which takes the model, the
input and the config and returns what `attribute_block` reads: the dense
stack, the input as checked 2-d rows, the baseline, and each row's symbol
and target. For symbol models the stack replaces the bottleneck with the
identity, so the graph becomes a single dense stack (sender layers followed
by receiver layers) and y is the sender output logit feeding the decoded
symbol's vocabulary slot. On a ModelGraph the door takes each row's
symbol, and its default target class, from `ModelGraph.decode`, the
noise-free decode `evaluate` reports, not from the identity-channel stack,
whose argmax can name another class. This keeps attribution deterministic
and symbol-specific. `decode` runs DECODE_ROWS rows at a time, so its
hidden activations do not grow with the row count. The two single-sample
entry points are the door and one `attribute_block` call on its one row;
`neuron_conductance` also takes a hidden unit, as its `neuron` argument,
and checks it against the stack the door returns, after the input's own
checks.

`per_symbol_report` passes every row through the door at once, then feeds
`attribute_block` BLOCK samples at a time. The blocks are independent, so
it splits them into contiguous runs, one per usable CPU with at least
MIN_RUN blocks each, and hands the runs to `fork_map`: this process
attributes the first run and forked children the others, each child
sending back only its run's attribution vectors. Every run keeps the BLOCK
boundaries, and the parent concatenates the vectors and merges them once,
in sample order, so the report's bytes do not depend on how many processes
ran. Every row is decoded before any block is attributed, so an overflow
that `decode` meets on either side of the channel is raised before any
path is walked, a sender overflow on any row before a receiver overflow on
an earlier one (both are NumericalError).
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .classifier import ModelGraph
from .errors import InputError, NumericalError
from .nn import (as_array, as_f64, check_int, check_real, check_shape, numpy_extension,
                 softmax)

OUTPUTS = ("logit", "probability")

# Samples per batched pass of `per_symbol_report`. Larger blocks run faster
# but hold more rows at once: on the benchmark's study workload, blocks of 16
# raised peak memory by ~2 MiB (blocks of 8 by ~0.3 MiB). BLOCK is also part
# of the output bytes, since BLAS picks its kernel by row count: on 2,000
# synthetic rows, blocks of 8 and of 2 moved conductances by up to 1.8e-15,
# so changing it changes every `repro` report.
BLOCK = 4

# Fewest blocks a worker process is given. On a 2-vCPU VM a fork round trip
# cost 2-3 ms at ~45 MiB resident (~1 ms more when the parent rewrites its
# pages meanwhile) and a block 1.4-1.7 ms, so a run of 16 blocks spends about
# a tenth of its time on the fork; `repro`'s 171 test rows (43 blocks) still
# make two runs.
MIN_RUN = 16

# The probability output's quadrature (2-vCPU VM, numpy 2.4.6). Relative
# completeness errors are the worst over 300 blocks of 4 paths through
# random relu nets of 2-8 units a layer with Glorot weights x10.
# GAUSS_NODES Gauss-Legendre nodes on each piece: at PIECE_SPREAD 2, 8
# nodes left 1.2e-12, 12 and 16 left 1.9e-13 (with up to 19,669 pieces a
# segment). `_gauss_legendre` computes the nodes on first use (about
# 0.25 ms) and keeps them, not at this module's import, which raised the
# peak RSS of a logit-only `attribute` of 2,000 rows from 34.0 to 35.3 MiB.
GAUSS_NODES = 16
# Pieces are cut so that the difference of any two logits changes by at
# most this over one. At 16 nodes, bounds of 1, 2, 4 and 8 left 1.9e-13,
# 1.9e-13, 1.9e-13 and 2.6e-9 with 434, 217, 109 and 55 pieces a segment;
# 2 stays a factor 4 below the first bound that lost accuracy. The seed-0
# `repro` checkpoint needs 2.3 pieces a segment on 2,000 test rows.
PIECE_SPREAD = 2.0
# Pieces evaluated at once. One block of 4 steep paths (54,090 pieces, 8
# classes) took 0.24, 0.18, 0.19 and 0.23 s in chunks of 256, 1,024, 4,096
# and 16,384, with traced peaks of 1.4, 5.4, 21.4 and 85.5 MiB.
CHUNK_PIECES = 1024
# Most pieces one block may need, or NumericalError: at 2.3-3.3 us a piece
# (8 classes) a block at the bound takes about a minute, and a non-finite
# or absurd slope fails instead of hanging. The steepest block of the
# hypothesis tests' x10 nets needed 135,159.
MAX_PIECES = 2**24


@dataclass(frozen=True)
class AttributionConfig:
    # a 1-d sequence of finite numbers, each checked by `check_real` before
    # any conversion, kept as a tuple of floats, so that equal configs
    # compare and hash equal and no caller's array is shared; None means the
    # zero vector
    baseline: tuple[float, ...] | None = None
    # an int >= 0, kept as a Python int; None means the class the model
    # predicts: the one `decode` picks on a ModelGraph, the argmax of a bare
    # layer list
    target_class: int | None = None
    output: str = "logit"

    def __post_init__(self):
        if self.output not in OUTPUTS:
            raise InputError(f"output must be one of {OUTPUTS}")
        target = self.target_class
        if target is not None:
            check_int("target_class", target, 0)
            object.__setattr__(self, "target_class", int(target))
        if self.baseline is not None:
            check_shape("baseline", as_array("baseline", self.baseline, "numbers"),
                        (None,))
            for i, value in enumerate(self.baseline):
                check_real(f"baseline[{i}]", value)
            object.__setattr__(self, "baseline", tuple(as_f64(self.baseline).tolist()))


def _affine(layer, h):
    z = h @ layer.weights.T
    z += layer.bias
    return z


def _forward(layers, h):
    """(masks, output) of `layers` on the rows h: masks holds, per layer,
    where a relu's pre-activation is positive (None for an identity layer);
    no hidden activation outlives the layer after it."""
    masks = []
    for layer in layers:
        h = _affine(layer, h)
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
            masks.append(h > 0.0)
        else:
            masks.append(None)
    return masks, h


def _backward(layers, masks, g):
    """Input gradient of `layers` for the upstream gradient g at their
    output, which it overwrites; relu takes the subgradient 0 at exactly
    zero."""
    for layer, mask in zip(reversed(layers), reversed(masks)):
        if mask is not None:
            g *= mask
        g = g @ layer.weights
    return g


def path_segments(stack, xs, baseline):
    """Exact segments of the paths baseline + a (xs[i] - baseline), a in
    [0, 1], on which every relu of the stack keeps one sign.

    Walks the stack one layer at a time up to its last relu, keeping the
    breakpoints found so far with the layer input at each, as rows that
    carry a sample id and stay sorted by (sample, a). Between two
    consecutive rows of one sample a pre-activation is linear in a, so a
    strict sign change from z_a to z_b adds the breakpoint
    a_a + (a_b - a_a) * z_a / (z_a - z_b), with the layer's pre-activations
    there interpolated from the two ends for the layers after it. Returns
    (sample, midpoints, lengths) of the segments of nonzero length, in
    (sample, a) order.
    """
    n = xs.shape[0]
    sample = np.repeat(np.arange(n), 2)
    alphas = np.tile([0.0, 1.0], n)
    h = np.empty((2 * n, xs.shape[1]))
    h[0::2] = baseline
    h[1::2] = xs
    relus = [i for i, layer in enumerate(stack) if layer.activation == "relu"]
    for i, layer in enumerate(stack[: relus[-1] + 1] if relus else []):
        z = _affine(layer, h)
        if layer.activation != "relu":
            h = z
            continue
        pos, neg = z > 0.0, z < 0.0
        cross = pos[:-1] & neg[1:]
        cross |= neg[:-1] & pos[1:]
        cross[sample[:-1] != sample[1:]] = False
        # flat indices of the crossings, row-major: each lies between row
        # seg = hit // width and the next, at unit hit % width
        hit = np.flatnonzero(cross)
        width = z.shape[1]
        seg = hit // width
        za_u = z.ravel()[hit]
        t = za_u / (za_u - z.ravel()[hit + width])
        new = alphas[seg] + (alphas[seg + 1] - alphas[seg]) * t
        alphas = np.concatenate([alphas, new])
        sample = np.concatenate([sample, sample[seg]])
        order = np.lexsort((alphas, sample))
        alphas, sample = alphas[order], sample[order]
        if i == relus[-1]:
            break  # no later layer reads the last relu's output
        za = z[seg]
        inserted = z[seg + 1] - za
        inserted *= t[:, None]
        inserted += za
        h = np.concatenate([z, inserted])[order]
        np.maximum(h, 0.0, out=h)
    lengths = np.diff(alphas)
    keep = (sample[:-1] == sample[1:]) & (lengths > 0)
    mids = (alphas[:-1] + alphas[1:]) / 2
    return sample[:-1][keep], mids[keep], lengths[keep]


@functools.cache
def _gauss_legendre():
    """(nodes, weights) of GAUSS_NODES-node Gauss-Legendre on [-1, 1]."""
    return np.polynomial.legendre.leggauss(GAUSS_NODES)


def _probability_upstream(logits, rises, targets):
    """Per segment, the mean over the segment of the gradient of the target
    class's softmax probability with respect to the logits. The logits are
    affine on a segment: `logits` at its midpoint, changing by `rises` over
    its length.

    Each segment is cut into the fewest equal pieces over which the
    difference of any two logits changes by at most PIECE_SPREAD (softmax
    ignores a change common to all), and each piece takes
    Gauss-Legendre quadrature at GAUSS_NODES nodes, CHUNK_PIECES pieces at a
    time. Raises NumericalError when the block's segments need more than
    MAX_PIECES pieces.
    """
    nodes, weights = _gauss_legendre()
    pieces = np.maximum(np.ceil(np.ptp(rises, axis=1) / PIECE_SPREAD), 1.0)
    ends = np.cumsum(pieces)
    if not ends[-1] <= MAX_PIECES:
        raise NumericalError(f"{ends[-1]:.3g} quadrature pieces exceed {MAX_PIECES}")
    up = np.zeros_like(logits.T)  # class-major, as every array below
    for first in range(0, int(ends[-1]), CHUNK_PIECES):
        piece = np.arange(first, min(first + CHUNK_PIECES, ends[-1]))
        seg = np.searchsorted(ends, piece, side="right")
        # each node's offset from its segment's midpoint, in segment lengths
        at = ((piece - ends[seg] + 0.5)[:, None] + nodes / 2) / pieces[seg, None] + 0.5
        # class-major in memory too, so that the sums over classes run fast
        probs = np.multiply(rises.T[:, seg, None], at, order="C")
        probs = softmax(probs + logits.T[:, seg, None], axis=0)
        grad = probs * -probs[targets[seg], np.arange(seg.size)]
        grad[targets[seg], np.arange(seg.size)] = 0.0  # set below, from the rest
        for row, mean in zip(up, grad @ weights / (2 * pieces[seg])):
            row += np.bincount(seg, mean, minlength=up.shape[1])
    # d p_t / d l_c = p_t (1[c = t] - p_c) sums to 0 over the classes c, so
    # the target's entry is minus the others' sum, and no 1 - p_t cancels
    up[targets, np.arange(len(targets))] = -up.sum(axis=0)
    return up.T


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def attribute_block(stack, xs, baseline, targets, output="logit", layer=None,
                    units=None):
    """Path attributions for every row of xs in one batched pass.

    Row i gets the integrated gradients of output targets[i] when layer is
    None, and otherwise the conductance of unit units[i] of hidden layer
    `layer`. Both outputs are integrated exactly over the relu segments of
    each path. Takes its arguments as checked: the public entry points
    validate them. Raises NumericalError, with no numpy warning, on a
    non-finite output, and when the probability output would need more than
    MAX_PIECES pieces.
    """
    n = xs.shape[0]
    diff = xs - baseline
    sample, alphas, weights = path_segments(stack, xs, baseline)
    starts = np.searchsorted(sample, np.arange(n))
    points = diff[sample]
    points *= alphas[:, None]
    points += baseline
    masks, out = _forward(stack, points)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmin(np.isfinite(out).all(axis=1)))
        step = bad - int(starts[sample[bad]])
        raise NumericalError(f"non-finite network output at path step {step}")
    targets = np.asarray(targets)[sample]
    g = np.zeros_like(out)  # the logit output's upstream gradient
    g[np.arange(out.shape[0]), targets] = 1.0
    if output == "probability":
        # each logit's change over its segment: the path's step through the
        # segment's weights and relu masks, without biases
        rises = diff[sample] * weights[:, None]
        for dense, mask in zip(stack, masks):
            rises = rises @ dense.weights.T
            if mask is not None:
                rises *= mask
        g = _probability_upstream(out, rises, targets)
    if layer is None:
        g = _backward(stack, masks, g)
    else:
        unit = np.asarray(units)[sample]
        above = layer + 1
        # dF/dy: back to the next layer's pre-activation, then a row-wise
        # dot with column `unit` of its weights
        g = _backward(stack[above + 1 :], masks[above + 1 :], g)
        if masks[above] is not None:
            g *= masks[above]
        weights = weights * np.einsum("ij,ij->i", g, stack[above].weights.T[unit])
        # dy/dx: from row `unit` of the cut layer's weights down to the input
        g = stack[layer].weights[unit]
        if masks[layer] is not None:
            g *= masks[layer][np.arange(unit.size), unit][:, None]
        g = _backward(stack[:layer], masks[:layer], g)
    g *= weights[:, None]
    return diff * np.add.reduceat(g, starts, axis=0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _prepare(model, x, config, ndim=1):
    """(stack, rows, baseline, symbols, targets) for `attribute_block`: the
    one door of every entry point. stack is the dense view of the model. x
    is one sample, or rows when ndim is 2, checked for shape and finiteness
    and returned as 2-d rows; the baseline is checked for shape, since the
    config checked its values when it was made. symbols are those `decode`
    picks, or None for a bare layer list; each target is
    config.target_class, or by default the class the model predicts:
    `decode`'s on a ModelGraph, and the stack's argmax on a bare layer
    list, whose non-finite output raises NumericalError with no numpy
    warning."""
    stack = model.layers() if isinstance(model, ModelGraph) else list(model)
    x = as_f64(x)
    dim = stack[0].in_dim
    check_shape("input", x, (None,) * (ndim - 1) + (dim,))
    baseline = np.zeros(dim) if config.baseline is None else as_f64(config.baseline)
    check_shape("baseline", baseline, (dim,))
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")
    rows = x.reshape(-1, dim)
    target = config.target_class
    if target is not None:
        check_int("target_class", target, 0, stack[-1].out_dim - 1)
    symbols = None
    if isinstance(model, ModelGraph):
        logits, symbols = model.decode(rows)
    elif target is None:
        _, logits = _forward(stack, rows)
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite network output at path step 0")
    targets = np.argmax(logits, axis=1) if target is None else np.full(len(rows), target)
    return stack, rows, baseline, symbols, targets


def integrated_gradients(model, x, config):
    """Integrated gradients of the target output w.r.t. x."""
    stack, rows, baseline, _, targets = _prepare(model, x, config)
    return attribute_block(stack, rows, baseline, targets, config.output)[0]


def neuron_conductance(model, x, neuron, config):
    """Conductance of hidden unit y = neuron, two ints (layer_index, unit)
    in the stack: the part of the integrated-gradient attribution that
    flows through y."""
    stack, rows, baseline, _, targets = _prepare(model, x, config)
    try:
        layer_index, unit = neuron
    except (TypeError, ValueError):
        raise InputError("neuron must be two ints (layer_index, unit), "
                         f"got {neuron!r}") from None
    check_int("neuron layer_index", layer_index, 0, len(stack) - 2)
    check_int("neuron unit", unit, 0, stack[layer_index].out_dim - 1)
    return attribute_block(stack, rows, baseline, targets, config.output,
                           layer_index, [unit])[0]


def check_block_layout(num_features, block_size):
    """The number of blocks of `block_size` features that `num_features`
    features make; InputError unless block_size is an int >= 1 that divides
    num_features."""
    check_int("block_size", block_size, 1)
    if num_features % block_size != 0:
        raise InputError(
            f"feature count {num_features} is not a multiple of block size "
            f"{block_size}"
        )
    return num_features // block_size


@dataclass
class ConductanceReport:
    """Per-symbol mean input attributions: one row per observed symbol."""

    symbols: list[int]
    counts: list[int]
    matrix: np.ndarray  # [num_symbols, input_dim], columns in the dataset's order

    def dominant_blocks(self, block_size):
        """Per symbol: (block index with the largest mean |attribution|, the
        lowest on a tie, and that block's share of the total across blocks,
        0.0 where the total is 0)."""
        num_blocks = check_block_layout(self.matrix.shape[1], block_size)
        scores = np.abs(self.matrix).reshape(-1, num_blocks, block_size).mean(axis=2)
        totals = scores.sum(axis=1)
        shares = np.divide(scores.max(axis=1), totals, out=np.zeros_like(totals),
                           where=totals > 0)
        return list(zip(np.argmax(scores, axis=1).tolist(), shares.tolist()))


def per_symbol_report(model, dataset, config):
    """Decode each sample's symbol, attribute the matching sender logit back
    to the input features, and average the attributions per symbol. Every
    row passes the door, `_prepare`, in one call, so every row is checked
    and decoded before any block is attributed."""
    if not isinstance(model, ModelGraph) or model.bottleneck is None:
        raise InputError(
            "per-symbol attribution requires a model with a symbol bottleneck, "
            "not a baseline model; train one with --model el"
        )
    if dataset.num_samples == 0:
        raise InputError("dataset must be non-empty")
    stack, features, baseline, symbols, targets = _prepare(
        model, dataset.features, config, ndim=2)
    symbol_layer = len(model.sender) - 1

    def attribute(rows):
        # the vectors of rows first..last-1, one BLOCK-aligned block a pass
        return np.concatenate([
            attribute_block(stack, features[i : i + BLOCK], baseline,
                            targets[i : i + BLOCK], config.output,
                            symbol_layer, symbols[i : i + BLOCK])
            for i in range(*rows, BLOCK)
        ])

    # contiguous runs of whole blocks, one per process
    n = dataset.num_samples
    num_blocks = -(-n // BLOCK)
    processes = _processes(num_blocks)
    bounds = [min(n, num_blocks * i // processes * BLOCK)
              for i in range(processes + 1)]
    vecs = np.concatenate(fork_map(attribute, list(zip(bounds, bounds[1:]))))
    # in sample order, so each symbol's sum adds up one row at a time
    sums = np.zeros((model.vocab_size, dataset.num_features))
    np.add.at(sums, symbols, vecs)
    counts = np.bincount(symbols, minlength=model.vocab_size)
    used = np.flatnonzero(counts)
    return ConductanceReport(
        symbols=used.tolist(),
        counts=counts[used].tolist(),
        matrix=sums[used] / counts[used, None],
    )


def _processes(num_blocks):
    """How many processes attribute `num_blocks` blocks: one per usable CPU,
    each with at least MIN_RUN blocks, and at least 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), num_blocks // MIN_RUN))


def _blas_pin():
    """(get, set) of the thread count of numpy's own OpenBLAS, looked up
    through `numpy_extension`, the handle the training step finds numpy's
    dgemm through, or None where that BLAS exports no such pair."""
    lib = numpy_extension()
    for name in ("scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def fork_map(fn, jobs):
    """[fn(job) for job in jobs], with the first job run in this process and
    each other one in a forked child that sends its result back, pickled,
    through a pipe.

    numpy's OpenBLAS is pinned to one thread meanwhile, through `_blas_pin`,
    since two processes with a BLAS pool each oversubscribe the CPUs, and
    restored afterwards; one job runs pinned too, so that every map
    computes on one BLAS thread. The error raised is that of the first
    failing job in job order, as the list comprehension would raise it, and
    every child is reaped. Where numpy's BLAS has no thread count to pin or
    there is no `os.fork`, or beside other Python threads (fork copies only
    the calling thread), this process runs every job.
    """
    pin = None
    if jobs and hasattr(os, "fork") and threading.active_count() == 1:
        pin = _blas_pin()
    if pin is None:
        return [fn(job) for job in jobs]
    get_threads, set_threads = pin
    threads = get_threads()
    set_threads(1)
    children = []  # (pid, read end of its pipe), in job order
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    try:
                        result = True, fn(job)
                    except Exception as exc:
                        result = False, exc
                    with os.fdopen(write, "wb") as fh:
                        fh.write(pickle.dumps(result))
                    status = 0
                finally:
                    # no atexit handler, no stdio flush, no return into the
                    # parent's stack
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [fn(jobs[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"worker {pid} exited with status {status}")
            ok, result = pickle.loads(payload)  # written by our own child
            if not ok:
                raise result
            results.append(result)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        set_threads(threads)
