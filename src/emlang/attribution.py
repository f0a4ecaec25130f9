"""Integrated gradients and neuron conductance over dense stacks.

Both attributions integrate gradients along the straight line
x' + a (x - x'), a in [0, 1], from a baseline x' to the input x:

  IG_i      = (x_i - x'_i) * integral dF/dx_i da
  Cond^y_i  = (x_i - x'_i) * integral dF/dy * dy/dx_i da

F is the pre-softmax logit of a target class by default (a probability
output is selectable); y is a post-activation hidden unit. Summing Cond^y
over all units of one layer recovers IG componentwise.

The stack holds only relu and identity layers, so for the logit output the
integrand is piecewise constant along the path: it changes only where some
relu pre-activation changes sign. `path_segments` finds those breakpoints
exactly, and the integral is one gradient per segment, taken at its
midpoint and weighted by its length; completeness then holds to rounding.
The probability output is not piecewise constant and keeps the midpoint
Riemann rule with `riemann_steps` points (the midpoint avoids evaluating
exactly on relu kinks at the endpoints).

Every attribution is one batched pass of `attribute_block` over the paths
of several samples: quadrature rows carry a sample id and stay sorted by
(sample, a), one forward over all rows keeps its relu masks in local
arrays, one backward computes input gradients only, and `np.add.reduceat`
sums each sample's rows. `integrated_gradients` and `neuron_conductance`
are the one-sample case. Nothing is stored on the model, so attribution
leaves a model's training state untouched.

`per_symbol_report` decodes every sample once, with `ModelGraph.decode`
over all rows, the same call `evaluate` makes, and then feeds
`attribute_block` BLOCK samples at a time. The blocks are independent, so
it splits them into contiguous runs, one per usable CPU with at least
MIN_RUN blocks each, and hands the runs to `fork_map`: this process
attributes the first run and forked children the others, each child
sending back only its run's attribution vectors. Every run keeps the BLOCK
boundaries, and the parent concatenates the vectors and merges them once,
in sample order, so the report's bytes do not depend on how many processes
ran. Since every symbol is decoded before any block is attributed, a sender
overflow on any row is raised before a receiver overflow on an earlier one
(both are NumericalError).

For symbol models the attribution view replaces the bottleneck with the
identity, so the graph becomes a single dense stack (sender layers followed
by receiver layers) and y is the sender output logit feeding the decoded
symbol's vocabulary slot. On a ModelGraph every entry point takes each
sample's symbol, and its default target class, from `ModelGraph.decode`,
the noise-free decode `evaluate` reports, not from the identity-channel
stack, whose argmax can name another class. This keeps attribution
deterministic and symbol-specific.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .classifier import ModelGraph
from .data import csv_writer
from .errors import InputError, NumericalError
from .nn import as_f64, softmax

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


@dataclass
class AttributionConfig:
    baseline: np.ndarray | None = None  # None means the zero vector
    riemann_steps: int = 300
    # None means the class the model predicts: the one `decode` picks on a
    # ModelGraph, the argmax of a bare layer list
    target_class: int | None = None
    neuron: tuple[int, int] | None = None  # (layer_index, unit) in the stack
    output: str = "logit"

    def validate(self):
        if self.riemann_steps < 1:
            raise InputError("riemann_steps must be >= 1")
        if self.output not in OUTPUTS:
            raise InputError(f"output must be one of {OUTPUTS}")


def attribution_stack(model):
    """The dense-stack view of a model: bottleneck treated as identity."""
    if isinstance(model, ModelGraph):
        return model.sender + model.receiver
    return list(model)


def _resolve_inputs(stack, x, config, ndim=1):
    """x (one sample, or rows when ndim is 2) and the baseline, checked."""
    x = as_f64(x)
    if x.ndim != ndim or x.shape[-1] != stack[0].in_dim:
        raise InputError(
            f"input shape {x.shape} incompatible with stack input dim "
            f"{stack[0].in_dim}"
        )
    dim = stack[0].in_dim
    baseline = np.zeros(dim) if config.baseline is None else as_f64(config.baseline)
    if baseline.shape != (dim,):
        raise InputError(
            f"baseline shape {baseline.shape} does not match input ({dim},)"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(baseline))):
        raise InputError("input or baseline contains non-finite values")
    return x, baseline


def midpoint_rule(m):
    """m equal segments of [0, 1]: (midpoints, weights 1/m)."""
    return (np.arange(m) + 0.5) / m, np.full(m, 1.0 / m)


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


def _output_upstream(logits, targets, output):
    # gradient of F w.r.t. the logits, per quadrature row
    rows = np.arange(logits.shape[0])
    if output == "logit":
        up = np.zeros_like(logits)
        up[rows, targets] = 1.0
        return up
    probs = softmax(logits)
    p_target = probs[rows, targets]
    up = -probs * p_target[:, None]
    up[rows, targets] += p_target
    return up


def attribute_block(stack, xs, baseline, targets, output="logit",
                    riemann_steps=300, layer=None, units=None):
    """Path attributions for every row of xs in one batched pass.

    Row i gets the integrated gradients of output targets[i] when layer is
    None, and otherwise the conductance of unit units[i] of hidden layer
    `layer`. The logit output is integrated exactly over the relu segments
    of each path, the probability output by the midpoint rule at
    `riemann_steps` points. Takes its arguments as checked: the public entry
    points validate them. Raises NumericalError on a non-finite output.
    """
    n = xs.shape[0]
    diff = xs - baseline
    if output == "logit":
        sample, alphas, weights = path_segments(stack, xs, baseline)
    else:
        alphas, weights = midpoint_rule(riemann_steps)
        sample = np.repeat(np.arange(n), riemann_steps)
        alphas, weights = np.tile(alphas, n), np.tile(weights, n)
    starts = np.searchsorted(sample, np.arange(n))
    points = diff[sample]
    points *= alphas[:, None]
    points += baseline
    masks, out = _forward(stack, points)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmin(np.isfinite(out).all(axis=1)))
        step = bad - int(starts[sample[bad]])
        raise NumericalError(f"non-finite network output at path step {step}")
    g = _output_upstream(out, np.asarray(targets)[sample], output)
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


def _decode(model, stack, xs, config):
    """(symbols, targets) of the rows xs. symbols are those `decode` picks,
    or None for a bare layer list; each target is config.target_class, or by
    default the class the model predicts: `decode`'s on a ModelGraph, the
    noise-free pass `evaluate` reports, and the stack's argmax on a bare
    layer list."""
    target = config.target_class
    if target is not None and not (0 <= int(target) < stack[-1].out_dim):
        raise InputError(
            f"target class {target} out of range [0, {stack[-1].out_dim})"
        )
    symbols = None
    if isinstance(model, ModelGraph):
        logits, symbols = model.decode(xs)
    elif target is None:
        _, logits = _forward(stack, xs)
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite network output at path step 0")
    if target is None:
        return symbols, np.argmax(logits, axis=1)
    return symbols, np.full(xs.shape[0], int(target))


def integrated_gradients(model, x, config):
    """Integrated gradients of the target output w.r.t. x."""
    config.validate()
    stack = attribution_stack(model)
    x, baseline = _resolve_inputs(stack, x, config)
    _, targets = _decode(model, stack, x[None, :], config)
    return attribute_block(stack, x[None, :], baseline, targets, config.output,
                           config.riemann_steps)[0]


def neuron_conductance(model, x, config):
    """Conductance of hidden unit y = config.neuron: the part of the
    integrated-gradient attribution that flows through y."""
    config.validate()
    stack = attribution_stack(model)
    if config.neuron is None:
        raise InputError("config.neuron must identify (layer_index, unit)")
    layer_index, unit = config.neuron
    if not (0 <= layer_index < len(stack) - 1):
        raise InputError(
            f"neuron layer index {layer_index} must identify a hidden layer "
            f"in [0, {len(stack) - 1})"
        )
    if not (0 <= unit < stack[layer_index].out_dim):
        raise InputError(
            f"unit {unit} out of range [0, {stack[layer_index].out_dim})"
        )
    x, baseline = _resolve_inputs(stack, x, config)
    _, targets = _decode(model, stack, x[None, :], config)
    return attribute_block(stack, x[None, :], baseline, targets, config.output,
                           config.riemann_steps, layer_index, [unit])[0]


@dataclass
class ConductanceReport:
    """Per-symbol mean input attributions: one row per observed symbol."""

    symbols: list[int]
    counts: list[int]
    matrix: np.ndarray  # [num_symbols, input_dim]
    feature_labels: list[str]

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv_writer(fh, self.feature_labels)
            writer.writerow(["symbol", "count"] + list(self.feature_labels))
            for symbol, count, row in zip(self.symbols, self.counts, self.matrix):
                writer.writerow([symbol, count] + [repr(float(v)) for v in row])

    def dominant_blocks(self, block_size):
        """Per symbol: (block index with the largest mean |attribution|,
        that block's share of the total across blocks)."""
        if self.matrix.shape[1] % block_size != 0:
            raise InputError(
                f"feature count {self.matrix.shape[1]} is not a multiple of "
                f"block size {block_size}"
            )
        num_blocks = self.matrix.shape[1] // block_size
        out = []
        for row in np.abs(self.matrix):
            scores = row.reshape(num_blocks, block_size).mean(axis=1)
            total = scores.sum()
            best = int(np.argmax(scores))
            share = float(scores[best] / total) if total > 0 else 0.0
            out.append((best, share))
        return out


def per_symbol_report(model, dataset, config):
    """Decode each sample's symbol, attribute the matching sender logit back
    to the input features, and average the attributions per symbol."""
    config.validate()
    if not isinstance(model, ModelGraph) or model.bottleneck is None:
        raise InputError(
            "per-symbol attribution requires a model with a symbol bottleneck"
        )
    if dataset.num_samples == 0:
        raise InputError("dataset must be non-empty")
    stack = attribution_stack(model)
    features, baseline = _resolve_inputs(stack, dataset.features, config, ndim=2)
    symbols, targets = _decode(model, stack, features, config)
    symbol_layer = len(model.sender) - 1

    def attribute(rows):
        # the vectors of rows first..last-1, one BLOCK-aligned block a pass
        return np.concatenate([
            attribute_block(stack, features[i : i + BLOCK], baseline,
                            targets[i : i + BLOCK], config.output,
                            config.riemann_steps, symbol_layer,
                            symbols[i : i + BLOCK])
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
        feature_labels=list(dataset.feature_names),
    )


def _processes(num_blocks):
    """How many processes attribute `num_blocks` blocks: one per usable CPU,
    each with at least MIN_RUN blocks, and at least 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), num_blocks // MIN_RUN))


def _blas_pin():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    OpenBLAS that exports them is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
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

    OpenBLAS is pinned to one thread meanwhile, since two processes with a
    BLAS pool each oversubscribe the CPUs, and restored afterwards. The
    error raised is that of the first failing job in job order, as the list
    comprehension would raise it, and every child is reaped. Without a BLAS
    pin or `os.fork`, or beside other Python threads (fork copies only the
    calling thread), this process runs every job.
    """
    pin = None
    if len(jobs) > 1 and hasattr(os, "fork") and threading.active_count() == 1:
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
