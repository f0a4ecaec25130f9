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

For symbol models the attribution view replaces the bottleneck with the
identity, so the graph becomes a single dense stack (sender layers followed
by receiver layers) and y is the sender output logit feeding the decoded
symbol's vocabulary slot. This keeps attribution deterministic and
symbol-specific.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .classifier import ModelGraph
from .errors import InputError, NumericalError, UnsupportedModelError
from .nn import as_f64, softmax

OUTPUT_MODES = ("logit", "probability")


@dataclass
class AttributionConfig:
    baseline: np.ndarray | None = None  # None means the zero vector
    riemann_steps: int = 300
    target_class: int | None = None  # None means the model's predicted class
    neuron: tuple[int, int] | None = None  # (layer_index, unit) in the stack
    output: str = "logit"

    def validate(self):
        if self.riemann_steps < 1:
            raise InputError("riemann_steps must be >= 1")
        if self.output not in OUTPUT_MODES:
            raise InputError(f"output must be one of {OUTPUT_MODES}")


def attribution_stack(model):
    """The dense-stack view of a model: bottleneck treated as identity."""
    if isinstance(model, ModelGraph):
        return model.sender + model.receiver
    return list(model)


def _resolve_inputs(stack, x, config):
    x = as_f64(x)
    if x.ndim != 1 or x.shape[0] != stack[0].in_dim:
        raise InputError(
            f"input shape {x.shape} incompatible with stack input dim "
            f"{stack[0].in_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")
    baseline = (
        np.zeros_like(x) if config.baseline is None else as_f64(config.baseline)
    )
    if baseline.shape != x.shape:
        raise InputError(
            f"baseline shape {baseline.shape} does not match input {x.shape}"
        )
    return x, baseline


def midpoint_rule(m):
    """m equal segments of [0, 1]: (midpoints, weights 1/m)."""
    return (np.arange(m) + 0.5) / m, np.full(m, 1.0 / m)


def path_segments(stack, x, baseline):
    """Exact segments of the path baseline + a (x - baseline), a in [0, 1],
    on which every relu of the stack keeps one sign.

    Walks the stack one layer at a time, keeping the breakpoints found so
    far with the layer input at each. Between two consecutive breakpoints a
    pre-activation is linear in a, so a strict sign change from z_a to z_b
    adds the breakpoint a_a + (a_b - a_a) * z_a / (z_a - z_b), with every
    pre-activation there interpolated from the two ends. Returns (midpoints,
    lengths) of the segments of nonzero length.
    """
    alphas = np.array([0.0, 1.0])
    h = np.stack([baseline, x])
    for layer in stack:
        z = h @ layer.weights.T + layer.bias
        if layer.activation != "relu":
            h = z
            continue
        za, zb = z[:-1], z[1:]
        seg, unit = np.nonzero(((za > 0) & (zb < 0)) | ((za < 0) & (zb > 0)))
        if seg.size:
            t = za[seg, unit] / (za[seg, unit] - zb[seg, unit])
            new = alphas[seg] + (alphas[seg + 1] - alphas[seg]) * t
            alphas = np.concatenate([alphas, new])
            z = np.concatenate([z, za[seg] + t[:, None] * (zb[seg] - za[seg])])
            order = np.argsort(alphas, kind="stable")
            alphas, z = alphas[order], z[order]
        h = np.maximum(z, 0.0)
    lengths = np.diff(alphas)
    keep = lengths > 0
    return ((alphas[:-1] + alphas[1:]) / 2)[keep], lengths[keep]


def _path_forward(stack, x, baseline, config):
    """Forward pass at the quadrature points of the path, with their
    weights: the exact segments for the logit output, which is piecewise
    linear in a, and the midpoint rule for the probability output."""
    if config.output == "logit":
        alphas, weights = path_segments(stack, x, baseline)
    else:
        alphas, weights = midpoint_rule(config.riemann_steps)
    points = baseline + alphas[:, None] * (x - baseline)
    return _stack_forward(stack, points), weights


def _stack_forward(stack, points):
    h = points
    activations = []
    for layer in stack:
        h = layer.forward(h)
        activations.append(h)
    if not np.all(np.isfinite(h)):
        bad = int(np.argwhere(~np.isfinite(h).all(axis=1))[0][0])
        raise NumericalError(bad, f"non-finite network output at path step {bad}")
    return activations


def _target_class(stack, x, config):
    if config.target_class is not None:
        target = int(config.target_class)
    else:
        out = _stack_forward(stack, x[None, :])[-1]
        target = int(np.argmax(out[0]))
    if not (0 <= target < stack[-1].out_dim):
        raise InputError(
            f"target class {target} out of range [0, {stack[-1].out_dim})"
        )
    return target


def _output_upstream(logits, target, output):
    # gradient of F w.r.t. the logits, per interpolation point
    if output == "logit":
        up = np.zeros_like(logits)
        up[:, target] = 1.0
        return up
    probs = softmax(logits)
    up = -probs * probs[:, [target]]
    up[:, target] += probs[:, target]
    return up


def integrated_gradients(model, x, config):
    """Integrated gradients of the target output w.r.t. x."""
    config.validate()
    stack = attribution_stack(model)
    x, baseline = _resolve_inputs(stack, x, config)
    target = _target_class(stack, x, config)
    activations, weights = _path_forward(stack, x, baseline, config)
    g = _output_upstream(activations[-1], target, config.output)
    for layer in reversed(stack):
        g, _, _ = layer.backward(g)
    return (x - baseline) * (weights @ g)


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
    target = _target_class(stack, x, config)
    activations, weights = _path_forward(stack, x, baseline, config)
    # dF/dy for every unit of the cut layer
    g = _output_upstream(activations[-1], target, config.output)
    for layer in reversed(stack[layer_index + 1 :]):
        g, _, _ = layer.backward(g)
    df_dy = g[:, unit]
    # dy/dx through the layers below the cut, reusing the cached forward
    g = np.zeros_like(activations[layer_index])
    g[:, unit] = 1.0
    for layer in reversed(stack[: layer_index + 1]):
        g, _, _ = layer.backward(g)
    return (x - baseline) * ((weights * df_dy) @ g)


@dataclass
class ConductanceReport:
    """Per-symbol mean input attributions: one row per observed symbol."""

    symbols: list[int]
    counts: list[int]
    matrix: np.ndarray  # [num_symbols, input_dim]
    feature_labels: list[str]

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
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
        raise UnsupportedModelError(
            "per-symbol attribution requires a model with a symbol bottleneck"
        )
    if dataset.num_samples == 0:
        raise InputError("dataset must be non-empty")
    logits, sample_symbols = model.forward(dataset.features, mode="eval")
    predictions = np.argmax(logits, axis=1)
    symbol_layer = len(model.sender) - 1
    sums = {}
    counts = {}
    for symbol, pred, x in zip(sample_symbols.tolist(), predictions, dataset.features):
        target = config.target_class if config.target_class is not None else int(pred)
        sample_config = replace(
            config, neuron=(symbol_layer, symbol), target_class=target
        )
        vec = neuron_conductance(model, x, sample_config)
        if symbol in sums:
            sums[symbol] += vec
            counts[symbol] += 1
        else:
            sums[symbol] = vec
            counts[symbol] = 1
    symbols = sorted(sums)
    matrix = np.stack([sums[s] / counts[s] for s in symbols])
    return ConductanceReport(
        symbols=symbols,
        counts=[counts[s] for s in symbols],
        matrix=matrix,
        feature_labels=[f"f{i}" for i in range(dataset.num_features)],
    )
