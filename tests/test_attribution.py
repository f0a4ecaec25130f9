import json
import os
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import attribution
from emlang.attribution import (
    BLOCK,
    MIN_RUN,
    OUTPUTS,
    PIECE_SPREAD,
    AttributionConfig,
    ConductanceReport,
    attribute_block,
    path_segments,
    per_symbol_report,
    integrated_gradients,
    neuron_conductance,
)
from emlang.classifier import (
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from emlang.cli import main
from emlang.data import (
    Dataset,
    SynthSpec,
    dataset_csv,
    generate_synthetic,
    rescale,
    standardization,
    write_csv,
)
from emlang.errors import InputError, NumericalError
from emlang.gumbel import noise_from_uniform
from emlang.nn import DenseLayer, glorot_uniform, softmax, stack_backward, stack_forward
from gradcheck import grad_buffers


def linear_stack(w):
    """Single identity layer computing w @ x: one output per row of w."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return [DenseLayer(w, np.zeros(w.shape[0]), activation="identity")]


def random_relu_net(seed, in_dim=6, hidden=6, out_dim=3):
    """Glorot-scaled random net: the midpoint rule's kink error at m=300
    stays inside the 1e-3 completeness tolerance at this scale."""
    from emlang.nn import glorot_uniform

    rng = np.random.default_rng(seed)
    return [
        DenseLayer(glorot_uniform(rng, hidden, in_dim) * 0.5,
                   rng.normal(size=hidden) * 0.05, activation="relu"),
        DenseLayer(glorot_uniform(rng, out_dim, hidden) * 0.5,
                   rng.normal(size=out_dim) * 0.05, activation="identity"),
    ]


def stack_output(stack, x):
    h = np.asarray(x, dtype=np.float64)[None, :]
    for layer in stack:
        h = layer.forward(h)
    return h[0]


def test_ig_linear_model_is_exact_for_any_step_count():
    w = np.array([1.5, -2.0, 0.25, 3.0])
    x = np.array([2.0, 1.0, -4.0, 0.5])
    config = AttributionConfig(target_class=0)
    attrib = integrated_gradients(linear_stack(w), x, config)
    np.testing.assert_allclose(attrib, w * x, atol=1e-12)


def test_ig_zero_path_is_zero():
    stack = random_relu_net(0)
    x = np.random.default_rng(1).normal(size=6)
    config = AttributionConfig(baseline=x.copy(), target_class=0)
    attrib = integrated_gradients(stack, x, config)
    np.testing.assert_array_equal(attrib, np.zeros(6))


def input_gradient(stack, tape, g):
    """Gradient at the input of a `stack_forward` recorded on tape, for the
    upstream gradient g at its output."""
    return stack_backward(stack, tape, g, grad_buffers(stack))


def logit_gradients(stack, points, target):
    """d(target logit)/dx at every row of points."""
    tape = []
    h = stack_forward(stack, points, tape)
    g = np.zeros_like(h)
    g[:, target] = 1.0
    return input_gradient(stack, tape, g)


def midpoint_rule(m):
    """Reference: m equal segments of [0, 1], as (midpoints, weights 1/m)."""
    return (np.arange(m) + 0.5) / m, np.full(m, 1.0 / m)


def midpoint_ig(stack, x, baseline, m, target):
    """Reference: integrated gradients of the target logit by the midpoint
    rule at m points."""
    alphas, weights = midpoint_rule(m)
    points = baseline + alphas[:, None] * (x - baseline)
    return (x - baseline) * (weights @ logit_gradients(stack, points, target))


def gap_error(stack, x, attrib, target):
    gap = stack_output(stack, x)[target] - stack_output(stack, np.zeros(6))[target]
    return abs(attrib.sum() - gap) / max(1.0, abs(gap))


def completeness_error(stack, x, target=1):
    config = AttributionConfig(target_class=target)
    return gap_error(stack, x, integrated_gradients(stack, x, config), target)


def test_ig_completeness_on_random_relu_nets():
    for seed in range(20):
        stack = random_relu_net(seed)
        x = np.random.default_rng(100 + seed).normal(size=6)
        assert completeness_error(stack, x) <= 1e-3


def test_ig_completeness_error_tightens_with_steps():
    # mean over a batch of nets: per-net error jitters as kinks move
    # relative to the Riemann grid
    mean_errors = []
    for m in (75, 150, 300, 600):
        errs = []
        for seed in range(20):
            stack = random_relu_net(seed)
            x = np.random.default_rng(100 + seed).normal(size=6)
            errs.append(
                gap_error(stack, x, midpoint_ig(stack, x, np.zeros(6), m, 1), 1)
            )
        mean_errors.append(np.mean(errs))
    for coarse, fine in zip(mean_errors, mean_errors[1:]):
        assert fine <= coarse * 1.1


@st.composite
def relu_paths(draw, zero_bias=False, gain=1.0):
    """A random relu net (identity output layer) with Glorot weights times
    gain, an input, a baseline (zero when zero_bias) and a target class."""
    dims = draw(st.lists(st.integers(1, 8), min_size=3, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    stack = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bias = np.zeros(fan_out) if zero_bias else rng.normal(size=fan_out) * scale
        last = i == len(dims) - 2
        stack.append(DenseLayer(glorot_uniform(rng, fan_out, fan_in) * gain, bias,
                                "identity" if last else "relu"))
    x = rng.normal(size=dims[0]) * scale
    baseline = np.zeros(dims[0]) if zero_bias else rng.normal(size=dims[0]) * scale
    target = draw(st.integers(0, dims[-1] - 1))
    return stack, x, baseline, target


def exact_ig(stack, x, baseline, target, output="logit"):
    config = AttributionConfig(baseline=baseline, target_class=target,
                               output=output)
    return integrated_gradients(stack, x, config)


def output_value(stack, x, target, output="logit"):
    logits = stack_output(stack, x)
    return logits[target] if output == "logit" else softmax(logits)[target]


def assert_complete(stack, x, baseline, target, ig, output="logit", slack=0.0):
    f_x = output_value(stack, x, target, output)
    f_base = output_value(stack, baseline, target, output)
    scale = max(1.0, abs(f_x), abs(f_base), np.abs(ig).sum())
    assert abs(ig.sum() - (f_x - f_base)) <= 1e-12 * scale + slack


@settings(max_examples=60, deadline=None)
@given(relu_paths())
def test_exact_ig_sums_to_the_logit_gap(path):
    stack, x, baseline, target = path
    ig = exact_ig(stack, x, baseline, target)
    assert_complete(stack, x, baseline, target, ig)
    # the public entry point is the one-sample batched pass, byte for byte
    np.testing.assert_array_equal(
        ig, attribute_block(stack, x[None, :], baseline, [target])[0]
    )


def long_forward(stack, h):
    """The pre-activations of every layer of `stack` on the rows h, and its
    output, in np.longdouble."""
    zs = []
    for layer in stack:
        h = h @ layer.weights.T.astype(np.longdouble) + layer.bias
        zs.append(h)
        if layer.activation == "relu":
            h = h * (h > 0)
    return zs, h


def long_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def long_probability_ig(stack, x, baseline, target):
    """Independent reference for the probability output, in np.longdouble
    (a 64-bit mantissa on x86-64), one path at a time.

    The breakpoints are found one relu layer at a time, from that layer's
    pre-activations forwarded at the breakpoints found so far, between which
    they are linear. Each segment's logits are forwarded at its two ends and
    are affine in between; the mean over the segment of d p_t / d logits is
    taken by 12-node Gauss-Legendre on pieces over which no difference of
    two logits changes by more than 2; and it is taken back to the input
    through the relu masks at the segment's midpoint.

    Returns the attribution and the bounds of `rounding_slack` on how far
    float64 rounding can move the attribution's sum and each feature."""
    nodes, node_weights = (a.astype(np.longdouble)
                           for a in np.polynomial.legendre.leggauss(12))
    x, baseline = x.astype(np.longdouble), baseline.astype(np.longdouble)
    diff = x - baseline
    alphas = np.array([0.0, 1.0], dtype=np.longdouble)
    for k, layer in enumerate(stack):
        if layer.activation == "relu":
            z = long_forward(stack[: k + 1], baseline + alphas[:, None] * diff)[0][-1]
            za, zb = z[:-1], z[1:]
            seg, unit = np.nonzero(((za > 0) & (zb < 0)) | ((za < 0) & (zb > 0)))
            t = za[seg, unit] / (za[seg, unit] - zb[seg, unit])
            alphas = np.unique(np.concatenate(
                [alphas, alphas[seg] + (alphas[seg + 1] - alphas[seg]) * t]))
    ends = long_forward(stack, baseline + alphas[:, None] * diff)[1]
    p_ends = long_softmax(ends)[:, target]
    ig = np.zeros_like(x)
    segments = []
    for s, (a, b) in enumerate(zip(alphas, alphas[1:])):
        masks = [z > 0 for z in long_forward(stack, baseline + (a + b) / 2 * diff)[0]]
        rise = ends[s + 1] - ends[s]
        pieces = max(1, int(np.ceil(np.ptp(rise) / 2)))
        cuts = long_softmax(ends[s] + np.linspace(0, 1, pieces + 1)[:, None] * rise)
        cut_sensitivity = cuts[:, target] * (1 - cuts[:, target])
        # over a piece, log p_t (1 - p_t) moves by at most 2 per unit change of
        # a logit minus the target's, so by at most 4: a piece below 1e-40
        # at both ends adds less than 1e-38 to any entry of the mean
        live = np.flatnonzero(np.maximum(cut_sensitivity[:-1], cut_sensitivity[1:])
                              >= 1e-40)
        at = ((live[:, None] + (nodes + 1) / 2) / pieces).ravel()
        weights = np.tile(node_weights / 2, live.size) / pieces
        probs = long_softmax(ends[s] + at[:, None] * rise)
        sensitivity = probs[:, target] * (1 - probs[:, target])
        g = weights @ (-probs[:, [target]] * probs)
        g[target] = weights @ sensitivity
        for layer, mask in zip(reversed(stack), reversed(masks)):
            if layer.activation == "relu":
                g = g * mask
            g = g @ layer.weights
        ig += (b - a) * g
        # the forward of |x'| + |x - x'| through |W| and |b|, and of each
        # feature's |x_i - x'_i| through |W|, with the segment's relu masks
        magnitude = np.abs(baseline) + np.abs(diff)
        columns = np.diag(np.abs(diff))
        for layer, mask in zip(stack, masks):
            magnitude = np.abs(layer.weights) @ magnitude + np.abs(layer.bias)
            columns = np.abs(layer.weights) @ columns
            if layer.activation == "relu":
                magnitude, columns = magnitude * mask, columns * mask[:, None]
        ends_sensitivity = p_ends[s : s + 2] * (1 - p_ends[s : s + 2])
        segments.append((magnitude.max(), columns.max(axis=0), ends_sensitivity.sum(),
                         weights @ sensitivity))
    return (diff * ig).astype(np.float64), *rounding_slack(stack, segments)


def rounding_slack(stack, segments):
    """How far float64 rounding can move the probability attribution, beyond
    rounding that does not grow with the logits (the 1e-12 * scale of the
    tests): (a bound for its sum, a bound for each feature).

    `segments` holds, per segment of the path: M, the forward of |x'| +
    |x - x'| through |W|, |b| and the segment's relu masks, which bounds
    every product and sum that the segment's logits and rise round; M_i,
    the same forward of feature i's |x_i - x'_i| alone, without |b|; the sum
    of p_t (1 - p_t) at the segment's two ends; and its mean U over the
    segment.

    On a segment the attribution takes u, the quadrature mean of grad p_t
    along the float64 logit line (the midpoint logits, plus or minus part
    of the rise), times the rise that the backward pass applies. Each point
    of that line misses the path's logits by at most gamma M, with gamma =
    (sum over layers of (fan-in + 1) + 8) eps: a dot product of length n
    plus a bias rounds by at most (n + 1) eps of its magnitude, and 8 more
    roundings make the path's point, the rise and the quadrature's nodes.
    - The sum: the quadrature is exact to rounding, so the segments'
      changes of p_t telescope to the gap, but for each end of each line,
      where p_t moves by at most gamma M sum_c |d p_t / d z_c| = gamma M
      2 p_t (1 - p_t); and the rise and the backward pass each round by at
      most gamma M, against |u|_1 = 2 U. A segment adds at most gamma M
      (2 p_t (1 - p_t) at both ends + 4 U).
    - Feature i: u moves by at most gamma M times the mean of sum_cd
      |d^2 p_t / d z_c d z_d| <= 8 p_t (1 - p_t), and the backward pass of
      feature i's column rounds by at most gamma M_i |u|_1. A segment adds at
      most gamma M_i U (8 M + 2).
    The factor 2 on both covers p_t (1 - p_t) taken on the float64 line,
    not on the path: within a factor exp(2 gamma M) of it, below 2 while
    gamma M < 1/3."""
    gamma = (sum(layer.in_dim + 1 for layer in stack) + 8) * np.finfo(np.float64).eps
    total, features = 0.0, 0.0
    for magnitude, columns, ends, mean in segments:
        assert gamma * magnitude < 1 / 3
        total += magnitude * (2 * ends + 4 * mean)
        features += columns * mean * (8 * magnitude + 2)
    return float(2 * gamma * total), (2 * gamma * features).astype(np.float64)


@pytest.mark.parametrize("gain", [1.0, 10.0], ids=["glorot", "steep"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_probability_ig_sums_to_the_probability_gap(gain, data):
    stack, x, baseline, target = data.draw(relu_paths(gain=gain))
    ig = exact_ig(stack, x, baseline, target, "probability")
    # on Glorot nets the logits stay small, and rounding that grows with them
    # stays below the bound; on nets 10 times as steep it does not
    slack = 0.0
    if gain != 1.0:
        slack = long_probability_ig(stack, x, baseline, target)[1]
    assert_complete(stack, x, baseline, target, ig, "probability", slack)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("gain", [1.0, 10.0], ids=["glorot", "steep"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_probability_ig_matches_a_longdouble_reference_per_feature(gain, data):
    stack, x, baseline, target = data.draw(relu_paths(gain=gain))
    ig = exact_ig(stack, x, baseline, target, "probability")
    reference, _, slack = long_probability_ig(stack, x, baseline, target)
    scale = max(1.0, np.abs(reference).sum())
    assert np.all(np.abs(ig - reference) <= 1e-12 * scale + slack)


@settings(max_examples=30, deadline=None)
@given(relu_paths())
def test_exact_conductance_of_a_layer_sums_to_exact_ig(path):
    stack, x, baseline, target = path
    ig = exact_ig(stack, x, baseline, target)
    scale = max(1.0, np.abs(ig).max())
    for layer_index, layer in enumerate(stack[:-1]):
        total = sum(
            neuron_conductance(
                stack, x, (layer_index, unit),
                AttributionConfig(baseline=baseline, target_class=target),
            )
            for unit in range(layer.out_dim)
        )
        assert np.max(np.abs(total - ig)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(relu_paths())
def test_midpoint_rule_converges_to_the_exact_path(path):
    # The IG integrand is piecewise constant in a, so the midpoint rule at m
    # points is off by at most its total variation over m.
    stack, x, baseline, target = path
    ig = exact_ig(stack, x, baseline, target)
    _, mids, _ = path_segments(stack, x[None, :], baseline)
    per_segment = (x - baseline) * logit_gradients(
        stack, baseline + mids[:, None] * (x - baseline), target
    )
    variation = np.abs(np.diff(per_segment, axis=0)).sum(axis=0)
    slack = 1e-12 * max(1.0, np.abs(per_segment).max())
    for m in (75, 150, 300, 600):
        error = np.abs(midpoint_ig(stack, x, baseline, m, target) - ig)
        assert np.all(error <= variation / m + slack)


@settings(max_examples=30, deadline=None)
@given(relu_paths(zero_bias=True))
def test_exact_path_from_zero_through_zero_bias_net(path):
    # Every pre-activation is exactly 0 at a = 0 and the net is positively
    # homogeneous along the path: one segment, no spurious breakpoints.
    stack, x, baseline, target = path
    _, mids, lengths = path_segments(stack, x[None, :], baseline)
    np.testing.assert_array_equal(mids, [0.5])
    np.testing.assert_array_equal(lengths, [1.0])
    ig = exact_ig(stack, x, baseline, target)
    assert_complete(stack, x, baseline, target, ig)


def reference_segments(stack, x, baseline):
    """Per-sample reference for the segment walk: one path, every layer
    walked, sign changes found by comparisons, a stable sort by a."""
    alphas = np.array([0.0, 1.0])
    h = np.stack([baseline, x])
    for layer in stack:
        z = h @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            za, zb = z[:-1], z[1:]
            seg, unit = np.nonzero(((za > 0) & (zb < 0)) | ((za < 0) & (zb > 0)))
            t = za[seg, unit] / (za[seg, unit] - zb[seg, unit])
            alphas = np.concatenate(
                [alphas, alphas[seg] + (alphas[seg + 1] - alphas[seg]) * t]
            )
            z = np.concatenate([z, za[seg] + t[:, None] * (zb[seg] - za[seg])])
            order = np.argsort(alphas, kind="stable")
            alphas, z = alphas[order], np.maximum(z[order], 0.0)
        h = z
    lengths = np.diff(alphas)
    keep = lengths > 0
    return ((alphas[:-1] + alphas[1:]) / 2)[keep], lengths[keep]


def reference_probability_upstream(stack, x, baseline, alphas, lengths, target):
    """Per segment, the mean over it of the gradient of the target's softmax
    probability with respect to the logits. The logits are taken at the
    segment's two ends, affine in between, and each segment gets twice the
    pieces that `attribute_block` cuts it into, at 32 Gauss-Legendre nodes
    each. The target's entry, p_t (1 - p_t), is minus the sum of the others,
    which keeps 1 - p_t from cancelling."""
    nodes, node_weights = np.polynomial.legendre.leggauss(32)
    rows = []
    for mid, length in zip(alphas, lengths):
        start, end = (stack_output(stack, baseline + a * (x - baseline))
                      for a in (mid - length / 2, mid + length / 2))
        pieces = 2 * max(1, int(np.ceil(np.ptp(end - start) / PIECE_SPREAD)))
        at = ((np.arange(pieces)[:, None] + (nodes + 1) / 2) / pieces).ravel()
        probs = softmax(start + at[:, None] * (end - start))
        g = -probs * probs[:, [target]]
        g[:, target] = 0.0
        row = np.tile(node_weights / 2, pieces) @ g / pieces
        row[target] = -row.sum()
        rows.append(row)
    return np.array(rows)


def reference_attribution(stack, x, baseline, target, output, neuron=None):
    """Per-sample reference: both outputs over the segments of
    `reference_segments`, with a taped dense forward and backward at each
    segment's midpoint and a one-hot gradient at the cut. Returns the
    attribution and, per feature, the larger of the summed and the largest
    absolute term: the scale of its rounding error."""
    alphas, weights = reference_segments(stack, x, baseline)
    tape = []
    h = stack_forward(stack, baseline + alphas[:, None] * (x - baseline), tape)
    if output == "logit":
        g = np.zeros_like(h)
        g[:, target] = 1.0
    else:
        g = reference_probability_upstream(stack, x, baseline, alphas, weights,
                                           target)
    df_dy = np.ones_like(weights)
    below = stack
    if neuron is not None:
        layer_index, unit = neuron
        below = stack[: layer_index + 1]
        above = layer_index + 1
        if above < len(stack):
            g = input_gradient(stack[above:], tape[above:], g)
        df_dy = g[:, unit]
        g = np.zeros_like(g)
        g[:, unit] = 1.0
    g = input_gradient(below, tape[: len(below)], g)
    rows = np.abs((x - baseline) * df_dy[:, None] * g)
    scale = np.maximum(weights @ rows, rows.max(axis=0))
    return (x - baseline) * ((weights * df_dy) @ g), scale


@st.composite
def relu_stacks(draw, gain=1.0):
    """A random stack with Glorot weights times gain (relu or identity
    hidden layers, identity output), a few samples with one shared baseline,
    a target per sample, and a hidden cut layer with a unit per sample."""
    dims = draw(st.lists(st.integers(1, 8), min_size=3, max_size=5))
    hidden = draw(st.lists(st.sampled_from(["relu", "relu", "identity"]),
                           min_size=len(dims) - 2, max_size=len(dims) - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    stack = [
        DenseLayer(glorot_uniform(rng, fan_out, fan_in) * gain,
                   rng.normal(size=fan_out) * scale, activation)
        for fan_in, fan_out, activation in zip(dims, dims[1:], hidden + ["identity"])
    ]
    n = draw(st.integers(1, 2 * BLOCK + 1))
    xs = rng.normal(size=(n, dims[0])) * scale
    baseline = rng.normal(size=dims[0]) * scale
    targets = rng.integers(0, dims[-1], size=n)
    layer = draw(st.integers(0, len(stack) - 2))
    units = rng.integers(0, dims[layer + 1], size=n)
    return stack, xs, baseline, targets, layer, units


@settings(max_examples=60, deadline=None)
@given(relu_stacks(), st.sampled_from(OUTPUTS))
def test_batched_pass_matches_the_per_sample_reference(case, output):
    stack, xs, baseline, targets, layer, units = case
    for cut, cut_units in ((None, None), (layer, units)):
        got = attribute_block(stack, xs, baseline, targets, output, cut,
                              cut_units)
        assert got.shape == xs.shape
        for i, x in enumerate(xs):
            neuron = None if cut is None else (cut, cut_units[i])
            want, scale = reference_attribution(stack, x, baseline, targets[i],
                                                output, neuron)
            assert np.all(np.abs(got[i] - want) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(relu_stacks())
def test_batched_conductances_of_a_layer_sum_to_complete_ig(case):
    stack, xs, baseline, targets, layer, _ = case
    ig = attribute_block(stack, xs, baseline, targets)
    for x, target, row in zip(xs, targets, ig):
        assert_complete(stack, x, baseline, target, row)
    per_unit = [
        attribute_block(stack, xs, baseline, targets, layer=layer,
                        units=np.full(len(xs), unit))
        for unit in range(stack[layer].out_dim)
    ]
    scale = max(1.0, np.abs(ig).max(), max(np.abs(c).max() for c in per_unit))
    assert np.max(np.abs(sum(per_unit) - ig)) <= 1e-12 * scale


@pytest.mark.parametrize("gain", [1.0, 10.0], ids=["glorot", "steep"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_probability_conductances_of_a_layer_sum_to_complete_ig(gain, data):
    stack, xs, baseline, targets, layer, _ = data.draw(relu_stacks(gain))
    ig = attribute_block(stack, xs, baseline, targets, "probability")
    for x, target, row in zip(xs, targets, ig):
        # the steep nets' sums get the slack that
        # test_exact_probability_ig_sums_to_the_probability_gap derives
        slack = 0.0
        if gain != 1.0:
            slack = long_probability_ig(stack, x, baseline, target)[1]
        assert_complete(stack, x, baseline, target, row, "probability", slack)
    per_unit = [
        attribute_block(stack, xs, baseline, targets, "probability", layer,
                        np.full(len(xs), unit))
        for unit in range(stack[layer].out_dim)
    ]
    scale = max(1.0, np.abs(ig).max(), max(np.abs(c).max() for c in per_unit))
    assert np.max(np.abs(sum(per_unit) - ig)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * BLOCK),
       st.sampled_from(OUTPUTS))
def test_per_symbol_report_matches_the_per_sample_reference(seed, n, output):
    rng = np.random.default_rng(seed)
    model = build_model(5, 3, vocab_size=6, hidden_dim=7, seed=seed % 1000)
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.out_dim)
    ds = Dataset(rng.normal(size=(n, 5)) * 2.0, np.zeros(n, dtype=int), ["a"])
    report = per_symbol_report(model, ds, AttributionConfig(output=output))
    logits, symbols = model.decode(ds.features)
    stack = model.layers()
    sums, scales = {}, {}
    for x, symbol, target in zip(ds.features, symbols, np.argmax(logits, axis=1)):
        want, scale = reference_attribution(
            stack, x, np.zeros(5), target, output,
            (len(model.sender) - 1, symbol),
        )
        sums[symbol] = sums.get(symbol, 0.0) + want
        scales[symbol] = scales.get(symbol, 0.0) + scale
    assert report.symbols == sorted(sums)
    assert report.counts == [int(np.sum(symbols == s)) for s in report.symbols]
    for row, symbol, count in zip(report.matrix, report.symbols, report.counts):
        assert np.all(
            np.abs(row - sums[symbol] / count) <= 1e-12 * scales[symbol] / count
        )


@pytest.mark.parametrize("attribute", ["neuron_conductance", "per_symbol_report"])
def test_attribution_leaves_training_state_untouched(attribute):
    # a train-mode forward, an attribution call, then the backward of that
    # forward: the gradients are those of the forward alone
    rng = np.random.default_rng(40)
    model = build_model(6, 3, vocab_size=8, hidden_dim=8, seed=40)
    xb = rng.normal(size=(32, 6))
    noise = noise_from_uniform(rng.uniform(size=(32, 8)))
    dlogits = rng.normal(size=(32, 3))
    config = AttributionConfig(output="probability")
    calls = {
        "neuron_conductance": lambda: neuron_conductance(
            model, xb[0], (len(model.sender) - 1, 0), config
        ),
        "per_symbol_report": lambda: per_symbol_report(
            model, Dataset(xb, np.zeros(32, dtype=int), ["a"]), config
        ),
    }

    def gradients(between):
        _, tape = model.forward(xb, noise)
        between()
        layer_grads = grad_buffers(model.layers())
        g = model.backward(tape, dlogits, layer_grads, input_grad=True)
        return [g] + [a for gw, gb in layer_grads for a in (gw, gb)]

    expected = gradients(lambda: None)
    for got, want in zip(gradients(calls[attribute]), expected):
        np.testing.assert_array_equal(got, want)


def test_conductance_two_layer_linear_closed_form():
    # F = v . (W x), baseline 0: Cond^{y_j}_i = v_j * W[j, i] * x_i
    rng = np.random.default_rng(9)
    w = rng.normal(size=(4, 5))
    v = rng.normal(size=(1, 4))
    stack = [
        DenseLayer(w, np.zeros(4), activation="identity"),
        DenseLayer(v, np.zeros(1), activation="identity"),
    ]
    x = rng.normal(size=5)
    for j in range(4):
        config = AttributionConfig(target_class=0)
        attrib = neuron_conductance(stack, x, (0, j), config)
        np.testing.assert_allclose(attrib, v[0, j] * w[j] * x, atol=1e-12)


def test_conductance_zero_path_is_zero():
    stack = random_relu_net(10)
    x = np.random.default_rng(11).normal(size=6)
    config = AttributionConfig(baseline=x.copy(), target_class=0)
    np.testing.assert_array_equal(neuron_conductance(stack, x, (0, 2), config),
                                  np.zeros(6))


def test_conductance_sums_to_integrated_gradients_over_layer():
    for seed in range(3):
        stack = random_relu_net(seed, in_dim=5, hidden=6, out_dim=2)
        x = np.random.default_rng(200 + seed).normal(size=5)
        ig = integrated_gradients(
            stack, x, AttributionConfig(target_class=0)
        )
        total = np.zeros(5)
        for unit in range(6):
            config = AttributionConfig(target_class=0)
            total += neuron_conductance(stack, x, (0, unit), config)
        denom = np.maximum(np.abs(ig), 1.0)
        assert np.max(np.abs(total - ig) / denom) <= 1e-3


def test_invalid_neuron_selectors():
    stack = random_relu_net(12)
    x = np.zeros(6)
    with pytest.raises(InputError):
        neuron_conductance(stack, x, None, AttributionConfig(target_class=0))
    with pytest.raises(InputError):
        neuron_conductance(
            stack, x, (1, 0), AttributionConfig(target_class=0)
        )  # final layer is not a hidden layer
    with pytest.raises(InputError):
        neuron_conductance(
            stack, x, (0, 99), AttributionConfig(target_class=0)
        )


def test_config_validation():
    with pytest.raises(InputError):
        AttributionConfig(baseline=np.array([0.0, np.nan]))
    with pytest.raises(InputError):
        AttributionConfig(output="odds")
    stack = random_relu_net(13)
    with pytest.raises(InputError):
        integrated_gradients(stack, np.zeros(3), AttributionConfig(target_class=0))
    with pytest.raises(InputError):
        integrated_gradients(
            stack, np.full(6, np.nan), AttributionConfig(target_class=0)
        )
    with pytest.raises(InputError):
        integrated_gradients(
            stack, np.zeros(6),
            AttributionConfig(target_class=0, baseline=np.zeros(4)),
        )
    model = build_model(5, 4, vocab_size=6, hidden_dim=7, seed=2)
    with pytest.raises(InputError,
                       match=r"^target_class must be an int in \[0, 3\], got 5$"):
        integrated_gradients(model, np.ones(5), AttributionConfig(target_class=5))


# each entry point, passing one sample x, or two rows of it for the report,
# through the door
ENTRY_POINTS = {
    "integrated_gradients": integrated_gradients,
    "neuron_conductance": lambda model, x, config: neuron_conductance(
        model, x, (0, 0), config),
    "per_symbol_report": lambda model, x, config: per_symbol_report(
        model, Dataset(np.stack([x, x]), [0, 1], ["a", "b", "c"]), config),
}

# (check, x, config, the message for one sample, and for rows when it differs);
# both models take 6 inputs and have 3 classes
DOOR_CHECKS = [
    ("input-width", np.ones(5), AttributionConfig(),
     "input must have shape (6,), got (5,)",
     "input must have shape (*, 6), got (2, 5)"),
    ("baseline-length", np.ones(6), AttributionConfig(baseline=np.zeros(5)),
     "baseline must have shape (6,), got (5,)", None),
    ("non-finite-input", np.array([0.0, 1.0, np.inf, 0.0, 1.0, 0.0]),
     AttributionConfig(), "input contains non-finite values", None),
    ("target_class", np.ones(6), AttributionConfig(target_class=3),
     "target_class must be an int in [0, 2], got 3", None),
]

DOOR_CASES = [
    (entry, kind, check)
    for entry in ENTRY_POINTS
    for kind in ("ModelGraph", "layer-list")
    if not (entry == "per_symbol_report" and kind == "layer-list")
    for check in DOOR_CHECKS
]


@pytest.mark.parametrize("entry, kind, check", DOOR_CASES,
                         ids=[f"{entry}-{kind}-{check[0]}"
                              for entry, kind, check in DOOR_CASES])
def test_every_entry_point_meets_the_door_checks_with_one_message(entry, kind,
                                                                  check):
    _, x, config, message, rows_message = check
    if entry == "per_symbol_report" and rows_message is not None:
        message = rows_message
    model = (build_model(6, 3, vocab_size=5, hidden_dim=4, seed=1)
             if kind == "ModelGraph" else random_relu_net(16))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](model, x, config)


@pytest.mark.parametrize("config, field, value, message", [
    (SynthSpec(), "test_samples", 3, "test_samples must be an int >= 4, got 3"),
    (SynthSpec(), "noise_sigma", np.nan,
     "noise_sigma must be a finite number >= 0, got nan"),
    (TrainConfig(), "patience", 201, "patience must be an int in [1, 200], got 201"),
    (TrainConfig(), "learning_rate", np.inf,
     "learning_rate must be a finite number > 0, got inf"),
    (AttributionConfig(), "output", "odds",
     "output must be one of ('logit', 'probability')"),
    (AttributionConfig(), "baseline", np.array([0.0, np.nan]),
     f"baseline[1] must be a finite number, got {np.float64(np.nan)!r}"),
    *((AttributionConfig(), "target_class", target,
       f"target_class must be an int >= 0, got {target!r}")
      for target in (1.5, True, "1", -1)),
], ids=["SynthSpec-samples", "SynthSpec-sigma", "TrainConfig-patience",
        "TrainConfig-rate", "AttributionConfig-output",
        "AttributionConfig-baseline", "AttributionConfig-target-fraction",
        "AttributionConfig-target-bool", "AttributionConfig-target-string",
        "AttributionConfig-target-negative"])
def test_configs_check_themselves_when_made_and_are_frozen(config, field, value,
                                                          message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(InputError, match=exact):
        type(config)(**{field: value})
    with pytest.raises(InputError, match=exact):
        replace(config, **{field: value})
    with pytest.raises(FrozenInstanceError):
        setattr(config, field, value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_baseline_is_rejected(value):
    stack = random_relu_net(13)
    baseline = np.zeros(6)
    baseline[2] = value
    message = f"baseline[2] must be a finite number, got {np.float64(value)!r}"
    for target in (None, 0):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            config = AttributionConfig(baseline=baseline, target_class=target)
            integrated_gradients(stack, np.ones(6), config)


def test_configs_with_equal_baselines_compare_and_hash_equal():
    first = AttributionConfig(baseline=np.zeros(3), target_class=1)
    second = AttributionConfig(baseline=[0.0, 0.0, 0.0], target_class=1)
    assert first == second
    assert hash(first) == hash(second)
    assert first != replace(first, baseline=np.ones(3))
    with pytest.raises(InputError,
                       match=r"^baseline must have shape \(\*,\), got \(2, 2\)$"):
        AttributionConfig(baseline=np.zeros((2, 2)))


def test_neuron_conductance_takes_a_neuron_of_two_ints():
    stack = random_relu_net(13)
    x = np.random.default_rng(13).normal(size=6)
    config = AttributionConfig(target_class=0)
    expected = neuron_conductance(stack, x, (0, 1), config)
    for neuron in ([0, 1], (np.int64(0), 1)):
        np.testing.assert_array_equal(
            neuron_conductance(stack, x, neuron, config), expected)
    for neuron in ((0,), (0, 1, 2), 5, None):
        message = f"neuron must be two ints (layer_index, unit), got {neuron!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            neuron_conductance(stack, x, neuron, config)
    # a pair of anything but ints meets the index rule: the stack's one
    # hidden layer has index 0 and 6 units
    for neuron, message in (
            ((0, 1.5), "neuron unit must be an int in [0, 5], got 1.5"),
            ((True, 0), "neuron layer_index must be an int in [0, 0], got True"),
            ((0, False), "neuron unit must be an int in [0, 5], got False")):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            neuron_conductance(stack, x, neuron, config)


def test_target_class_is_stored_as_an_int():
    config = AttributionConfig(target_class=np.int64(1))
    assert type(config.target_class) is int and config.target_class == 1
    assert config == AttributionConfig(target_class=1)
    assert hash(config) == hash(AttributionConfig(target_class=1))


def test_probability_output_completeness():
    stack = random_relu_net(14)
    x = np.random.default_rng(15).normal(size=6)
    config = AttributionConfig(target_class=0, output="probability")
    attrib = integrated_gradients(stack, x, config)
    p_x = softmax(stack_output(stack, x)[None, :])[0, 0]
    p_base = softmax(stack_output(stack, np.zeros(6))[None, :])[0, 0]
    scale = max(1.0, np.abs(attrib).sum())
    assert abs(attrib.sum() - (p_x - p_base)) <= 1e-12 * scale


def steep_line(gain):
    """An identity stack whose two logits move apart by 2 * gain along the
    path from 0 to x = 1, on one segment, and that x."""
    return linear_stack([[gain], [-gain]]), np.ones(1)


def test_probability_output_of_a_steep_segment_is_complete_in_bounded_memory():
    # 100,000 pieces on one segment: unchunked, the nodes' probabilities
    # alone would take 100,000 * 16 * 2 * 8 bytes = 24 MiB
    stack, x = steep_line(PIECE_SPREAD * 50_000)
    config = AttributionConfig(target_class=0, output="probability")
    tracemalloc.start()
    try:
        attrib = integrated_gradients(stack, x, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert abs(attrib.sum() - (1.0 - 0.5)) <= 1e-12


def test_a_bare_stack_that_overflows_raises_its_own_error_alone():
    # the default target is the argmax of the stack's own forward, which
    # overflows on this input before any path is walked
    import warnings

    stack = [DenseLayer(np.full((3, 2), 1e308), np.zeros(3), "relu"),
             DenseLayer(np.ones((2, 3)), np.zeros(2), "identity")]
    x = np.array([10.0, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^non-finite network output"):
            integrated_gradients(stack, x, AttributionConfig())
        with pytest.raises(NumericalError, match="^non-finite network output"):
            neuron_conductance(stack, x, (0, 1), AttributionConfig())


@pytest.mark.parametrize("gain", [1e12, 1e308], ids=["too-many-pieces", "inf"])
def test_probability_output_too_steep_to_integrate_raises(gain):
    stack, x = steep_line(gain)
    config = AttributionConfig(target_class=0, output="probability")
    with pytest.raises(NumericalError, match="quadrature pieces exceed"):
        integrated_gradients(stack, x, config)


def symbol_model_case():
    """An untrained symbol model and a row on which the class `decode`
    predicts differs from the argmax of the identity-channel stack (true of
    more than half of random rows at this seed), with that class and the
    row's sender-output unit."""
    model = build_model(28, 4, seed=3)
    xs = np.random.default_rng(3).normal(size=(20, 28))
    logits, symbols = model.decode(xs)
    decoded = np.argmax(logits, axis=1)
    stacked = np.argmax(stack_forward(model.layers(), xs), axis=1)
    row = int(np.flatnonzero(decoded != stacked)[0])
    neuron = (len(model.sender) - 1, int(symbols[row]))
    return model, xs[row], int(decoded[row]), neuron


def test_default_target_is_predicted_class():
    stack = random_relu_net(16)
    x = np.random.default_rng(17).normal(size=6)
    cases = [(stack, x, int(np.argmax(stack_output(stack, x))), (0, 1)),
             symbol_model_case()]
    for model, x, predicted, neuron in cases:
        for attribute, config in [
            (integrated_gradients, AttributionConfig()),
            (lambda model, x, config, neuron=neuron:
             neuron_conductance(model, x, neuron, config), AttributionConfig()),
        ]:
            auto = attribute(model, x, config)
            explicit = attribute(model, x, replace(config, target_class=predicted))
            np.testing.assert_array_equal(auto, explicit)


def untrained_symbol_case():
    """An untrained 4-class symbol model and 20 rows of its 28 features."""
    xs = np.random.default_rng(3).normal(size=(20, 28))
    return build_model(28, 4, seed=3), Dataset(xs, np.zeros(20, dtype=int), ["a"])


def test_changing_the_baseline_array_after_the_config_changes_no_report():
    model, ds = untrained_symbol_case()
    source = np.full(28, 0.1)
    config = AttributionConfig(baseline=source)
    before = per_symbol_report(model, ds, config)
    source[0] = np.nan
    after = per_symbol_report(model, ds, config)
    assert after.counts == before.counts
    assert np.array_equal(after.matrix, before.matrix)


def trained_symbol_model(seed=0):
    spec = SynthSpec(num_classes=3, block_size=4, train_samples=120,
                     val_samples=30, test_samples=30, noise_sigma=0.3,
                     seed=seed)
    train_set, val_set, test_set = generate_synthetic(spec)
    model = build_model(spec.feature_dim, 3, vocab_size=16, hidden_dim=16,
                        seed=seed)
    config = TrainConfig(max_epochs=120, patience=20, seed=seed)
    train(model, train_set, val_set, config)
    return spec, model, test_set


def test_per_symbol_report_single_sample():
    spec, model, test_set = trained_symbol_model(18)
    one = Dataset(test_set.features[:1], test_set.labels[:1],
                  test_set.class_names)
    config = AttributionConfig()
    report = per_symbol_report(model, one, config)
    assert report.counts == [1]
    assert report.matrix.shape == (1, spec.feature_dim)
    _, symbols = model.decode(one.features)
    direct = neuron_conductance(
        model,
        one.features[0],
        (len(model.sender) - 1, int(symbols[0])),
        AttributionConfig(),
    )
    np.testing.assert_allclose(report.matrix[0], direct, atol=1e-12)


def test_per_symbol_report_matches_symbol_inventory():
    _, model, test_set = trained_symbol_model(19)
    report = per_symbol_report(model, test_set, AttributionConfig())
    inventory = evaluate(model, test_set)["symbol_inventory"]
    assert report.symbols == [s["symbol"] for s in inventory]
    assert report.counts == [s["count"] for s in inventory]
    assert sum(report.counts) == test_set.num_samples


def test_per_symbol_report_finds_informative_blocks():
    spec, model, test_set = trained_symbol_model(20)
    accuracy = evaluate(model, test_set)["accuracy"]
    assert accuracy >= 0.9, "fixture model must have learned the task"
    report = per_symbol_report(model, test_set, AttributionConfig())
    blocks = report.dominant_blocks(spec.block_size)
    # majority class per symbol determines the expected block
    _, symbols = model.decode(test_set.features)
    for (symbol, (block, share)) in zip(report.symbols, blocks):
        rows = [i for i, s in enumerate(symbols) if s == symbol]
        majority = np.bincount(test_set.labels[rows]).argmax()
        assert block == majority
        assert share > 1.0 / spec.num_classes
    for size in (0, -7):
        with pytest.raises(InputError,
                           match=f"^block_size must be an int >= 1, got {size}$"):
            report.dominant_blocks(size)


def loop_dominant_blocks(matrix, block_size):
    """The per-row loop that `ConductanceReport.dominant_blocks` computes with
    array reductions, kept as its reference."""
    num_blocks = matrix.shape[1] // block_size
    out = []
    for row in np.abs(matrix):
        scores = row.reshape(num_blocks, block_size).mean(axis=1)
        total = scores.sum()
        best = int(np.argmax(scores))
        out.append((best, float(scores[best] / total) if total > 0 else 0.0))
    return out


def _tied_rows():
    rows = np.zeros((3, 12))
    rows[0, [0, 6]] = 0.3  # blocks 0 and 2 of size 3 tie
    rows[1, [4, 10, 11]] = [-0.25, 0.125, 0.125]  # blocks 1 and 3 tie
    rows[2] = 1e-300  # every block ties
    return rows


def _scaled_rows():
    rows = np.random.default_rng(5).normal(size=(40, 28))
    return rows * 10.0 ** np.arange(-20, 20)[:, None]


@pytest.mark.parametrize("matrix, block_size, expected", [
    (np.vstack([np.zeros(8), np.arange(8.0)]), 2, [(0, 0.0), (3, 13 / 28)]),
    (_tied_rows(), 3, [(0, 0.5), (1, 0.5), (0, 0.25)]),
    # 28 blocks: numpy sums more than 8 values pairwise, in 8 partial sums
    (_scaled_rows(), 1, None),
], ids=["all-zero-row", "tied-blocks", "block-size-1"])
def test_dominant_blocks_equal_the_per_row_loop_bit_for_bit(matrix, block_size,
                                                            expected):
    report = ConductanceReport(list(range(len(matrix))), [1] * len(matrix), matrix)
    got = report.dominant_blocks(block_size)
    want = loop_dominant_blocks(matrix, block_size)
    assert [(block, share.hex()) for block, share in got] == [
        (block, share.hex()) for block, share in want]
    assert all(type(block) is int and type(share) is float for block, share in got)
    if expected is not None:
        assert got == expected


def test_per_symbol_report_rejects_baseline():
    baseline = build_model(4, 2, vocab_size=5, hidden_dim=4,
                           with_bottleneck=False, seed=21)
    ds = Dataset(np.zeros((2, 4)), [0, 1], ["a", "b"])
    with pytest.raises(InputError):
        per_symbol_report(baseline, ds, AttributionConfig())


def test_report_csv_format(tmp_path):
    spec, model, test_set = trained_symbol_model(22)
    report = per_symbol_report(model, test_set, AttributionConfig())
    # the file `emlang attribute` writes for this model and these rows
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(save_checkpoint(
        model, None, test_set.feature_names, test_set.class_names)))
    write_csv(tmp_path / "test.csv", *dataset_csv(test_set))
    assert main(["attribute", "--checkpoint", str(checkpoint),
                 "--test-csv", str(tmp_path / "test.csv"),
                 "--block-size", str(spec.block_size),
                 "--out", str(tmp_path / "attribution")]) == 0
    path = tmp_path / "attribution" / "conductance.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "symbol,count," + ",".join(
        f"f{i}" for i in range(spec.feature_dim)
    )
    assert len(lines) == 1 + len(report.symbols)
    first = lines[1].split(",")
    assert int(first[0]) == report.symbols[0]
    assert int(first[1]) == report.counts[0]
    np.testing.assert_allclose(
        [float(v) for v in first[2:]], report.matrix[0], atol=0.0
    )


# Worker processes: 13 blocks (the last one partial) split unevenly over 2
# and 3 processes. The count is forced through the helper that picks it.
UNEVEN_ROWS = 12 * BLOCK + 2


def force_processes(monkeypatch, count):
    monkeypatch.setattr(attribution, "_processes", lambda num_blocks: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def blas_threads():
    pin = attribution._blas_pin()
    return None if pin is None else pin[0]()


def standardized_checkpoint_model():
    """A symbol model reloaded from a checkpoint with standardization, and
    UNEVEN_ROWS test rows scaled as `emlang attribute` scales them."""
    spec = SynthSpec(num_classes=3, block_size=4, train_samples=120,
                     val_samples=30, test_samples=UNEVEN_ROWS, noise_sigma=0.3,
                     seed=23)
    train_set, val_set, test_set = generate_synthetic(spec)
    stats = standardization(train_set)
    model = build_model(spec.feature_dim, 3, vocab_size=16, hidden_dim=16,
                        seed=23)
    train(model, rescale(train_set, stats), rescale(val_set, stats),
          TrainConfig(max_epochs=40, patience=40, seed=23))
    model, stats, _, _ = load_checkpoint(
        save_checkpoint(model, stats, train_set.feature_names)
    )
    assert stats is not None
    return model, rescale(test_set, stats)


@pytest.mark.parametrize("output", OUTPUTS)
def test_report_bytes_do_not_depend_on_the_process_count(monkeypatch, output):
    model, test_set = standardized_checkpoint_model()
    config = AttributionConfig(output=output)
    threads = blas_threads()
    reports = []
    for count in (1, 2, 3):
        force_processes(monkeypatch, count)
        reports.append(per_symbol_report(model, test_set, config))
        assert_no_child_left()
        assert blas_threads() == threads
    first = reports[0]
    assert sum(first.counts) == UNEVEN_ROWS
    for report in reports[1:]:
        assert report.symbols == first.symbols
        assert report.counts == first.counts
        assert np.array_equal(report.matrix, first.matrix)


def overflow_case(scales):
    """A model and UNEVEN_ROWS rows, row i scaled by scales.get(i, 1). A
    scale of 1e150 keeps the decode finite but overflows the receiver on the
    last segment of the row's path, so the error names a path step that
    depends on the row."""
    rng = np.random.default_rng(24)
    model = build_model(5, 3, vocab_size=6, hidden_dim=7, seed=24)
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.out_dim)
    model.receiver[-1].weights *= 1e160
    xs = rng.normal(size=(UNEVEN_ROWS, 5))
    for row, scale in scales.items():
        xs[row] *= scale
    return model, Dataset(xs, np.zeros(UNEVEN_ROWS, dtype=int), ["a"])


def overflow_message(monkeypatch, count, model, ds):
    force_processes(monkeypatch, count)
    threads = blas_threads()
    with pytest.raises(NumericalError) as info:
        per_symbol_report(model, ds, AttributionConfig())
    assert_no_child_left()
    assert blas_threads() == threads
    return str(info.value)


def test_receiver_overflow_in_the_last_run_matches_one_process(monkeypatch):
    # 3 processes run blocks [0, 4), [4, 8) and [8, 13): rows 40-49 are in
    # the last run only
    model, ds = overflow_case({row: 1e150 for row in range(41, 50)})
    message = overflow_message(monkeypatch, 1, model, ds)
    assert "non-finite network output at path step" in message
    assert overflow_message(monkeypatch, 3, model, ds) == message


@pytest.mark.parametrize("first, later", [(18, 32), (4, 30)],
                         ids=["second-and-last-run", "parent-and-second-run"])
def test_the_first_failing_block_in_sample_order_is_raised(monkeypatch, first,
                                                           later):
    # rows `first` and `later` fail in different runs of 3 processes, with
    # different messages; one process meets `first` first
    messages = [
        overflow_message(monkeypatch, 1, *overflow_case({row: 1e150}))
        for row in (first, later)
    ]
    assert messages[0] != messages[1]
    model, ds = overflow_case({first: 1e150, later: 1e150})
    assert overflow_message(monkeypatch, 1, model, ds) == messages[0]
    assert overflow_message(monkeypatch, 3, model, ds) == messages[0]


def test_child_input_error_is_raised_with_its_type_and_message(monkeypatch):
    # an InputError raised in the second of two runs
    model, ds = overflow_case({})
    force_processes(monkeypatch, 2)
    real = attribution.attribute_block

    def failing_after(stack, xs, *args, **kwargs):
        if np.any(np.all(xs == ds.features[40], axis=1)):
            raise InputError("rejected row 40")
        return real(stack, xs, *args, **kwargs)

    monkeypatch.setattr(attribution, "attribute_block", failing_after)
    with pytest.raises(InputError, match="^rejected row 40$"):
        per_symbol_report(model, ds, AttributionConfig())
    assert_no_child_left()


def test_without_a_blas_pin_one_process_runs_every_block(monkeypatch):
    model, ds = overflow_case({})
    force_processes(monkeypatch, 3)
    forked = per_symbol_report(model, ds, AttributionConfig())

    def no_fork():
        raise AssertionError("forked without a BLAS pin")

    monkeypatch.setattr(attribution, "_blas_pin", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    alone = per_symbol_report(model, ds, AttributionConfig())
    assert np.array_equal(alone.matrix, forked.matrix)
    assert alone.counts == forked.counts


def test_process_count_gives_each_run_min_run_blocks():
    cpus = len(os.sched_getaffinity(0))
    assert attribution._processes(0) == 1
    assert attribution._processes(2 * MIN_RUN - 1) == 1
    assert attribution._processes(2 * MIN_RUN) == min(cpus, 2)
    assert attribution._processes(1000 * MIN_RUN) == cpus


def fork_map_case(fn, jobs):
    """fork_map(fn, jobs), checking afterwards that no child is left and
    that the BLAS thread count is restored."""
    threads = blas_threads()
    try:
        return attribution.fork_map(fn, jobs)
    finally:
        assert_no_child_left()
        assert blas_threads() == threads


@pytest.mark.parametrize("jobs", [[5], [5, -2], [5, -2, 7]],
                         ids=["1-job", "2-jobs", "3-jobs"])
def test_fork_map_returns_the_results_in_job_order(jobs):
    def fn(job):
        return {"job": job, "square": np.full(job % 3 + 1, job * job)}

    results = fork_map_case(fn, jobs)
    expected = [fn(job) for job in jobs]
    assert [r["job"] for r in results] == [e["job"] for e in expected]
    for result, want in zip(results, expected):
        np.testing.assert_array_equal(result["square"], want["square"])


def test_a_one_job_map_runs_on_one_blas_thread():
    pin = attribution._blas_pin()
    if pin is None:
        pytest.skip("no OpenBLAS thread count to pin")
    get_threads, set_threads = pin
    threads = get_threads()
    set_threads(2)  # so that the pin shows wherever the tests run
    try:
        assert fork_map_case(lambda job: blas_threads(), [0]) == [1]
        assert get_threads() == 2
    finally:
        set_threads(threads)


@pytest.mark.parametrize("failing", [(1, 2), (0, 2)],
                         ids=["two-children", "parent-and-child"])
def test_fork_map_raises_the_earliest_failing_job(failing):
    def fn(job):
        if job in failing:
            raise (KeyError if job == failing[0] else ValueError)(f"job {job}")
        return job

    with pytest.raises(KeyError, match=f"job {failing[0]}"):
        fork_map_case(fn, [0, 1, 2])


def test_fork_map_child_that_exits_without_reporting_raises():
    if attribution._blas_pin() is None:
        pytest.skip("fork_map forks only where OpenBLAS can be pinned")
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent and job == 1:
            os._exit(1)
        return job

    with pytest.raises(RuntimeError, match="exited with status 1"):
        fork_map_case(fn, [0, 1, 2])


def test_per_symbol_report_rejects_an_empty_dataset():
    model = build_model(5, 4, vocab_size=6, hidden_dim=7, seed=2)
    empty = Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int), ["a", "b", "c", "d"])
    with pytest.raises(InputError, match="^dataset must be non-empty$"):
        per_symbol_report(model, empty, AttributionConfig())
