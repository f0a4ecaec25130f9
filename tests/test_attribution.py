import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import attribution
from emlang.attribution import (
    BLOCK,
    MIN_RUN,
    OUTPUTS,
    AttributionConfig,
    attribute_block,
    attribution_stack,
    midpoint_rule,
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
from emlang.data import Dataset, SynthSpec, generate_synthetic, rescale, standardization
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
    for m in (1, 7, 300):
        config = AttributionConfig(riemann_steps=m, target_class=0)
        attrib = integrated_gradients(linear_stack(w), x, config)
        np.testing.assert_allclose(attrib, w * x, atol=1e-12)


def test_ig_zero_path_is_zero():
    stack = random_relu_net(0)
    x = np.random.default_rng(1).normal(size=6)
    config = AttributionConfig(baseline=x.copy(), riemann_steps=25, target_class=0)
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


def midpoint_ig(stack, x, baseline, m, target):
    """Reference: integrated gradients of the target logit by the midpoint
    rule at m points."""
    alphas, weights = midpoint_rule(m)
    points = baseline + alphas[:, None] * (x - baseline)
    return (x - baseline) * (weights @ logit_gradients(stack, points, target))


def gap_error(stack, x, attrib, target):
    gap = stack_output(stack, x)[target] - stack_output(stack, np.zeros(6))[target]
    return abs(attrib.sum() - gap) / max(1.0, abs(gap))


def completeness_error(stack, x, m, target=1):
    config = AttributionConfig(riemann_steps=m, target_class=target)
    return gap_error(stack, x, integrated_gradients(stack, x, config), target)


def test_ig_completeness_on_random_relu_nets():
    for seed in range(20):
        stack = random_relu_net(seed)
        x = np.random.default_rng(100 + seed).normal(size=6)
        assert completeness_error(stack, x, 300) <= 1e-3


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
def relu_paths(draw, zero_bias=False):
    """A random Glorot relu net (identity output layer), an input, a baseline
    (zero when zero_bias) and a target class."""
    dims = draw(st.lists(st.integers(1, 8), min_size=3, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    stack = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bias = np.zeros(fan_out) if zero_bias else rng.normal(size=fan_out) * scale
        last = i == len(dims) - 2
        stack.append(DenseLayer(glorot_uniform(rng, fan_out, fan_in), bias,
                                "identity" if last else "relu"))
    x = rng.normal(size=dims[0]) * scale
    baseline = np.zeros(dims[0]) if zero_bias else rng.normal(size=dims[0]) * scale
    target = draw(st.integers(0, dims[-1] - 1))
    return stack, x, baseline, target


def exact_ig(stack, x, baseline, target, riemann_steps=300):
    config = AttributionConfig(baseline=baseline, target_class=target,
                               riemann_steps=riemann_steps)
    return integrated_gradients(stack, x, config)


def assert_complete(stack, x, baseline, target, ig):
    f_x = stack_output(stack, x)[target]
    f_base = stack_output(stack, baseline)[target]
    scale = max(1.0, abs(f_x), abs(f_base), np.abs(ig).sum())
    assert abs(ig.sum() - (f_x - f_base)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(relu_paths())
def test_exact_ig_sums_to_the_logit_gap(path):
    stack, x, baseline, target = path
    ig = exact_ig(stack, x, baseline, target)
    assert_complete(stack, x, baseline, target, ig)
    # the logit path is exact, so the Riemann step count plays no part
    np.testing.assert_array_equal(ig, exact_ig(stack, x, baseline, target, 1))


@settings(max_examples=30, deadline=None)
@given(relu_paths())
def test_exact_conductance_of_a_layer_sums_to_exact_ig(path):
    stack, x, baseline, target = path
    ig = exact_ig(stack, x, baseline, target)
    scale = max(1.0, np.abs(ig).max())
    for layer_index, layer in enumerate(stack[:-1]):
        total = sum(
            neuron_conductance(
                stack, x,
                AttributionConfig(baseline=baseline, target_class=target,
                                  neuron=(layer_index, unit)),
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


def reference_attribution(stack, x, baseline, target, output, steps, neuron=None):
    """Per-sample reference: a taped dense forward and backward at each
    quadrature point, with a one-hot gradient at the cut. Returns the
    attribution and, per feature, the larger of the summed and the largest
    absolute term: the scale of its rounding error."""
    if output == "logit":
        alphas, weights = reference_segments(stack, x, baseline)
    else:
        alphas, weights = midpoint_rule(steps)
    tape = []
    h = stack_forward(stack, baseline + alphas[:, None] * (x - baseline), tape)
    if output == "logit":
        g = np.zeros_like(h)
        g[:, target] = 1.0
    else:
        probs = softmax(h)
        g = -probs * probs[:, [target]]
        g[:, target] += probs[:, target]
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
def relu_stacks(draw):
    """A random Glorot stack (relu or identity hidden layers, identity
    output), a few samples with one shared baseline, a target per sample,
    and a hidden cut layer with a unit per sample."""
    dims = draw(st.lists(st.integers(1, 8), min_size=3, max_size=5))
    hidden = draw(st.lists(st.sampled_from(["relu", "relu", "identity"]),
                           min_size=len(dims) - 2, max_size=len(dims) - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    stack = [
        DenseLayer(glorot_uniform(rng, fan_out, fan_in),
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
        got = attribute_block(stack, xs, baseline, targets, output, 16, cut,
                              cut_units)
        assert got.shape == xs.shape
        for i, x in enumerate(xs):
            neuron = None if cut is None else (cut, cut_units[i])
            want, scale = reference_attribution(stack, x, baseline, targets[i],
                                                output, 16, neuron)
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * BLOCK),
       st.sampled_from(OUTPUTS))
def test_per_symbol_report_matches_the_per_sample_reference(seed, n, output):
    rng = np.random.default_rng(seed)
    model = build_model(5, 3, vocab_size=6, hidden_dim=7, seed=seed % 1000)
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.out_dim)
    ds = Dataset(rng.normal(size=(n, 5)) * 2.0, np.zeros(n, dtype=int), ["a"])
    report = per_symbol_report(model, ds, AttributionConfig(riemann_steps=16,
                                                           output=output))
    logits, symbols = model.decode(ds.features)
    stack = attribution_stack(model)
    sums, scales = {}, {}
    for x, symbol, target in zip(ds.features, symbols, np.argmax(logits, axis=1)):
        want, scale = reference_attribution(
            stack, x, np.zeros(5), target, output, 16,
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
    config = AttributionConfig(output="probability", riemann_steps=32)
    calls = {
        "neuron_conductance": lambda: neuron_conductance(
            model, xb[0], replace(config, neuron=(len(model.sender) - 1, 0))
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
        config = AttributionConfig(riemann_steps=3, target_class=0, neuron=(0, j))
        attrib = neuron_conductance(stack, x, config)
        np.testing.assert_allclose(attrib, v[0, j] * w[j] * x, atol=1e-12)


def test_conductance_zero_path_is_zero():
    stack = random_relu_net(10)
    x = np.random.default_rng(11).normal(size=6)
    config = AttributionConfig(baseline=x.copy(), riemann_steps=10,
                               target_class=0, neuron=(0, 2))
    np.testing.assert_array_equal(neuron_conductance(stack, x, config),
                                  np.zeros(6))


def test_conductance_sums_to_integrated_gradients_over_layer():
    for seed in range(3):
        stack = random_relu_net(seed, in_dim=5, hidden=6, out_dim=2)
        x = np.random.default_rng(200 + seed).normal(size=5)
        ig = integrated_gradients(
            stack, x, AttributionConfig(riemann_steps=300, target_class=0)
        )
        total = np.zeros(5)
        for unit in range(6):
            config = AttributionConfig(riemann_steps=300, target_class=0,
                                       neuron=(0, unit))
            total += neuron_conductance(stack, x, config)
        denom = np.maximum(np.abs(ig), 1.0)
        assert np.max(np.abs(total - ig) / denom) <= 1e-3


def test_invalid_neuron_selectors():
    stack = random_relu_net(12)
    x = np.zeros(6)
    with pytest.raises(InputError):
        neuron_conductance(stack, x, AttributionConfig(target_class=0))
    with pytest.raises(InputError):
        neuron_conductance(
            stack, x, AttributionConfig(target_class=0, neuron=(1, 0))
        )  # final layer is not a hidden layer
    with pytest.raises(InputError):
        neuron_conductance(
            stack, x, AttributionConfig(target_class=0, neuron=(0, 99))
        )


def test_config_validation():
    with pytest.raises(InputError):
        AttributionConfig(riemann_steps=0).validate()
    with pytest.raises(InputError):
        AttributionConfig(output="odds").validate()
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_baseline_is_rejected(value):
    stack = random_relu_net(13)
    baseline = np.zeros(6)
    baseline[2] = value
    for target in (None, 0):
        config = AttributionConfig(baseline=baseline, target_class=target)
        with pytest.raises(InputError, match="non-finite"):
            integrated_gradients(stack, np.ones(6), config)


def test_probability_output_completeness():
    stack = random_relu_net(14)
    x = np.random.default_rng(15).normal(size=6)
    config = AttributionConfig(riemann_steps=600, target_class=0,
                               output="probability")
    attrib = integrated_gradients(stack, x, config)
    p_x = softmax(stack_output(stack, x)[None, :])[0, 0]
    p_base = softmax(stack_output(stack, np.zeros(6))[None, :])[0, 0]
    assert attrib.sum() == pytest.approx(p_x - p_base, abs=2e-3)


def symbol_model_case():
    """An untrained symbol model and a row on which the class `decode`
    predicts differs from the argmax of the identity-channel stack (true of
    more than half of random rows at this seed), with that class and the
    row's sender-output unit."""
    model = build_model(28, 4, seed=3)
    xs = np.random.default_rng(3).normal(size=(20, 28))
    logits, symbols = model.decode(xs)
    decoded = np.argmax(logits, axis=1)
    stacked = np.argmax(stack_forward(attribution_stack(model), xs), axis=1)
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
            (neuron_conductance, AttributionConfig(neuron=neuron)),
        ]:
            auto = attribute(model, x, config)
            explicit = attribute(model, x, replace(config, target_class=predicted))
            np.testing.assert_array_equal(auto, explicit)


def trained_symbol_model(seed=0):
    spec = SynthSpec(num_classes=3, block_size=4, train_samples=120,
                     val_samples=30, test_samples=30, noise_sigma=0.3,
                     seed=seed)
    train_set, val_set, test_set = generate_synthetic(spec)
    model = build_model(spec.feature_dim, 3, vocab_size=16, hidden_dim=16,
                        seed=seed)
    config = TrainConfig(max_epochs=120, patience=20, vocab_size=16, seed=seed)
    train(model, train_set, val_set, config)
    return spec, model, test_set


def test_per_symbol_report_single_sample():
    spec, model, test_set = trained_symbol_model(18)
    one = Dataset(test_set.features[:1], test_set.labels[:1],
                  test_set.class_names)
    config = AttributionConfig(riemann_steps=40)
    report = per_symbol_report(model, one, config)
    assert report.counts == [1]
    assert report.matrix.shape == (1, spec.feature_dim)
    _, symbols = model.decode(one.features)
    direct = neuron_conductance(
        model,
        one.features[0],
        AttributionConfig(riemann_steps=40,
                          neuron=(len(model.sender) - 1, int(symbols[0]))),
    )
    np.testing.assert_allclose(report.matrix[0], direct, atol=1e-12)


def test_per_symbol_report_matches_symbol_inventory():
    _, model, test_set = trained_symbol_model(19)
    report = per_symbol_report(model, test_set,
                               AttributionConfig(riemann_steps=40))
    inventory = evaluate(model, test_set).symbol_inventory
    assert report.symbols == [s.symbol for s in inventory]
    assert report.counts == [s.count for s in inventory]
    assert sum(report.counts) == test_set.num_samples


def test_per_symbol_report_finds_informative_blocks():
    spec, model, test_set = trained_symbol_model(20)
    accuracy = evaluate(model, test_set).accuracy
    assert accuracy >= 0.9, "fixture model must have learned the task"
    report = per_symbol_report(model, test_set,
                               AttributionConfig(riemann_steps=100))
    blocks = report.dominant_blocks(spec.block_size)
    # majority class per symbol determines the expected block
    _, symbols = model.decode(test_set.features)
    for (symbol, (block, share)) in zip(report.symbols, blocks):
        rows = [i for i, s in enumerate(symbols) if s == symbol]
        majority = np.bincount(test_set.labels[rows]).argmax()
        assert block == majority
        assert share > 1.0 / spec.num_classes


def test_per_symbol_report_rejects_baseline():
    baseline = build_model(4, 2, vocab_size=5, hidden_dim=4,
                           with_bottleneck=False, seed=21)
    ds = Dataset(np.zeros((2, 4)), [0, 1], ["a", "b"])
    with pytest.raises(InputError):
        per_symbol_report(baseline, ds, AttributionConfig())


def test_report_csv_format(tmp_path):
    spec, model, test_set = trained_symbol_model(22)
    report = per_symbol_report(model, test_set,
                               AttributionConfig(riemann_steps=20))
    path = tmp_path / "conductance.csv"
    report.write_csv(path)
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
          TrainConfig(max_epochs=40, patience=40, vocab_size=16, seed=23))
    model, stats, _, _ = load_checkpoint(
        save_checkpoint(model, stats, train_set.feature_names)
    )
    assert stats is not None
    return model, rescale(test_set, stats)


@pytest.mark.parametrize("output", OUTPUTS)
def test_report_bytes_do_not_depend_on_the_process_count(monkeypatch, output):
    model, test_set = standardized_checkpoint_model()
    config = AttributionConfig(riemann_steps=24, output=output)
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
    with np.errstate(over="ignore", invalid="ignore"):
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
