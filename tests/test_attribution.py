import numpy as np
import pytest

from emlang.attribution import (
    AttributionConfig,
    per_symbol_report,
    integrated_gradients,
    neuron_conductance,
)
from emlang.classifier import TrainConfig, build_model, evaluate, train
from emlang.data import Dataset, SynthSpec, generate_synthetic
from emlang.errors import InputError, UnsupportedModelError
from emlang.nn import DenseLayer, softmax


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


def completeness_error(stack, x, m, target=1):
    config = AttributionConfig(riemann_steps=m, target_class=target)
    attrib = integrated_gradients(stack, x, config)
    gap = stack_output(stack, x)[target] - stack_output(stack, np.zeros(6))[target]
    return abs(attrib.sum() - gap) / max(1.0, abs(gap))


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
        errs = [
            completeness_error(
                random_relu_net(seed),
                np.random.default_rng(100 + seed).normal(size=6),
                m,
            )
            for seed in range(20)
        ]
        mean_errors.append(np.mean(errs))
    for coarse, fine in zip(mean_errors, mean_errors[1:]):
        assert fine <= coarse * 1.1


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


def test_probability_output_completeness():
    stack = random_relu_net(14)
    x = np.random.default_rng(15).normal(size=6)
    config = AttributionConfig(riemann_steps=600, target_class=0,
                               output="probability")
    attrib = integrated_gradients(stack, x, config)
    p_x = softmax(stack_output(stack, x)[None, :])[0, 0]
    p_base = softmax(stack_output(stack, np.zeros(6))[None, :])[0, 0]
    assert attrib.sum() == pytest.approx(p_x - p_base, abs=2e-3)


def test_default_target_is_predicted_class():
    stack = random_relu_net(16)
    x = np.random.default_rng(17).normal(size=6)
    predicted = int(np.argmax(stack_output(stack, x)))
    auto = integrated_gradients(stack, x, AttributionConfig(riemann_steps=50))
    explicit = integrated_gradients(
        stack, x, AttributionConfig(riemann_steps=50, target_class=predicted)
    )
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
    _, symbols = model.forward(one.features, mode="eval")
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
    _, symbols = model.forward(test_set.features, mode="eval")
    for (symbol, (block, share)) in zip(report.symbols, blocks):
        rows = [i for i, s in enumerate(symbols) if s == symbol]
        majority = np.bincount(test_set.labels[rows]).argmax()
        assert block == majority
        assert share > 1.0 / spec.num_classes


def test_per_symbol_report_rejects_baseline():
    baseline = build_model(4, 2, vocab_size=5, hidden_dim=4,
                           with_bottleneck=False, seed=21)
    ds = Dataset(np.zeros((2, 4)), [0, 1], ["a", "b"])
    with pytest.raises(UnsupportedModelError):
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
