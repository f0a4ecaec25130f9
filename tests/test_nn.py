import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlang.attribution import AttributionConfig, check_block_layout
from emlang.classifier import TrainConfig, build_model
from emlang.data import SynthSpec
from emlang.errors import InputError
from emlang.gumbel import GumbelSoftmaxSampler
from emlang.nn import (
    AdamState,
    DenseLayer,
    adam_step,
    glorot_uniform,
    log_softmax,
    softmax,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
)
from gradcheck import central_diff, grad_buffers, max_rel_err


def layer_backward(layer, x, upstream):
    """(input_grad, weight_grad, bias_grad) of one layer through the tape."""
    tape = []
    stack_forward([layer], np.asarray(x, dtype=np.float64), tape)
    grads = grad_buffers([layer])
    input_grad = stack_backward([layer], tape, upstream, grads)
    return input_grad, grads[0][0], grads[0][1]


def test_dense_forward_identity_map():
    layer = DenseLayer(np.eye(2), np.zeros(2), activation="identity")
    out = layer.forward(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_dense_forward_hand_example():
    # [[1,1],[1,-1]] @ (3,5) = (8,-2), relu clamps to (8,0)
    layer = DenseLayer([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0], activation="relu")
    out = layer.forward([[3.0, 5.0]])
    np.testing.assert_array_equal(out, [[8.0, 0.0]])


def test_dense_forward_zero_input_zero_bias_relu():
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.normal(size=(4, 3)), np.zeros(4), activation="relu")
    out = layer.forward(np.zeros((2, 3)))
    np.testing.assert_array_equal(out, np.zeros((2, 4)))


def test_dense_forward_shape_mismatch_names_both_shapes():
    layer = DenseLayer(np.ones((2, 3)), np.zeros(2), activation="identity")
    with pytest.raises(InputError, match=r"\(1, 4\).*\(2, 3\)"):
        layer.forward(np.ones((1, 4)))


def test_dense_construction_validation():
    with pytest.raises(InputError):
        DenseLayer(np.ones((2, 3)), np.zeros(3), activation="identity")
    with pytest.raises(InputError):
        DenseLayer(np.ones((2, 3)), np.zeros(2), activation="tanh")


def test_dense_backward_identity_adjoint():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 4))
    layer = DenseLayer(w, np.zeros(3), activation="identity")
    x = rng.normal(size=(5, 4))
    g = rng.normal(size=(5, 3))
    input_grad, _, _ = layer_backward(layer, x, g)
    np.testing.assert_allclose(input_grad, g @ w, rtol=1e-12)


def test_dense_backward_dead_relu_zero_grads():
    layer = DenseLayer(np.ones((2, 2)), np.array([-10.0, -10.0]), activation="relu")
    input_grad, weight_grad, bias_grad = layer_backward(
        layer, np.array([[0.5, 0.5]]), np.ones((1, 2))
    )
    assert not input_grad.any()
    assert not weight_grad.any()
    assert not bias_grad.any()


def test_dense_backward_upstream_shape_check():
    layer = DenseLayer(np.eye(2), np.zeros(2), activation="identity")
    with pytest.raises(InputError):
        layer_backward(layer, np.ones((3, 2)), np.ones((2, 2)))


def _layer_fd_check(seed, activation):
    rng = np.random.default_rng(seed)
    in_dim = int(rng.integers(2, 9))
    out_dim = int(rng.integers(2, 9))
    batch = int(rng.integers(1, 5))
    while True:
        w = rng.normal(size=(out_dim, in_dim))
        b = rng.normal(size=out_dim)
        x = rng.normal(size=(batch, in_dim))
        z = x @ w.T + b
        # keep pre-activations away from the relu kink so finite
        # differences stay on one linear piece
        if activation == "identity" or np.min(np.abs(z)) > 1e-3:
            break
    probe = rng.normal(size=(batch, out_dim))
    layer = DenseLayer(w, b, activation=activation)
    input_grad, weight_grad, bias_grad = layer_backward(layer, x, probe)

    def loss_wrt_input(xv):
        return float(np.sum(probe * DenseLayer(w, b, activation).forward(xv)))

    def loss_wrt_weights(wv):
        return float(np.sum(probe * DenseLayer(wv, b, activation).forward(x)))

    def loss_wrt_bias(bv):
        return float(np.sum(probe * DenseLayer(w, bv, activation).forward(x)))

    assert max_rel_err(input_grad, central_diff(loss_wrt_input, x)) <= 1e-6
    assert max_rel_err(weight_grad, central_diff(loss_wrt_weights, w)) <= 1e-6
    assert max_rel_err(bias_grad, central_diff(loss_wrt_bias, b)) <= 1e-6


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_dense_backward_matches_finite_differences(activation):
    for seed in range(10):
        _layer_fd_check(seed, activation)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = softmax(rng.normal(scale=5.0, size=(6, 9)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)


def test_softmax_stable_for_large_logits():
    p = softmax(np.array([[1e4, 1e4 - 1.0]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 5))
    np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)


def test_cross_entropy_certain_prediction_is_zero():
    logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    loss, _ = softmax_cross_entropy(logits, [0, 1])
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_logits_is_log_num_classes():
    loss, _ = softmax_cross_entropy(np.zeros((3, 4)), [0, 1, 3])
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=(5, 6))
        labels = rng.integers(0, 6, size=5)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = central_diff(
            lambda lv: softmax_cross_entropy(lv, labels)[0], logits
        )
        assert max_rel_err(grad, fd) <= 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((2, 3)), [0, 3])
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((2, 3)), [-1, 0])


def test_cross_entropy_empty_batch():
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((0, 3)), [])


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState(params)
    out = params
    for _ in range(5):
        out = adam_step(state, out, np.zeros(3))
    np.testing.assert_array_equal(out, params)
    np.testing.assert_array_equal(state.first_moment, np.zeros(3))
    np.testing.assert_array_equal(state.second_moment, np.zeros(3))


def test_adam_moments_decay_toward_zero_without_signal():
    params = np.zeros(2)
    state = AdamState(params)
    params = adam_step(state, params, np.array([1.0, -1.0]))
    m1 = np.abs(state.first_moment).copy()
    v1 = state.second_moment.copy()
    adam_step(state, params, np.zeros(2))
    assert np.all(np.abs(state.first_moment) < m1)
    assert np.all(state.second_moment < v1)
    assert np.all(state.second_moment >= 0.0)


def test_adam_first_step_is_signed_learning_rate():
    # at t=1 the bias-corrected update is -lr * g / (|g| + eps) ~ -lr * sign(g)
    params = np.zeros(3)
    grads = np.array([0.5, -2.0, 10.0])
    state = AdamState(params, learning_rate=1e-3)
    out = adam_step(state, params, grads)
    np.testing.assert_allclose(out, -1e-3 * np.sign(grads), atol=1e-9)


def _out_of_place_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    # the textbook update, allocating fresh arrays at every step
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grad_steps, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_adam_on_flat_vector_equals_per_tensor_steps(data):
    size = data.draw(st.integers(1, 30), label="size")
    steps = data.draw(st.integers(1, 8), label="steps")
    cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=5), label="cuts"))
    lr = data.draw(st.floats(1e-6, 1.0), label="lr")
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    params = data.draw(arrays(np.float64, size, elements=finite), label="params")
    grad_steps = data.draw(arrays(np.float64, (steps, size), elements=finite),
                           label="grads")

    flat = params.copy()
    state = AdamState(flat, learning_rate=lr)
    for g in grad_steps:
        assert adam_step(state, flat, g) is flat  # updated in place
    assert state.step_count == steps

    pieces = [p.copy() for p in np.split(params, cuts)]
    states = [AdamState(p, learning_rate=lr) for p in pieces]
    for g in grad_steps:
        for piece, piece_state, piece_grad in zip(pieces, states, np.split(g, cuts)):
            adam_step(piece_state, piece, piece_grad)
    assert np.array_equal(flat, np.concatenate(pieces))
    assert np.array_equal(state.first_moment,
                          np.concatenate([s.first_moment for s in states]))
    assert np.array_equal(state.second_moment,
                          np.concatenate([s.second_moment for s in states]))

    ref_params, ref_m, ref_v = _out_of_place_adam(params, grad_steps, lr)
    assert np.array_equal(flat, ref_params)
    assert np.array_equal(state.first_moment, ref_m)
    assert np.array_equal(state.second_moment, ref_v)


def test_adam_step_allocates_no_parameter_sized_temporary():
    import tracemalloc

    params = np.zeros(19_240)  # the default study's parameter count
    grads = np.random.default_rng(8).normal(size=params.size)
    state = AdamState(params)
    adam_step(state, params, grads)
    tracemalloc.start()
    try:
        adam_step(state, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes // 2


def test_adam_default_learning_rate():
    state = AdamState(np.zeros(1))
    assert state.learning_rate == 1e-3


def test_adam_shape_mismatch():
    state = AdamState(np.zeros(3))
    with pytest.raises(InputError):
        adam_step(state, np.zeros(4), np.zeros(4))
    with pytest.raises(InputError):
        adam_step(state, np.zeros(3), np.zeros(4))


def test_operations_deterministic():
    rng = np.random.default_rng(6)
    layer = DenseLayer(rng.normal(size=(3, 3)), rng.normal(size=3), "relu")
    x = rng.normal(size=(4, 3))
    first = layer.forward(x)
    second = layer.forward(x)
    np.testing.assert_array_equal(first, second)
    logits = rng.normal(size=(4, 3))
    labels = [0, 1, 2, 1]
    loss_a, grad_a = softmax_cross_entropy(logits, labels)
    loss_b, grad_b = softmax_cross_entropy(logits, labels)
    assert loss_a == loss_b
    np.testing.assert_array_equal(grad_a, grad_b)


def test_glorot_bounds_and_determinism():
    w1 = glorot_uniform(np.random.default_rng(7), 8, 4)
    w2 = glorot_uniform(np.random.default_rng(7), 8, 4)
    np.testing.assert_array_equal(w1, w2)
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w1) <= limit)


def test_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(8)
    layer = DenseLayer(rng.normal(size=(5, 5)) * 10, rng.normal(size=5), "relu")
    out = layer.forward(rng.normal(size=(6, 5)) * 10)
    assert np.all(np.isfinite(out))
    loss, grad = softmax_cross_entropy(out, rng.integers(0, 5, size=6))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


# (what checks it, the name in its message, the least value, a call that
# passes it the value)
INT_FIELDS = [
    ("SynthSpec", "num_classes", 2, lambda v: SynthSpec(num_classes=v)),
    ("SynthSpec", "block_size", 1, lambda v: SynthSpec(block_size=v)),
    ("SynthSpec", "train_samples", 4, lambda v: SynthSpec(train_samples=v)),
    ("SynthSpec", "val_samples", 4, lambda v: SynthSpec(val_samples=v)),
    ("SynthSpec", "test_samples", 4, lambda v: SynthSpec(test_samples=v)),
    ("SynthSpec", "seed", 0, lambda v: SynthSpec(seed=v)),
    ("TrainConfig", "batch_size", 1, lambda v: TrainConfig(batch_size=v)),
    ("TrainConfig", "max_epochs", 1, lambda v: TrainConfig(max_epochs=v, patience=1)),
    ("TrainConfig", "patience", 1, lambda v: TrainConfig(patience=v)),
    ("TrainConfig", "seed", 0, lambda v: TrainConfig(seed=v)),
    ("build_model", "input_dim", 1, lambda v: build_model(v, 4, 5, 3)),
    ("build_model", "num_classes", 1, lambda v: build_model(28, v, 5, 3)),
    ("build_model", "seed", 0, lambda v: build_model(28, 4, 5, 3, seed=v)),
    ("build_model", "hidden", 1, lambda v: build_model(28, 4, 5, hidden_dim=v)),
    ("GumbelSoftmaxSampler", "vocab_size", 2, lambda v: GumbelSoftmaxSampler(v)),
    ("GumbelSoftmaxSampler", "sampler seed", 0,
     lambda v: GumbelSoftmaxSampler(5, seed=v)),
    ("check_block_layout", "block_size", 1, lambda v: check_block_layout(28, v)),
    ("AttributionConfig", "target_class", 0,
     lambda v: AttributionConfig(target_class=v)),
]


@pytest.mark.parametrize("owner, name, least, call", INT_FIELDS,
                         ids=[f"{owner}-{name.replace(' ', '_')}"
                              for owner, name, *_ in INT_FIELDS])
def test_every_count_seed_and_index_is_an_int_with_one_message(owner, name, least,
                                                               call):
    # a bool, a fraction, an integral float, a string or None is never read
    # as a count, a seed or an index, and nothing below the least value is;
    # a target_class of None means the predicted class
    for value in (True, 2.5, 2.0, "3", None, least - 1):
        if value is None and name == "target_class":
            continue
        message = f"{name} must be an int >= {least}, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call(value)
    # numpy's ints are ints
    call(np.int64(4))
