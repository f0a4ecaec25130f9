import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlang.attribution import (
    AttributionConfig,
    check_block_layout,
    integrated_gradients,
    neuron_conductance,
    per_symbol_report,
)
from emlang.classifier import (
    TrainConfig,
    build_model,
    confusion_matrix,
    evaluate,
    macro_f1,
    train,
)
from emlang.data import Dataset, SynthSpec
from emlang import classifier, nn
from emlang.errors import InputError
from emlang.gumbel import GumbelSoftmaxSampler, hard_decode, one_hot
from emlang.nn import (
    AdamState,
    DenseLayer,
    adam_step,
    as_labels,
    check_int,
    check_shape,
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
    with pytest.raises(InputError,
                       match=r"^input must have shape \(\*, 3\), got \(1, 4\)$"):
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
    start = params.copy()
    state = AdamState(params, np.zeros(3))
    for _ in range(5):
        adam_step(state)
    np.testing.assert_array_equal(params, start)
    np.testing.assert_array_equal(state.first_moment, np.zeros(3))
    np.testing.assert_array_equal(state.second_moment, np.zeros(3))


def test_adam_moments_decay_toward_zero_without_signal():
    grads = np.array([1.0, -1.0])
    state = AdamState(np.zeros(2), grads)
    adam_step(state)
    m1 = np.abs(state.first_moment).copy()
    v1 = state.second_moment.copy()
    grads[...] = 0.0
    adam_step(state)
    assert np.all(np.abs(state.first_moment) < m1)
    assert np.all(state.second_moment < v1)
    assert np.all(state.second_moment >= 0.0)


def test_adam_first_step_is_signed_learning_rate():
    # at t=1 the bias-corrected update is -lr * g / (|g| + eps) ~ -lr * sign(g)
    params = np.zeros(3)
    grads = np.array([0.5, -2.0, 10.0])
    state = AdamState(params, grads, learning_rate=1e-3)
    adam_step(state)
    np.testing.assert_allclose(params, -1e-3 * np.sign(grads), atol=1e-9)


def _out_of_place_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8, first=1):
    # the textbook update, allocating fresh arrays at every step, from zero
    # moments at step `first`
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grad_steps, start=first):
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

    # as `train` steps: each step's gradient is written into the bound vector
    flat, flat_grads = params.copy(), np.empty(size)
    state = AdamState(flat, flat_grads, learning_rate=lr)
    for g in grad_steps:
        flat_grads[...] = g
        assert adam_step(state) is None  # updated in place
    assert state.params is flat
    assert state.step_count == steps

    # one state per piece, each bound to views of one pair of vectors
    split, split_grads = params.copy(), np.empty(size)
    states = [AdamState(piece, piece_grads, learning_rate=lr) for piece, piece_grads
              in zip(np.split(split, cuts), np.split(split_grads, cuts))]
    for g in grad_steps:
        split_grads[...] = g
        for piece_state in states:
            adam_step(piece_state)
    assert np.array_equal(flat, split)
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

    # on the kernel where one loads, and on the numpy passes
    for compiled in (True, False) if shutil.which("cc") else (False,):
        params = np.zeros(19_240)  # the default study's parameter count
        grads = np.random.default_rng(8).normal(size=params.size)
        state = _state(params, grads, compiled)
        adam_step(state)
        tracemalloc.start()
        try:
            adam_step(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes // 2


def test_adam_default_learning_rate():
    state = AdamState(np.zeros(1), np.zeros(1))
    assert state.learning_rate == 1e-3


@pytest.mark.parametrize("params, grads", [
    ([0.0, 0.0, 0.0], np.zeros(3)),
    (np.zeros(3), [0.0, 0.0, 0.0]),
    (np.zeros(3, dtype=np.float32), np.zeros(3)),
    (np.zeros(3), np.zeros(3, dtype=np.float32)),
    (np.float64(0.0), np.float64(0.0)),
    (np.zeros(4), np.zeros(4)[None, :]),
    (np.zeros(3), np.zeros(4)),
], ids=["list-params", "list-grads", "float32-params", "float32-grads",
        "scalars", "2d-grads", "shape-mismatch"])
def test_adam_state_binds_only_float64_arrays_of_one_shape(params, grads):
    # adam_step updates the bound arrays in place and checks nothing, so a
    # list or a float32 array, which it would step a converted copy of, and
    # a gradient of another shape are rejected once, here
    message = "params and grads must be float64 arrays of one shape"
    with pytest.raises(InputError, match=f"^{message}$"):
        AdamState(params, grads)


def _compiled_adam():
    """ADAM_C's loop from the compiled library; skips where no `cc` runs."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    library = classifier._library()
    assert library is not None, "the compiled library did not load"
    return library.adam


def _state(params, grads, compiled, learning_rate=1e-3):
    """An AdamState on the compiled loop if `compiled`, else on the numpy
    passes."""
    state = AdamState(params, grads, learning_rate,
                      kernel=_compiled_adam() if compiled else None)
    assert (state.kernel is not None) == compiled
    return state


# gradients and parameters at the edges of float64
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300])


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_both_adam_paths_equal_the_textbook_update_bit_for_bit(compiled, data):
    # from step 1, and from step 351, so that steps run past t = 356, where
    # 1 - 0.9**t first rounds to 1.0
    first = data.draw(st.sampled_from([1, 351]), label="first")
    size = data.draw(st.integers(1, 12), label="size")
    steps = data.draw(st.integers(1, 10), label="steps")
    lr = data.draw(st.floats(1e-6, 1.0), label="lr")
    value = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), EXTREMES)
    params = data.draw(arrays(np.float64, size, elements=value), label="params")
    grad_steps = data.draw(arrays(np.float64, (steps, size), elements=value),
                           label="grads")

    stepped, grads = params.copy(), np.empty(size)
    state = _state(stepped, grads, compiled, learning_rate=lr)
    state.step_count = first - 1
    with np.errstate(all="ignore"):  # a 1e300 gradient squares to inf
        for g in grad_steps:
            grads[...] = g
            adam_step(state)
        ref_params, ref_m, ref_v = _out_of_place_adam(params, grad_steps, lr,
                                                      first=first)
    assert stepped.tobytes() == ref_params.tobytes()
    assert state.first_moment.tobytes() == ref_m.tobytes()
    assert state.second_moment.tobytes() == ref_v.tobytes()


def test_adam_kernel_loads_where_cc_runs():
    # CI fails here when the kernel silently falls back to the numpy path
    assert AdamState(np.zeros(3), np.zeros(3), kernel=_compiled_adam()).kernel is not None
    assert AdamState(np.zeros(3), np.zeros(3)).kernel is None  # given none


def test_the_kernel_keeps_its_vectors_alive():
    # it holds their addresses, so a vector the state no longer names must
    # live as long as the kernel steps it
    import gc
    import weakref

    params = np.zeros(3)
    alive = weakref.ref(params)
    state = _state(params, np.ones(3), compiled=True)
    state.params = params = None
    gc.collect()
    assert alive() is not None
    adam_step(state)
    assert np.array_equal(state.first_moment, np.full(3, 1.0 - 0.9))  # one step of g = 1


def _adam_probe():
    rng = np.random.default_rng(31)
    return rng.normal(size=40), rng.normal(size=(30, 40)) * 10.0 ** rng.integers(-8, 4, 40)


def _library_adam():
    """ADAM_C's loop from the compiled library, or None where none loads."""
    library = classifier._library()
    return library and library.adam


# each makes (params, grads, kernel) for a state that must run the numpy
# passes: the first three load no library, so the state is given no loop
def _no_cc(request, monkeypatch, tmp_path, params):
    request.getfixturevalue("cold_cache")
    monkeypatch.setenv("PATH", str(tmp_path))
    return params.copy(), np.empty_like(params), _library_adam()


def _failing_compile(request, monkeypatch, tmp_path, params):
    request.getfixturevalue("cold_cache")
    monkeypatch.setattr(nn, "ADAM_C", "this is not C\n")
    return params.copy(), np.empty_like(params), _library_adam()


def rounding_changed_adam_c():
    # lr / c1 first: one rounding differs, which the self-check must catch
    source = nn.ADAM_C.replace("((m[i] / c1) * lr)", "(m[i] * (lr / c1))")
    assert source != nn.ADAM_C
    return source


def _rounding_changed(request, monkeypatch, tmp_path, params):
    request.getfixturevalue("cold_cache")
    monkeypatch.setattr(nn, "ADAM_C", rounding_changed_adam_c())
    return params.copy(), np.empty_like(params), _library_adam()


def _strided(request, monkeypatch, tmp_path, params):
    stepped = np.zeros(2 * params.size)[::2]
    stepped[...] = params
    return stepped, np.empty_like(params), _compiled_adam()


@pytest.mark.parametrize("case", [_no_cc, _failing_compile, _rounding_changed, _strided],
                         ids=["no-cc", "compile-fails", "self-check-mismatch",
                              "strided-params"])
def test_adam_runs_numpy_passes_where_no_kernel_may(request, monkeypatch, tmp_path,
                                                    capfd, case):
    params, grad_steps = _adam_probe()
    stepped, grads, kernel = case(request, monkeypatch, tmp_path, params)
    state = AdamState(stepped, grads, learning_rate=0.01, kernel=kernel)
    assert state.kernel is None
    for g in grad_steps:
        grads[...] = g
        adam_step(state)
    ref_params, ref_m, ref_v = _out_of_place_adam(params, grad_steps, 0.01)
    assert stepped.tobytes() == ref_params.tobytes()
    assert state.first_moment.tobytes() == ref_m.tobytes()
    assert state.second_moment.tobytes() == ref_v.tobytes()
    assert capfd.readouterr() == ("", "")  # the compiler's output is captured


def test_adam_runs_numpy_passes_on_params_that_are_their_grads():
    # each step reads the gradient before it writes the parameters, so
    # stepping a vector bound as both equals stepping a separate copy whose
    # gradient is set to the parameters before each step
    params, _ = _adam_probe()
    shared = params.copy()
    state = AdamState(shared, shared, learning_rate=0.01, kernel=_library_adam())
    assert state.kernel is None
    apart, grads = params.copy(), np.empty_like(params)
    reference = AdamState(apart, grads, learning_rate=0.01)
    for _ in range(30):
        grads[...] = apart
        adam_step(state)
        adam_step(reference)
    assert shared.tobytes() == apart.tobytes()
    assert state.first_moment.tobytes() == reference.first_moment.tobytes()
    assert state.second_moment.tobytes() == reference.second_moment.tobytes()


def test_no_compiler_process_outlives_the_build(cold_cache, monkeypatch):
    import subprocess

    compilers = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            compilers.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    assert classifier._library() is not None or shutil.which("cc") is None
    assert all(cc.returncode is not None for cc in compilers)  # each one reaped


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_compile_that_outlasts_its_time_is_killed_with_what_it_started(
        cold_cache, monkeypatch, tmp_path):
    # a cc that starts a child and waits for it
    pid_file = tmp_path / "pid"
    (tmp_path / "cc").write_text(f"#!/bin/sh\nsleep 60 &\necho $! > {pid_file}\nwait\n")
    (tmp_path / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}:/bin:/usr/bin")
    monkeypatch.setattr(nn, "BUILD_SECONDS", 0.5)
    started = time.monotonic()
    assert classifier._library() is None
    assert time.monotonic() - started < 10
    stat = Path(f"/proc/{pid_file.read_text().strip()}/stat")
    # reaped by the time the build returns, not left a zombie of init's
    assert not stat.exists(), "the compiler's child is left in the process table"

    def running():
        try:
            return stat.read_text().rsplit(")", 1)[1].split()[0] not in "ZX"
        except FileNotFoundError:  # reaped
            return False

    deadline = time.monotonic() + 5
    while running():  # killed, so soon gone or a zombie
        assert time.monotonic() < deadline, "the compiler's child outlived the build"
        time.sleep(0.05)


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


def _three_layers():
    # hidden layers 0 and 1, 5 units in layer 0, and 3 classes
    return [_identity(6, 5), _identity(5, 4), _identity(4, 3)]


def _targeting(value):
    """An AttributionConfig whose target_class is set past its own check,
    so that the attribution's bound on it is the check that meets it."""
    config = AttributionConfig()
    object.__setattr__(config, "target_class", value)
    return config


def _conductance(neuron):
    return neuron_conductance(_three_layers(), np.ones(6), neuron,
                              AttributionConfig(target_class=0))


# (what checks it, the name in its message, the least value, the most value
# or None for no upper bound, a call that passes it the value)
INT_FIELDS = [
    ("SynthSpec", "num_classes", 2, None, lambda v: SynthSpec(num_classes=v)),
    ("SynthSpec", "block_size", 1, None, lambda v: SynthSpec(block_size=v)),
    ("SynthSpec", "train_samples", 4, None, lambda v: SynthSpec(train_samples=v)),
    ("SynthSpec", "val_samples", 4, None, lambda v: SynthSpec(val_samples=v)),
    ("SynthSpec", "test_samples", 4, None, lambda v: SynthSpec(test_samples=v)),
    ("SynthSpec", "seed", 0, None, lambda v: SynthSpec(seed=v)),
    ("TrainConfig", "batch_size", 1, None, lambda v: TrainConfig(batch_size=v)),
    ("TrainConfig", "max_epochs", 1, None,
     lambda v: TrainConfig(max_epochs=v, patience=1)),
    ("TrainConfig", "patience", 1, 200, lambda v: TrainConfig(patience=v)),
    ("TrainConfig", "seed", 0, None, lambda v: TrainConfig(seed=v)),
    ("build_model", "input_dim", 1, None, lambda v: build_model(v, 4, 5, 3)),
    ("build_model", "num_classes", 1, None, lambda v: build_model(28, v, 5, 3)),
    ("build_model", "seed", 0, None, lambda v: build_model(28, 4, 5, 3, seed=v)),
    ("build_model", "hidden", 1, None,
     lambda v: build_model(28, 4, 5, hidden_dim=v)),
    ("GumbelSoftmaxSampler", "vocab_size", 2, None, lambda v: GumbelSoftmaxSampler(v)),
    ("GumbelSoftmaxSampler", "sampler seed", 0, None,
     lambda v: GumbelSoftmaxSampler(5, seed=v)),
    ("check_block_layout", "block_size", 1, None,
     lambda v: check_block_layout(28, v)),
    ("AttributionConfig", "target_class", 0, None,
     lambda v: AttributionConfig(target_class=v)),
    ("_prepare", "target_class", 0, 2,
     lambda v: integrated_gradients(_three_layers(), np.ones(6), _targeting(v))),
    ("neuron_conductance", "neuron layer_index", 0, 1, lambda v: _conductance((v, 0))),
    ("neuron_conductance", "neuron unit", 0, 4, lambda v: _conductance((0, v))),
]


@pytest.mark.parametrize("owner, name, least, most, call", INT_FIELDS,
                         ids=[f"{owner}-{name.replace(' ', '_')}"
                              for owner, name, *_ in INT_FIELDS])
def test_every_count_seed_and_index_is_an_int_with_one_message(owner, name, least,
                                                               most, call):
    # a bool, a fraction, an integral float, a string or None is never read
    # as a count, a seed or an index, and nothing outside its range is;
    # a target_class of None means the predicted class
    bound = f">= {least}" if most is None else f"in [{least}, {most}]"
    outside = (least - 1,) if most is None else (least - 1, most + 1)
    for value in (True, 2.5, 2.0, "3", None, *outside):
        if value is None and name == "target_class":
            continue
        message = f"{name} must be an int {bound}, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call(value)
    # an int too long for repr is shown by its size
    message = f"{name} must be an int {bound}, got an int of 16610 bits"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(-10**5000)
    # numpy's ints are ints, up to the bound
    call(np.int64(4 if most is None else most))


# The smallest int that does not fit in a finite float64: it and every int
# above it round to 2**1024.
FLOAT64_OVERFLOW = 2**1024 - 2**970

# (what checks it, the name in its message, the range in its message, the
# nearest value outside the range, the least value inside it, a call that
# passes it the value)
REAL_FIELDS = [
    ("TrainConfig", "learning_rate", " > 0", 0.0, 5e-324,
     lambda v: TrainConfig(learning_rate=v)),
    ("SynthSpec", "mean_shift", "", -FLOAT64_OVERFLOW, -FLOAT64_OVERFLOW + 1,
     lambda v: SynthSpec(mean_shift=v)),
    ("SynthSpec", "noise_sigma", " >= 0", -5e-324, 0,
     lambda v: SynthSpec(noise_sigma=v)),
    ("GumbelSoftmaxSampler", "temperature", " > 0", 0.0, 5e-324,
     lambda v: GumbelSoftmaxSampler(5, temperature=v)),
    ("build_model", "temperature", " > 0", 0, 5e-324,
     lambda v: build_model(28, 4, 5, 3, temperature=v)),
    ("AttributionConfig", "baseline[1]", "", FLOAT64_OVERFLOW, FLOAT64_OVERFLOW - 1,
     lambda v: AttributionConfig(baseline=[0.0, v])),
]


@pytest.mark.parametrize("owner, name, bound, outside, least, call", REAL_FIELDS,
                         ids=[f"{owner}-{name}" for owner, name, *_ in REAL_FIELDS])
def test_every_real_number_is_a_finite_number_with_one_message(owner, name, bound,
                                                               outside, least, call):
    # a bool, a string or None is never read as a number, nor is anything
    # that is not a finite float64 (10**400 among them) or lies outside
    # the field's range
    for value in (True, "1", None, np.nan, np.inf, -np.inf, 10**400, outside):
        message = f"{name} must be a finite number{bound}, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call(value)
    # an int too long for repr is shown by its size
    message = f"{name} must be a finite number{bound}, got an int of 16610 bits"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(10**5000)
    # numpy's floats, plain ints and the range's edge are numbers
    for value in (np.float32(0.5), 3, least):
        call(value)


def test_a_real_setting_keeps_the_value_it_was_given():
    assert type(SynthSpec(mean_shift=2).mean_shift) is int
    assert type(SynthSpec(noise_sigma=np.float32(0.5)).noise_sigma) is np.float32
    assert type(TrainConfig(learning_rate=1).learning_rate) is int


def test_a_baseline_holds_numbers_only():
    # each entry is checked before any conversion, which would read "1" as
    # 1.0 and True as 1.0
    for baseline, got in ((["1", "2"], "'1'"), ((True, False), "True"),
                          (np.array([True, False]), repr(np.True_))):
        message = f"baseline[0] must be a finite number, got {got}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            AttributionConfig(baseline=baseline)
    config = AttributionConfig(baseline=[1, np.float32(0.5), np.int64(-2)])
    assert config.baseline == (1.0, 0.5, -2.0)
    assert all(type(value) is float for value in config.baseline)


def _identity(in_dim, out_dim):
    return DenseLayer(np.ones((out_dim, in_dim)), np.zeros(out_dim), "identity")


# (where it is checked, a call that passes it a wrong shape, the message)
SHAPE_SITES = [
    ("DenseLayer-weights", lambda: DenseLayer(np.ones(3), np.zeros(3)),
     "weights must have shape (*, *), got (3,)"),
    ("DenseLayer-bias", lambda: DenseLayer(np.ones((2, 3)), np.zeros(3)),
     "bias must have shape (2,), got (3,)"),
    ("DenseLayer.forward", lambda: _identity(3, 2).forward(np.ones((1, 4))),
     "input must have shape (*, 3), got (1, 4)"),
    ("stack_backward", lambda: layer_backward(_identity(2, 2), np.ones((3, 2)),
                                              np.ones((2, 2))),
     "upstream grad must have shape (3, 2), got (2, 2)"),
    ("softmax_cross_entropy-logits", lambda: softmax_cross_entropy(np.ones(3), [0]),
     "logits must have shape (*, *), got (3,)"),
    ("softmax_cross_entropy-labels",
     lambda: softmax_cross_entropy(np.ones((2, 3)), [0]),
     "labels must have shape (2,), got (1,)"),
    ("hard_decode", lambda: hard_decode(np.ones(3)),
     "logits must have shape (*, *), got (3,)"),
    ("relax-logits", lambda: GumbelSoftmaxSampler(5).relax(np.ones((2, 4)),
                                                          np.zeros((2, 4))),
     "logits must have shape (*, 5), got (2, 4)"),
    ("relax-noise", lambda: GumbelSoftmaxSampler(5).relax(np.ones((2, 5)),
                                                         np.zeros((2, 4))),
     "noise must have shape (2, 5), got (2, 4)"),
    ("ModelGraph._rows", lambda: build_model(6, 3, 5, 4).decode(np.ones((2, 5))),
     "input must have shape (*, 6), got (2, 5)"),
    ("Dataset-features", lambda: Dataset(np.ones(3), [0], ["a"]),
     "features must have shape (*, *), got (3,)"),
    ("Dataset-labels", lambda: Dataset(np.ones((2, 3)), [0], ["a"]),
     "labels must have shape (2,), got (1,)"),
    ("AttributionConfig-baseline", lambda: AttributionConfig(baseline=np.zeros((2, 2))),
     "baseline must have shape (*,), got (2, 2)"),
    ("_prepare-input",
     lambda: integrated_gradients([_identity(6, 3)], np.ones(5),
                                  AttributionConfig(target_class=0)),
     "input must have shape (6,), got (5,)"),
    ("_prepare-rows",
     lambda: per_symbol_report(build_model(6, 3, 5, 4),
                               Dataset(np.ones((2, 5)), [0, 1], ["a", "b"]),
                               AttributionConfig()),
     "input must have shape (*, 6), got (2, 5)"),
    ("_prepare-baseline",
     lambda: integrated_gradients([_identity(6, 3)], np.ones(6),
                                  AttributionConfig(baseline=np.zeros(5),
                                                    target_class=0)),
     "baseline must have shape (6,), got (5,)"),
]


@pytest.mark.parametrize("call, message", [site[1:] for site in SHAPE_SITES],
                         ids=[site[0] for site in SHAPE_SITES])
def test_every_array_shape_is_checked_with_one_message(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def _matches(shape, pattern):
    # the rule, restated: as many dimensions, and every given length equal
    return len(shape) == len(pattern) and all(
        want is None or want == length for length, want in zip(shape, pattern))


_lengths = st.integers(0, 3)


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(_lengths, max_size=4).map(tuple), data=st.data())
def test_check_shape_agrees_with_the_rule(shape, data):
    # patterns drawn from the shape itself, to match, or at random, to miss
    # by a length or a rank; the empty shape and the empty pattern included
    derived = st.tuples(*(st.sampled_from([length, None, length + 1])
                          for length in shape))
    anything = st.lists(st.one_of(st.none(), _lengths), max_size=4).map(tuple)
    pattern = data.draw(st.one_of(derived, anything), label="pattern")
    array = np.broadcast_to(0.0, shape)
    if _matches(shape, pattern):
        assert check_shape("x", array, pattern) is None
    else:
        got = re.escape(str(shape))
        with pytest.raises(InputError, match=rf"^x must have shape \(.*\), got {got}$"):
            check_shape("x", array, pattern)


def _relabelled(split, label):
    # a split whose second label is set after construction, past the
    # Dataset's own check
    ds = Dataset(np.zeros((2, 6)), [0, 1], ["a", "b", "c"], split=split)
    ds.labels[1] = label
    return ds


def _train_on(train_set, val_set):
    return train(build_model(6, 3, 5, 4), train_set, val_set,
                 TrainConfig(max_epochs=1, patience=1))


# (where it is checked, a call that passes it a label outside its classes,
# the message)
LABEL_SITES = [
    ("Dataset", lambda: Dataset(np.zeros((2, 3)), [0, 2], ["a", "b"]),
     "labels must be ints in [0, 1], got 2"),
    ("softmax_cross_entropy", lambda: softmax_cross_entropy(np.zeros((2, 3)), [0, -1]),
     "labels must be ints in [0, 2], got -1"),
    ("_check_split-train",
     lambda: _train_on(_relabelled("train", 3), _relabelled("val", 0)),
     "train labels must be ints in [0, 2], got 3"),
    ("_check_split-val",
     lambda: _train_on(_relabelled("train", 0), _relabelled("val", -1)),
     "val labels must be ints in [0, 2], got -1"),
    ("_check_split-evaluate",
     lambda: evaluate(build_model(6, 3, 5, 4), _relabelled("test", 3)),
     "test labels must be ints in [0, 2], got 3"),
    ("confusion_matrix-labels", lambda: confusion_matrix([0, 2], [0, 1], 2),
     "labels must be ints in [0, 1], got 2"),
    ("confusion_matrix-predictions", lambda: confusion_matrix([0, 1], [-1, 1], 2),
     "predictions must be ints in [0, 1], got -1"),
    ("one_hot", lambda: one_hot([0, 3], 3), "indices must be ints in [0, 2], got 3"),
    # labels that numpy cannot read as a 1-d array
    ("Dataset-ragged", lambda: Dataset(np.zeros((2, 3)), [[0], 1], ["a", "b"]),
     "labels must be ints in [0, 1], got an input numpy cannot read as an array"),
    ("softmax_cross_entropy-ragged",
     lambda: softmax_cross_entropy(np.zeros((2, 3)), [[0], 1]),
     "labels must be ints in [0, 2], got an input numpy cannot read as an array"),
    ("one_hot-scalar", lambda: one_hot(1, 3), "indices must have shape (*,), got ()"),
]


@pytest.mark.parametrize("call, message", [site[1:] for site in LABEL_SITES],
                         ids=[site[0] for site in LABEL_SITES])
def test_every_label_array_is_checked_with_one_message(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


# (where it is read, a call that passes it a float input numpy cannot read as
# an array, the message): each raised numpy's own ValueError
RAGGED_FLOAT_SITES = [
    ("AttributionConfig-baseline", lambda: AttributionConfig(baseline=[[0.0], 1.0]),
     "baseline must be numbers, got an input numpy cannot read as an array"),
    ("Dataset-features", lambda: Dataset([[0.0, 1.0], [2.0]], [0, 1], ["a", "b"]),
     "features must be numbers, got an input numpy cannot read as an array"),
    ("_prepare-input", lambda: integrated_gradients(build_model(2, 2, 3, 2), [[0.0], 1.0],
                                                    AttributionConfig()),
     "input must be numbers, got an input numpy cannot read as an array"),
]


@pytest.mark.parametrize("call, message", [site[1:] for site in RAGGED_FLOAT_SITES],
                         ids=[site[0] for site in RAGGED_FLOAT_SITES])
def test_a_float_input_numpy_cannot_read_is_an_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


# each of these truncated its labels or indices without a word, read a bool
# or a string as a class, or raised OverflowError
@pytest.mark.parametrize("call, message", [
    (lambda: Dataset(np.zeros((2, 3)), [0.9, 1.7], ["a", "b"]),
     "labels must be ints in [0, 1], got 0.9"),
    (lambda: Dataset(np.zeros((2, 3)), [True, False], ["a", "b"]),
     "labels must be ints in [0, 1], got True"),
    (lambda: Dataset(np.zeros((2, 3)), ["1", "0"], ["a", "b"]),
     "labels must be ints in [0, 1], got '1'"),
    (lambda: Dataset(np.zeros((2, 3)), [2**70, 0], ["a", "b"]),
     f"labels must be ints in [0, 1], got {2**70}"),
    (lambda: softmax_cross_entropy(np.zeros((2, 3)), [0.5, 2.9]),
     "labels must be ints in [0, 2], got 0.5"),
    (lambda: confusion_matrix([0.5, 1.2], [0, 1], 2),
     "labels must be ints in [0, 1], got 0.5"),
    (lambda: macro_f1([0.5, 1.2], [0, 1], 2), "labels must be ints in [0, 1], got 0.5"),
    (lambda: one_hot([0.7, 2.2], 3), "indices must be ints in [0, 2], got 0.7"),
], ids=["Dataset-fraction", "Dataset-bool", "Dataset-string", "Dataset-beyond-int64",
        "softmax_cross_entropy-fraction", "confusion_matrix-fraction",
        "macro_f1-fraction", "one_hot-fraction"])
def test_labels_are_never_truncated_or_read_from_bools_or_strings(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def _first_outside(values, num_classes):
    """The rule for labels, restated: None if values are empty or are ints
    of one numpy integer dtype each in [0, num_classes), else the first
    entry outside the range, or, for values of any other kind, the first
    entry. A list holds such ints when each is a Python int, not a bool,
    that fits in int64."""
    if isinstance(values, np.ndarray):
        entries = values.tolist()
        integral = np.issubdtype(values.dtype, np.integer)
    else:
        entries = values
        integral = all(type(v) is int and -2**63 <= v < 2**63 for v in entries)
    if not integral:
        return entries[0] if entries else None
    return next((v for v in entries if not 0 <= v < num_classes), None)


# numpy reads a list that holds an int in [2**63, 2**64) as uint64, or as
# float64 beside a negative int, so the lists of ints draw none
_python_ints = (st.integers(-2**63, 2**63 - 1) | st.integers(-1, 4)
                | st.integers(2**64, 2**70) | st.integers(-2**70, -2**63 - 1))
_label_inputs = st.one_of(
    arrays(st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]),
           st.integers(0, 4)),
    arrays(np.float64, st.integers(0, 4), elements=st.floats(-1, 4)),
    arrays(np.bool_, st.integers(0, 4)),
    arrays(np.dtype("U2"), st.integers(0, 4)),
    st.lists(_python_ints, max_size=4),
    st.lists(st.booleans(), max_size=4),
    st.lists(st.sampled_from(["0", "1", "x"]), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(values=_label_inputs, num_classes=st.integers(1, 5))
def test_as_labels_agrees_with_the_rule(values, num_classes):
    first = _first_outside(values, num_classes)
    if first is None:
        labels = as_labels("y", values, num_classes)
        assert labels.dtype == np.int64
        assert labels.tolist() == list(values)
    else:
        message = f"y must be ints in [0, {num_classes - 1}], got {first!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            as_labels("y", values, num_classes)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(st.integers(-2**70, 2**70), st.integers(-3, 8),
                       st.integers(-3, 8).map(np.int64), st.floats(-3, 8),
                       st.booleans(), st.text(max_size=2), st.none()),
       least=st.integers(-2, 3), most=st.integers(-2, 6))
def test_bounded_check_int_agrees_with_the_rule(value, least, most):
    # the rule, restated: an int, numpy's included and a bool not, in
    # [least, most]
    if isinstance(value, (int, np.integer)) and type(value) is not bool \
            and least <= value <= most:
        assert check_int("k", value, least, most) is None
    else:
        message = f"k must be an int in [{least}, {most}], got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            check_int("k", value, least, most)
