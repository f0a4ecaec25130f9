import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.classifier import ModelGraph
from emlang.errors import InputError, NumericalError
from emlang.gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform, one_hot
from emlang.nn import DenseLayer, softmax
from gradcheck import central_diff, max_rel_err

EULER_MASCHERONI = 0.5772156649015329


def test_noise_known_uniform_values():
    # -log(-log(1/e)) = 0 and -log(-log(e^-e)) = -1
    g = noise_from_uniform(np.array([np.exp(-1.0), np.exp(-np.e)]))
    np.testing.assert_allclose(g, [0.0, -1.0], atol=1e-12)


def test_noise_extreme_uniforms_stay_finite():
    g = noise_from_uniform(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(g))


def test_gumbel_noise_empirical_mean_is_euler_mascheroni():
    rng = np.random.default_rng(12345)
    draws = noise_from_uniform(rng.random(size=10**6))
    assert abs(draws.mean() - EULER_MASCHERONI) < 0.01


def test_forward_zero_noise_unit_temperature_is_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6))
    sampler = GumbelSoftmaxSampler(6, temperature=1.0)
    out = sampler.relax(logits, np.zeros_like(logits))[1]
    np.testing.assert_allclose(out, softmax(logits), atol=1e-12)


def test_forward_uniform_logits_any_temperature():
    for tau in (0.3, 1.0, 4.0):
        sampler = GumbelSoftmaxSampler(5, temperature=tau)
        out = sampler.relax(np.zeros((2, 5)), np.zeros((2, 5)))[1]
        np.testing.assert_allclose(out, np.full((2, 5), 0.2), atol=1e-12)


def test_forward_log_probabilities_recovered():
    sampler = GumbelSoftmaxSampler(2, temperature=1.0)
    logits = np.log(np.array([[0.7, 0.3]]))
    out = sampler.relax(logits, np.zeros((1, 2)))[1]
    np.testing.assert_allclose(out, [[0.7, 0.3]], atol=1e-12)


def test_forward_rows_on_open_simplex():
    sampler = GumbelSoftmaxSampler(10, temperature=1.0, seed=1)
    noise_rng = np.random.default_rng(sampler.rng_seed)
    rng = np.random.default_rng(2)
    for _ in range(50):
        noise = noise_from_uniform(noise_rng.random((8, 10)))
        out = sampler.relax(rng.normal(scale=3.0, size=(8, 10)), noise)[1]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)


def test_forward_rejects_nonfinite_logits():
    sampler = GumbelSoftmaxSampler(3)
    bad = np.array([[0.0, np.nan, 1.0]])
    with pytest.raises(NumericalError):
        sampler.relax(bad, np.zeros((1, 3)))


def test_forward_noise_shape_check():
    sampler = GumbelSoftmaxSampler(3)
    with pytest.raises(InputError):
        sampler.relax(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("tau", [1.0, 0.7])
def test_backward_matches_finite_differences(tau):
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = rng.normal(size=(1, 5))
        noise = noise_from_uniform(rng.uniform(size=(1, 5)))
        probe = rng.normal(size=(1, 5))
        sampler = GumbelSoftmaxSampler(5, temperature=tau)
        analytic = sampler.relax_backward(sampler.relax(logits, noise), probe)

        def loss(lv):
            fresh = GumbelSoftmaxSampler(5, temperature=tau)
            return float(np.sum(probe * fresh.relax(lv, noise)[1]))

        assert max_rel_err(analytic, central_diff(loss, logits)) <= 1e-6


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 8),
    log10_tau=st.floats(-3.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_relax_backward_matches_finite_differences_down_to_low_temperature(
    k, log10_tau, seed
):
    # logits and noise scaled by tau keep the softmax input O(1), so the
    # relaxation does not saturate; differentiate w.r.t. the unscaled logits.
    # The forward's rounding grows as 1/tau (log-probabilities of size log K
    # are divided by tau), so the difference step is 4e-4: at tau = 1e-3 a
    # 1e-5 step leaves ~7e-6 of rounding in the quotient, this one ~3e-7,
    # while its truncation error stays ~3e-8
    tau = 10.0 ** log10_tau
    rng = np.random.default_rng(seed)
    unscaled = rng.normal(size=(2, k))
    noise = tau * noise_from_uniform(rng.uniform(size=(2, k)))
    probe = rng.normal(size=(2, k))
    sampler = GumbelSoftmaxSampler(k, temperature=tau)
    analytic = tau * sampler.relax_backward(sampler.relax(tau * unscaled, noise), probe)

    def loss(uv):
        return float(np.sum(probe * sampler.relax(tau * uv, noise)[1]))

    assert max_rel_err(analytic, central_diff(loss, unscaled, step=4e-4)) <= 1e-6


def test_backward_annihilates_constant_upstream():
    # rows of the relaxation Jacobian sum to zero (outputs stay on the simplex)
    rng = np.random.default_rng(4)
    sampler = GumbelSoftmaxSampler(6, temperature=0.8, seed=5)
    noise = noise_from_uniform(np.random.default_rng(sampler.rng_seed).random((3, 6)))
    tape = sampler.relax(rng.normal(size=(3, 6)), noise)
    grad = sampler.relax_backward(tape, np.ones((3, 6)))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_gradient_magnitude_scales_as_inverse_temperature():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(1, 5))
    noise = noise_from_uniform(rng.uniform(size=(1, 5)))
    probe = rng.normal(size=(1, 5))
    norms = {}
    for tau in (1000.0, 2000.0):
        sampler = GumbelSoftmaxSampler(5, temperature=tau)
        tape = sampler.relax(logits, noise)
        norms[tau] = np.linalg.norm(sampler.relax_backward(tape, probe))
    assert norms[1000.0] / norms[2000.0] == pytest.approx(2.0, rel=0.01)


def test_hard_decode_examples():
    assert hard_decode(one_hot(np.array([7]), 9)).tolist() == [7]
    assert hard_decode(np.array([[0.2, 0.5, 0.3]])).tolist() == [1]
    # ties break to the lowest index
    assert hard_decode(np.array([[0.5, 0.5]])).tolist() == [0]


def channel_graph(k, seed=0):
    """Identity sender and receiver around a channel: the eval forward's
    input is the sender logits and its output the one-hot the receiver
    reads."""
    eye = DenseLayer(np.eye(k), np.zeros(k), "identity")
    return ModelGraph([eye], [eye], GumbelSoftmaxSampler(k, seed=seed))


def test_hard_eval_mode_emits_exact_one_hot():
    model = channel_graph(4)
    logits = np.array([[0.1, 2.0, -1.0, 0.5], [3.0, 0.0, 0.0, 0.0]])
    out, symbols = model.decode(logits)
    np.testing.assert_array_equal(out, one_hot(np.array([1, 0]), 4))
    assert symbols.tolist() == [1, 0]
    with pytest.raises(NumericalError, match="non-finite"):
        model.decode(np.array([[0.0, np.nan, 1.0, 0.0]]))


def test_hard_eval_is_deterministic():
    model = channel_graph(4, seed=0)
    logits = np.random.default_rng(7).normal(size=(5, 4))
    np.testing.assert_array_equal(model.decode(logits)[0],
                                  model.decode(logits)[0])


def test_symbol_frequencies_match_softmax():
    # argmax over noisy log-probs is an exact categorical draw
    n = 10**5
    for k in (2, 5, 10):
        rng = np.random.default_rng(100 + k)
        logits = rng.normal(size=k)
        sampler = GumbelSoftmaxSampler(k, temperature=1.0, seed=200 + k)
        noise_rng = np.random.default_rng(sampler.rng_seed)
        noise = noise_from_uniform(noise_rng.random((n, k)))
        relaxed = sampler.relax(np.tile(logits, (n, 1)), noise)[1]
        counts = np.bincount(hard_decode(relaxed), minlength=k)
        expected = softmax(logits[None, :])[0] * n
        sigma = np.sqrt(expected * (1.0 - expected / n))
        assert np.all(np.abs(counts - expected) <= 4.0 * sigma)


def test_temperature_limit_sharpens_toward_one_hot():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(1, 6))
    noise = noise_from_uniform(rng.uniform(size=(1, 6)))
    # ensure the combined score has a clear winner (gap >= 0.5)
    from emlang.nn import log_softmax

    score = log_softmax(logits) + noise
    top2 = np.sort(score[0])[-2:]
    assert top2[1] - top2[0] >= 0.5, "fixture must have a clear argmax gap"
    prev = 0.0
    for tau in (1.0, 0.5, 0.1, 0.01):
        sampler = GumbelSoftmaxSampler(6, temperature=tau)
        out = sampler.relax(logits, noise)[1]
        peak = out.max()
        assert peak >= prev
        prev = peak
    assert prev > 0.999


def test_sampler_constructor_validation():
    with pytest.raises(InputError):
        GumbelSoftmaxSampler(1)
    with pytest.raises(InputError):
        GumbelSoftmaxSampler(5, temperature=0.0)
    with pytest.raises(InputError):
        GumbelSoftmaxSampler(5).relax(np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(InputError, match="seed"):
        GumbelSoftmaxSampler(5, seed=-1)
