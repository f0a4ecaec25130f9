"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria
  1  gradient suite: analytic vs central finite differences, >= 100 instances
  2  sampler statistics: symbol frequencies vs softmax over 1e5 draws
  3  attribution correctness: closed forms exact; completeness at m=300
  4  synthetic benchmark: baseline and symbol model >= 95%, gap <= 3 points
  5  symbol parsimony: <= 12 unique symbols out of a vocabulary of 100
  6  attribution faithfulness: majority symbols point at informative blocks
  7  repro command is byte-deterministic
"""

import time

import numpy as np
import pytest

from emlang.attribution import (
    AttributionConfig,
    integrated_gradients,
    neuron_conductance,
    per_symbol_report,
)
from emlang.classifier import TrainConfig, build_model, evaluate, train
from emlang.cli import main as cli_main
from emlang.data import SynthSpec, generate_synthetic
from emlang.gumbel import GumbelSoftmaxSampler, hard_decode, noise_from_uniform
from emlang.nn import (
    DenseLayer,
    glorot_uniform,
    softmax,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
)
from gradcheck import central_diff, central_diff_inplace, grad_buffers, max_rel_err


def criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- criterion 1: gradient suite -------------------------------------------

def check_dense_instance(seed, activation):
    rng = np.random.default_rng(seed)
    in_dim = int(rng.integers(2, 9))
    out_dim = int(rng.integers(2, 9))
    batch = int(rng.integers(1, 5))
    while True:
        w = rng.normal(size=(out_dim, in_dim))
        b = rng.normal(size=out_dim)
        x = rng.normal(size=(batch, in_dim))
        if activation == "identity" or np.min(np.abs(x @ w.T + b)) > 1e-3:
            break
    probe = rng.normal(size=(batch, out_dim))
    layer = DenseLayer(w, b, activation=activation)
    tape = []
    stack_forward([layer], x, tape)
    grads = grad_buffers([layer])
    gi = stack_backward([layer], tape, probe, grads)
    (gw, gb), = grads

    def loss_of(wv=None, bv=None, xv=None):
        fresh = DenseLayer(w if wv is None else wv, b if bv is None else bv,
                           activation)
        return float(np.sum(probe * fresh.forward(x if xv is None else xv)))

    errs = [
        max_rel_err(gw, central_diff(lambda v: loss_of(wv=v), w)),
        max_rel_err(gb, central_diff(lambda v: loss_of(bv=v), b)),
        max_rel_err(gi, central_diff(lambda v: loss_of(xv=v), x)),
    ]
    return max(errs)


def check_loss_instance(seed):
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(2, 7))
    num_classes = int(rng.integers(2, 7))
    logits = rng.normal(size=(batch, num_classes))
    labels = rng.integers(0, num_classes, size=batch)
    _, grad = softmax_cross_entropy(logits, labels)
    fd = central_diff(lambda lv: softmax_cross_entropy(lv, labels)[0], logits)
    return max_rel_err(grad, fd)


def check_gumbel_instance(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    tau = float(rng.uniform(0.4, 2.0))
    logits = rng.normal(size=(1, k))
    noise = noise_from_uniform(rng.uniform(size=(1, k)))
    probe = rng.normal(size=(1, k))
    sampler = GumbelSoftmaxSampler(k, temperature=tau)
    analytic = sampler.relax_backward(sampler.relax(logits, noise), probe)

    def loss(lv):
        fresh = GumbelSoftmaxSampler(k, temperature=tau)
        return float(np.sum(probe * fresh.relax(lv, noise)[1]))

    return max_rel_err(analytic, central_diff(loss, logits))


def check_end_to_end_instance(seed):
    rng = np.random.default_rng(seed)
    noise = noise_from_uniform(rng.uniform(size=(2, 5)))
    labels = np.array([0, 2])
    for attempt in range(100):
        model = build_model(6, 3, vocab_size=5, hidden_dim=4,
                            seed=seed * 100 + attempt)
        x = rng.normal(size=(2, 6))
        logits, tape = model.forward(x, noise)
        margin = min(
            float(np.min(np.abs(z)))
            for layer, (_, z) in zip(model.layers(), tape.sender + tape.receiver)
            if layer.activation == "relu"
        )
        if margin > 1e-3:
            break
    _, dlogits = softmax_cross_entropy(logits, labels)
    grads = grad_buffers(model.layers())
    input_grad = model.backward(tape, dlogits, grads, input_grad=True)

    def loss():
        out, _ = model.forward(x, noise)
        return softmax_cross_entropy(out, labels)[0]

    worst = max_rel_err(input_grad, central_diff_inplace(loss, x))
    for layer, (gw, gb) in zip(model.layers(), grads):
        worst = max(worst, max_rel_err(gw, central_diff_inplace(loss, layer.weights)))
        worst = max(worst, max_rel_err(gb, central_diff_inplace(loss, layer.bias)))
    return worst


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    layer_instances = 0
    instances = 0
    worst_unit = 0.0
    for seed in range(50):
        worst_unit = max(worst_unit, check_dense_instance(seed, "relu"))
        worst_unit = max(worst_unit, check_dense_instance(1000 + seed, "identity"))
        layer_instances += 2
        instances += 2
    for seed in range(25):
        worst_unit = max(worst_unit, check_loss_instance(2000 + seed))
        worst_unit = max(worst_unit, check_gumbel_instance(3000 + seed))
        instances += 2
    worst_e2e = 0.0
    for seed in range(10):
        worst_e2e = max(worst_e2e, check_end_to_end_instance(seed))
        instances += 1
    elapsed = time.perf_counter() - start
    criterion(
        1,
        layer_instances >= 100 and instances >= 100
        and worst_unit <= 1e-6 and worst_e2e <= 1e-5 and elapsed < 30.0,
        f"{instances} instances ({layer_instances} layer-level), unit rel err "
        f"{worst_unit:.2e} (<=1e-6), end-to-end {worst_e2e:.2e} (<=1e-5), "
        f"{elapsed:.1f}s (<30s)",
    )


# --- criterion 2: sampler statistics ----------------------------------------

def test_criterion_2_sampler_statistics():
    start = time.perf_counter()
    n = 10**5
    worst_sigmas = 0.0
    worst_row_sum = 0.0
    for k in (2, 5, 10):
        rng = np.random.default_rng(500 + k)
        logits = rng.normal(size=k)
        sampler = GumbelSoftmaxSampler(k, temperature=1.0, seed=600 + k)
        noise_rng = np.random.default_rng(sampler.rng_seed)
        noise = noise_from_uniform(noise_rng.random((n, k)))
        relaxed = sampler.relax(np.tile(logits, (n, 1)), noise)[1]
        worst_row_sum = max(
            worst_row_sum, float(np.max(np.abs(relaxed.sum(axis=1) - 1.0)))
        )
        counts = np.bincount(hard_decode(relaxed), minlength=k)
        p = softmax(logits[None, :])[0]
        sigma = np.sqrt(n * p * (1.0 - p))
        worst_sigmas = max(worst_sigmas, float(np.max(np.abs(counts - n * p) / sigma)))
    elapsed = time.perf_counter() - start
    criterion(
        2,
        worst_sigmas <= 4.0 and worst_row_sum <= 1e-12 and elapsed < 10.0,
        f"frequency deviation {worst_sigmas:.2f} sigma (<=4), row-sum error "
        f"{worst_row_sum:.1e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )


# --- criterion 3: attribution correctness -----------------------------------

def glorot_relu_net(seed, in_dim=6, hidden=6, out_dim=3):
    rng = np.random.default_rng(seed)
    return [
        DenseLayer(glorot_uniform(rng, hidden, in_dim) * 0.5,
                   rng.normal(size=hidden) * 0.05, activation="relu"),
        DenseLayer(glorot_uniform(rng, out_dim, hidden) * 0.5,
                   rng.normal(size=out_dim) * 0.05, activation="identity"),
    ]


def stack_value(stack, x, target):
    h = np.asarray(x, dtype=np.float64)[None, :]
    for layer in stack:
        h = layer.forward(h)
    return float(h[0, target])


def test_criterion_3_attribution_correctness():
    start = time.perf_counter()
    # (a) closed forms on linear models
    rng = np.random.default_rng(42)
    w = rng.normal(size=(4, 5))
    v = rng.normal(size=(1, 4))
    x = rng.normal(size=5)
    linear = [DenseLayer(w[:1], np.zeros(1), "identity")]
    ig = integrated_gradients(linear, x, AttributionConfig(target_class=0))
    worst_exact = float(np.max(np.abs(ig - w[0] * x)))
    two_layer = [
        DenseLayer(w, np.zeros(4), "identity"),
        DenseLayer(v, np.zeros(1), "identity"),
    ]
    for j in range(4):
        cond = neuron_conductance(
            two_layer, x, (0, j), AttributionConfig(target_class=0),
        )
        worst_exact = max(worst_exact, float(np.max(np.abs(cond - v[0, j] * w[j] * x))))

    # (b) completeness on random relu nets
    worst_ig = 0.0
    worst_layer = 0.0
    for seed in range(20):
        stack = glorot_relu_net(seed)
        xr = np.random.default_rng(700 + seed).normal(size=6)
        config = AttributionConfig(target_class=1)
        ig = integrated_gradients(stack, xr, config)
        gap = stack_value(stack, xr, 1) - stack_value(stack, np.zeros(6), 1)
        worst_ig = max(worst_ig, abs(ig.sum() - gap) / max(1.0, abs(gap)))
    for seed in range(5):
        stack = glorot_relu_net(seed)
        xr = np.random.default_rng(800 + seed).normal(size=6)
        ig = integrated_gradients(
            stack, xr, AttributionConfig(target_class=0)
        )
        total = np.zeros(6)
        for unit in range(6):
            total += neuron_conductance(
                stack, xr, (0, unit), AttributionConfig(target_class=0),
            )
        worst_layer = max(
            worst_layer,
            float(np.max(np.abs(total - ig) / np.maximum(np.abs(ig), 1.0))),
        )
    elapsed = time.perf_counter() - start
    criterion(
        3,
        worst_exact <= 1e-12 and worst_ig <= 1e-3 and worst_layer <= 1e-3
        and elapsed < 30.0,
        f"closed-form error {worst_exact:.1e} (<=1e-12), IG completeness "
        f"{worst_ig:.1e} (<=1e-3), layer completeness {worst_layer:.1e} "
        f"(<=1e-3), {elapsed:.1f}s (<30s)",
    )


# --- criteria 4-5: synthetic benchmark --------------------------------------

@pytest.fixture(scope="module")
def default_task_run():
    start = time.perf_counter()
    train_set, val_set, test_set = generate_synthetic(SynthSpec(seed=0))
    reports = {}
    models = {}
    for kind in ("baseline", "el"):
        model = build_model(
            train_set.num_features, train_set.num_classes, vocab_size=100,
            hidden_dim=64, temperature=1.0, with_bottleneck=kind == "el", seed=0,
        )
        config = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=200,
                             patience=10, seed=0)
        train(model, train_set, val_set, config)
        models[kind] = model
        reports[kind] = evaluate(model, test_set)
    elapsed = time.perf_counter() - start
    return models, reports, elapsed


def test_criterion_4_synthetic_benchmark(default_task_run):
    _, reports, elapsed = default_task_run
    base, el = reports["baseline"], reports["el"]
    gap = abs(el["accuracy"] - base["accuracy"])
    criterion(
        4,
        base["accuracy"] >= 0.95 and el["accuracy"] >= 0.95
        and base["f1"] >= 0.95 and el["f1"] >= 0.95
        and gap <= 0.03 and elapsed < 300.0,
        f"baseline acc {base['accuracy']:.4f} f1 {base['f1']:.4f}, symbol model acc "
        f"{el['accuracy']:.4f} f1 {el['f1']:.4f}, gap {gap * 100:.2f} points "
        f"(<=3), {elapsed:.0f}s (<300s)",
    )


def test_criterion_5_symbol_parsimony(default_task_run):
    _, reports, _ = default_task_run
    symbols = reports["el"]["symbols"]
    criterion(
        5,
        0 < len(symbols) <= 12,
        f"{len(symbols)} unique symbols of a 100-symbol vocabulary (<=12): "
        f"{symbols}",
    )


# --- criterion 6: attribution faithfulness ----------------------------------

def test_criterion_6_attribution_faithfulness():
    spec = SynthSpec(noise_sigma=0.5, seed=0)
    train_set, val_set, test_set = generate_synthetic(spec)
    model = build_model(spec.feature_dim, spec.num_classes, vocab_size=100,
                        hidden_dim=64, seed=0)
    train(model, train_set, val_set, TrainConfig(seed=0))
    report = per_symbol_report(model, test_set, AttributionConfig())
    dominant = dict(zip(report.symbols, report.dominant_blocks(spec.block_size)))

    _, sample_symbols = model.decode(test_set.features)
    results = []
    for k in range(spec.num_classes):
        class_symbols = sample_symbols[test_set.labels == k]
        majority = int(np.bincount(class_symbols).argmax())
        block, share = dominant[majority]
        results.append((k, majority, block, share))
    ok = all(block == k for k, _, block, _ in results)
    criterion(
        6,
        ok,
        "majority symbol per class points at the class's informative block: "
        + "; ".join(
            f"class {k} -> symbol {s} -> block {b} (share {sh:.2f})"
            for k, s, b, sh in results
        ),
    )


# --- criterion 7: repro determinism -----------------------------------------

REPRO_FLAGS = [
    "--seed", "11",
    "--train-samples", "120", "--val-samples", "40", "--test-samples", "40",
    "--vocab", "16", "--hidden", "12", "--max-epochs", "40", "--patience", "40",
]


def test_criterion_7_repro_determinism(tmp_path):
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["repro", "--out", str(out), *REPRO_FLAGS])
        assert code == 0
        dirs.append(out)
    first_files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    same_tree = first_files == second_files
    diffs = [
        str(rel)
        for rel in first_files
        if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes()
    ]
    criterion(
        7,
        same_tree and not diffs and len(first_files) >= 10,
        f"{len(first_files)} files compared byte-for-byte across two runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )
