"""Central finite-difference oracles shared by the gradient tests.

These deliberately avoid the package's backward passes: they re-run the
forward computation with perturbed inputs, so agreement is an independent
check of the analytic gradients.
"""

import numpy as np

FD_STEP = 1e-5

# Relative error floored at 1e-3 in the denominator: below that magnitude the
# finite-difference truncation noise (~1e-10) dominates a pure ratio.
REL_FLOOR = 1e-3


def central_diff(f, x, step=FD_STEP):
    """Gradient of scalar f at x via central differences on a private copy."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f(x)
        x[idx] = orig - step
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return grad


def central_diff_inplace(f, arr, step=FD_STEP):
    """Gradient of scalar f() w.r.t. arr, perturbing arr in place.

    For parameters living inside a model: f is a no-argument closure that
    re-runs the forward pass, reading arr wherever the model holds it.
    """
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        fp = f()
        arr[idx] = orig - step
        fm = f()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric, floor=REL_FLOOR):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def min_abs_preactivation(layers, x):
    """Smallest |pre-activation| over the relu layers of a stack; instances
    are resampled when this is tiny so finite differences never step across
    a relu kink."""
    smallest = np.inf
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        z = h @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            smallest = min(smallest, float(np.min(np.abs(z))))
            h = np.maximum(z, 0.0)
        else:
            h = z
    return smallest


def grad_buffers(layers):
    """One (weight, bias) gradient pair per layer, for the backward passes
    that write each layer's gradients into arrays the caller owns. They
    start as NaN, so a gradient the backward fails to write shows."""
    return [(np.full_like(layer.weights, np.nan), np.full_like(layer.bias, np.nan))
            for layer in layers]
