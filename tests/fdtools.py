"""The tests' finite-difference oracle, written independently of
``jm3d.autodiff.grad_check`` so that a fault in the engine's own check
cannot hide a fault in a backward rule."""

import numpy as np

from jm3d import autodiff as ad


def fd_grads(loss_of, values, eps=1e-6):
    """Central-difference gradient of ``loss_of(values) -> float`` for every
    array in ``values``.  ``loss_of`` must read the current arrays; they
    are bumped in place and restored.
    """
    numeric = {}
    for name in sorted(values):
        flat = values[name].reshape(-1)
        num = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_of(values)
            flat[i] = orig - eps
            lo = loss_of(values)
            flat[i] = orig
            num[i] = (hi - lo) / (2.0 * eps)
        numeric[name] = num.reshape(values[name].shape)
    return numeric


def max_rel(a, b):
    """Worst |a - b| / max(|a|, |b|, 1e-8) over all coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


def max_rel_vs_fd(build, values, eps=1e-6):
    """Worst relative disagreement between the tape's gradients and central
    differences, over every coordinate of every array in ``values``.
    ``build(values) -> (tape, loss)`` registers each array as the tape
    parameter of the same name.
    """
    values = {name: np.array(arr, dtype=np.float64) for name, arr in values.items()}
    tape, loss = build(values)
    analytic = tape.backward(loss)
    numeric = fd_grads(lambda vals: build(vals)[1].item(), values, eps)
    return max(max_rel(analytic[name], numeric[name]) for name in values)


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of ``f(Tensor) -> scalar Tensor`` at x."""
    values = {"x": np.array(x, dtype=np.float64)}
    return fd_grads(lambda vals: f(ad.constant(vals["x"])).item(), values, eps)["x"]


def analytic_grad(f, x):
    """Tape gradient of ``f(Tensor) -> scalar Tensor`` at x."""
    tape = ad.Tape()
    leaf = tape.watch(x)
    tape.backward(f(leaf))
    return leaf.grad
