"""Central finite-difference gradient oracle."""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor, backward


class NonDeterministicError(RuntimeError):
    """f returned different values on identical inputs."""


def _eval(f, x: Tensor) -> float:
    return f(x).item()


def finite_diff_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic grad of f at x and central differences.

    f must map the tensor to a scalar deterministically (it is evaluated twice
    to detect hidden randomness). Call it outside any Tape: the perturbed
    evaluations then record nothing. Relative error per coordinate uses the
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    base1 = _eval(f, x)
    base2 = _eval(f, x)
    if base1 != base2:
        raise NonDeterministicError(f"f evaluated twice gave {base1} and {base2}")

    x.grad = None
    prev_rg = x.requires_grad
    x.requires_grad = True
    try:
        with Tape():
            loss = f(x)
            backward(loss)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        x.requires_grad = prev_rg
        x.grad = None

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = _eval(f, x)
        flat[i] = keep - h
        fm = _eval(f, x)
        flat[i] = keep
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if err > worst:
            worst = err
    return worst
