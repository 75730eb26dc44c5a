import numpy as np
import pytest

from vesselcast.engine import (
    NonDeterministicError,
    Rng,
    finite_diff_check,
    matmul,
    mul,
    narrow,
    relu,
    sigmoid,
    softmax,
    sqrt,
    tanh,
    tensor,
    tmean,
    tsum,
)


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def test_sum_is_exact():
    rng = Rng(1)
    x = tensor(rand(rng, (4, 3)), requires_grad=True)
    assert finite_diff_check(tsum, x) < 1e-9


def test_softmax_cross_section_composite():
    rng = Rng(2)
    x = tensor(rand(rng, (3, 5), -2, 2), requires_grad=True)
    w = tensor(rand(rng, (5, 2)))

    def f(t):
        return tsum(matmul(softmax(t, axis=-1), w) * 1.7)

    assert finite_diff_check(f, x) < 1e-6


def test_elementwise_chain():
    rng = Rng(3)
    x = tensor(rand(rng, (6,), 0.1, 2.0), requires_grad=True)

    def f(t):
        return tsum(sqrt(tanh(t) + 1.0) * sigmoid(t) + relu(t - 0.5))

    assert finite_diff_check(f, x) < 1e-6


def test_nondeterministic_function_detected():
    rng = Rng(4)
    x = tensor([1.0], requires_grad=True)

    def noisy(t):
        return tsum(t * rng.uniform())

    with pytest.raises(NonDeterministicError):
        finite_diff_check(noisy, x)


def test_per_primitive_sweep():
    """Twenty random small instances per primitive, rel err < 1e-5."""
    rng = Rng(99)
    for i in range(20):
        a = tensor(rand(rng, (3, 4)), requires_grad=True)
        b = tensor(rand(rng, (4, 3)))
        assert finite_diff_check(lambda t: tsum(matmul(t, b)), a) < 1e-5
        x = tensor(rand(rng, (2, 6), -2, 2), requires_grad=True)
        coeff = rand(rng, (2, 6))
        assert finite_diff_check(lambda t: tmean(softmax(t) * coeff), x) < 1e-5
        y = tensor(rand(rng, (8,), -1.5, 1.5), requires_grad=True)
        assert finite_diff_check(lambda t: tsum(sigmoid(t) * tanh(t)), y) < 1e-5
        z = tensor(rand(rng, (5,), 0.2, 3.0), requires_grad=True)
        assert finite_diff_check(lambda t: tsum(sqrt(t) + mul(t, -1.0)), z) < 1e-5
        m = tensor(rand(rng, (4, 4)), requires_grad=True)
        assert finite_diff_check(lambda t: tsum(narrow(t, 0, 1, 2) * narrow(t, 0, 0, 2)), m) < 1e-5
