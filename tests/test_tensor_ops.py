import math

import numpy as np
import pytest

from vesselcast.engine import (
    DimensionError,
    Rng,
    Tape,
    backward,
    concat,
    finite_diff_check,
    layer_norm,
    matmul,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    tensor,
    tmean,
    transpose,
    tsum,
)


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def test_matmul_identity():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = tensor(np.eye(2))
    assert np.array_equal(matmul(eye, a).data, a.data)


def test_matmul_projector():
    p = tensor([[1.0, 0.0], [0.0, 0.0]])
    b = tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 2))))


def test_matmul_gradient_vs_finite_differences():
    rng = Rng(7)
    a = tensor(rand(rng, (3, 4)), requires_grad=True)
    b = tensor(rand(rng, (4, 2)), requires_grad=True)
    assert finite_diff_check(lambda t: tsum(matmul(t, b)), a) < 1e-6
    assert finite_diff_check(lambda t: tsum(matmul(a, t)), b) < 1e-6


def test_matmul_broadcasts_leading_axes():
    rng = Rng(8)
    a = tensor(rand(rng, (2, 1, 3, 4)), requires_grad=True)
    b = tensor(rand(rng, (5, 4, 2)), requires_grad=True)
    out = matmul(a, b)
    assert out.data.shape == (2, 5, 3, 2)
    assert out.data[1, 3].tobytes() == (a.data[1, 0] @ b.data[3]).tobytes()
    probe = rand(rng, (2, 5, 3, 2))
    assert finite_diff_check(lambda t: tsum(matmul(t, b) * probe), a) < 1e-6
    assert finite_diff_check(lambda t: tsum(matmul(a, t) * probe), b) < 1e-6


def test_transpose_axes_and_gradient():
    rng = Rng(10)
    a = tensor(rand(rng, (2, 3, 4)), requires_grad=True)
    assert np.array_equal(transpose(a).data, a.data.swapaxes(1, 2))
    assert np.array_equal(transpose(a, (1, 2, 0)).data, a.data.transpose(1, 2, 0))
    probe = rand(rng, (3, 4, 2))
    assert finite_diff_check(lambda t: tsum(transpose(t, (1, 2, 0)) * probe), a) < 1e-6
    with pytest.raises(DimensionError):
        transpose(tensor(np.zeros(3)))


def test_sigmoid_is_bit_equal_to_the_two_quotient_form_and_so_is_its_gradient():
    edges = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 710.0, -710.0, math.inf, -math.inf, math.nan]
    x = np.concatenate([edges, 40.0 * np.array(Rng(3).normals(4096))])
    z = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    w = tensor(x, requires_grad=True)
    with Tape():
        y = sigmoid(w)
        backward(tsum(y))
    assert y.data.tobytes() == want.tobytes()
    np.testing.assert_array_equal(w.grad, want * (1.0 - want))


def test_backward_linear_case():
    w = tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        backward(tsum(w))
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_quadratic():
    w = tensor([1.0, -2.0, 0.5], requires_grad=True)
    with Tape():
        backward(tsum(w * w))
    assert np.allclose(w.grad, 2 * w.data)


def test_backward_accumulates_until_zeroed():
    w = tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(tsum(w))
    with Tape():
        backward(tsum(w))
    assert np.array_equal(w.grad, 2 * np.ones(2))
    w.zero_grad()
    with Tape():
        backward(tsum(w))
    assert np.array_equal(w.grad, np.ones(2))


def test_backward_rejects_non_scalar():
    w = tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = w * 2.0
        with pytest.raises(DimensionError):
            backward(y)


def test_tape_order_is_topological():
    w = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        a = w * 3.0
        b = a + 1.0
        c = tsum(b * a)
        backward(c)
    parents = [(node_id, t) for node_id, (targets, _) in enumerate(tape.nodes)
               for t in targets if isinstance(t, int)]
    assert len(tape) == c.node_id + 1 and len(parents) == 4
    assert all(parent < node_id for node_id, parent in parents)


def test_softmax_symmetry():
    y = softmax(tensor([0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_stability_no_overflow():
    y = softmax(tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == pytest.approx(1.0)
    assert y.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_matches_direct_formula():
    # oracle: direct e^x / sum e^x
    x = [1.0, 2.0, 3.0]
    denom = sum(math.exp(v) for v in x)
    expected = [math.exp(v) / denom for v in x]
    y = softmax(tensor(x))
    assert np.allclose(y.data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = Rng(3)
    for _ in range(20):
        x = tensor(rand(rng, (4, 6), -5, 5))
        s = softmax(x, axis=-1).data.sum(axis=-1)
        assert np.allclose(s, 1.0, atol=1e-12)


def test_layer_norm_constant_row_is_zero():
    y = layer_norm(tensor([[3.0, 3.0, 3.0]]), tensor(np.ones(3)), tensor(np.zeros(3)))
    assert np.allclose(y.data, 0.0)


def test_layer_norm_already_normalized():
    y = layer_norm(tensor([[1.0, -1.0]]), tensor(np.ones(2)), tensor(np.zeros(2)))
    assert np.allclose(y.data, [[1.0, -1.0]], atol=1e-2)


def test_layer_norm_statistics():
    rng = Rng(11)
    x = tensor(rand(rng, (5, 16), -2, 2))
    y = layer_norm(x, tensor(np.ones(16)), tensor(np.zeros(16))).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_gradients():
    rng = Rng(5)
    x = tensor(rand(rng, (3, 8)), requires_grad=True)
    gain = tensor(rand(rng, (8,), 0.5, 1.5), requires_grad=True)
    bias = tensor(rand(rng, (8,)), requires_grad=True)

    def loss_x(t):
        return tsum(layer_norm(t, gain, bias) * tensor(np.arange(24.0).reshape(3, 8)))

    assert finite_diff_check(loss_x, x) < 1e-5
    assert finite_diff_check(lambda t: tsum(layer_norm(x, t, bias)), gain) < 1e-6
    assert finite_diff_check(lambda t: tsum(layer_norm(x, gain, t)), bias) < 1e-6


def test_broadcasting_add_grad():
    rng = Rng(13)
    m = tensor(rand(rng, (4, 3)), requires_grad=True)
    row = tensor(rand(rng, (3,)), requires_grad=True)
    assert finite_diff_check(lambda t: tsum((m + t) * (m + t)), row) < 1e-6
    assert finite_diff_check(lambda t: tsum((t + row) * (t + row)), m) < 1e-6


def test_shape_ops_gradients():
    rng = Rng(17)
    x = tensor(rand(rng, (4, 6)), requires_grad=True)
    w = tensor(rand(rng, (6, 4)))

    def f(t):
        a = transpose(reshape(t, (6, 4)))
        b = concat([narrow(a, 1, 0, 3), narrow(a, 1, 3, 3)], axis=1)
        return tsum(relu(matmul(b, w)))

    assert finite_diff_check(f, x) < 1e-6


def test_narrow_is_a_read_only_view():
    a = tensor(np.arange(12.0).reshape(3, 4))
    out = narrow(a, 1, 1, 2)
    assert np.shares_memory(out.data, a.data)
    assert not out.data.flags.writeable
    assert np.array_equal(out.data, a.data[:, 1:3])
    with pytest.raises(ValueError, match="read-only"):
        out.data[0, 0] = -1.0


def test_mean_matches_numpy():
    rng = Rng(19)
    x = rand(rng, (3, 5))
    assert tmean(tensor(x)).item() == pytest.approx(x.mean(), abs=1e-15)
    assert np.allclose(tmean(tensor(x), axis=0).data, x.mean(axis=0))
