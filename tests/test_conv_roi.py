import tracemalloc

import numpy as np
import pytest

from vesselcast.engine import (
    DimensionError,
    Rng,
    Tape,
    backward,
    conv2d,
    finite_diff_check,
    mul,
    reset_roi_diagnostics,
    roi_align,
    roi_diagnostics,
    tensor,
    tsum,
)
from vesselcast.engine.conv import _im2col, _pad, _roi_weights


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def bilinear_oracle(fmap, x, y):
    """Independent bilinear sampler: pixel (ix, iy) value sits at (ix, iy)."""
    c, h, w = fmap.shape
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    return (
        fmap[:, y0, x0] * (1 - fx) * (1 - fy)
        + fmap[:, y0, x1] * fx * (1 - fy)
        + fmap[:, y1, x0] * (1 - fx) * fy
        + fmap[:, y1, x1] * fx * fy
    )


def roi_oracle(fmap, box, p, scale):
    """Quarter-point-sampled RoI pooling, written independently of the engine."""
    x0, y0, x1, y1 = (v * scale for v in box)
    c, h, w = fmap.shape
    x0, x1 = max(x0, 0.0), min(x1, float(w))
    y0, y1 = max(y0, 0.0), min(y1, float(h))
    bw, bh = (x1 - x0) / p, (y1 - y0) / p
    out = np.zeros((c, p, p))
    for iy in range(p):
        for ix in range(p):
            acc = np.zeros(c)
            for ox, oy in ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)):
                acc += bilinear_oracle(fmap, x0 + (ix + ox) * bw, y0 + (iy + oy) * bh)
            out[:, iy, ix] = acc / 4.0
    return out


def test_conv_scalar_scaling():
    x = tensor(np.ones((1, 3, 3)))
    k = tensor(np.full((1, 1, 1, 1), 2.0))
    assert np.array_equal(conv2d(x, k).data, np.full((1, 3, 3), 2.0))


def test_conv_impulse_response():
    x = np.zeros((1, 5, 5))
    x[0, 2, 2] = 1.0
    k = np.arange(9.0).reshape(1, 1, 3, 3)
    out = conv2d(tensor(x), tensor(k), stride=1, padding=1).data
    # cross-correlation places the kernel flipped around the impulse
    assert np.array_equal(out[0, 1:4, 1:4], k[0, 0, ::-1, ::-1])


def test_conv_output_shape():
    rng = Rng(2)
    x = tensor(rand(rng, (3, 8, 9)))
    k = tensor(rand(rng, (5, 3, 3, 3)))
    assert conv2d(x, k, stride=2, padding=1).data.shape == (5, 4, 5)


def test_conv_kernel_too_large():
    with pytest.raises(DimensionError):
        conv2d(tensor(np.zeros((1, 2, 2))), tensor(np.zeros((1, 1, 5, 5))))


def test_conv_gradients_vs_finite_differences():
    rng = Rng(23)
    k = tensor(rand(rng, (3, 2, 3, 3)), requires_grad=True)
    for lead in ((), (3,)):  # one image, then a batch
        x = tensor(rand(rng, (*lead, 2, 5, 5)), requires_grad=True)
        assert finite_diff_check(lambda t: tsum(conv2d(t, k, stride=2, padding=1)), x) < 1e-5
        assert finite_diff_check(lambda t: tsum(conv2d(x, t, stride=2, padding=1)), k) < 1e-5


def test_roi_constant_field():
    fmap = tensor(np.full((2, 6, 6), 3.0))
    for box in [(0.0, 0.0, 6.0, 6.0), (1.2, 0.7, 4.9, 5.1)]:
        out = roi_align(fmap, box, 3, 1.0)
        assert np.allclose(out.data, 3.0)


def test_roi_ramp_interior_box_hits_cell_centers():
    # linear ramp along x on a 4x4 map; box chosen so all quarter-point
    # samples stay inside [0, 3] where interpolation is exact
    fmap = np.broadcast_to(np.arange(4.0), (1, 4, 4)).copy()
    box = (0.25, 0.25, 2.75, 2.75)
    out = roi_align(tensor(fmap), box, 2, 1.0).data
    # cell centers along x: 0.25 + (j + 0.5) * 1.25
    assert np.allclose(out[0, 0], [0.875, 2.125], atol=1e-12)
    assert np.allclose(out[0, 1], [0.875, 2.125], atol=1e-12)


def test_roi_matches_hand_oracle_full_map():
    fmap = np.broadcast_to(np.arange(4.0), (1, 4, 4)).copy()
    box = (0.0, 0.0, 4.0, 4.0)
    out = roi_align(tensor(fmap), box, 2, 1.0).data
    assert np.allclose(out, roi_oracle(fmap, box, 2, 1.0), atol=1e-12)


def test_roi_matches_hand_oracle_random():
    rng = Rng(31)
    for _ in range(10):
        fmap = rand(rng, (2, 6, 7))
        box = (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(3, 7), rng.uniform(3, 6))
        out = roi_align(tensor(fmap), box, 3, 1.0).data
        assert np.allclose(out, roi_oracle(fmap, box, 3, 1.0), atol=1e-12)


def test_roi_gradients_vs_finite_differences():
    rng = Rng(37)
    for lead in ((), (3,)):  # one map, then a batch with one box each
        fmap = tensor(rand(rng, (*lead, 2, 6, 6)), requires_grad=True)
        box = np.array([0.8, 1.1, 4.6, 5.2]) + 0.3 * rand(rng, (*lead, 4))
        assert finite_diff_check(lambda t: tsum(roi_align(t, box, 3, 1.0) * 0.7), fmap) < 1e-5


def test_conv_batch_equals_single_image_calls_bit_for_bit():
    rng = Rng(41)
    x = rand(rng, (2, 3, 3, 7, 6))
    k = tensor(rand(rng, (4, 3, 3, 3)))
    for stride, padding in ((1, 1), (2, 1), (2, 0)):
        out = conv2d(tensor(x), k, stride=stride, padding=padding).data
        assert out.shape[:2] == (2, 3)
        for a in range(2):
            for b in range(3):
                single = conv2d(tensor(x[a, b]), k, stride=stride, padding=padding).data
                assert out[a, b].tobytes() == single.tobytes()


def test_roi_batch_equals_single_map_calls_bit_for_bit():
    rng = Rng(43)
    fmaps = rand(rng, (5, 2, 6, 7))
    boxes = [(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(3, 7), rng.uniform(3, 6)) for _ in range(4)]
    boxes.append((-3.0, 1.0, -1.0, 3.0))  # degenerate after clamping
    out = roi_align(tensor(fmaps), np.array(boxes), 3, 1.0).data
    assert out.shape == (5, 2, 3, 3)
    for n, box in enumerate(boxes):
        assert out[n].tobytes() == roi_align(tensor(fmaps[n]), box, 3, 1.0).data.tobytes()


def test_roi_needs_one_box_per_map():
    with pytest.raises(DimensionError):
        roi_align(tensor(np.zeros((3, 2, 4, 4))), np.zeros((2, 4)), 2, 1.0)
    with pytest.raises(DimensionError):
        roi_align(tensor(np.zeros((2, 4, 4))), (0.0, 0.0, 2.0), 2, 1.0)


def test_roi_degenerate_box_counts_and_returns_center_sample():
    reset_roi_diagnostics()
    fmap = np.zeros((1, 4, 4))
    fmap[0, 2, 2] = 8.0
    # box entirely left of the map: zero area after clamping
    out = roi_align(tensor(fmap), (-3.0, 1.0, -1.0, 3.0), 2, 1.0).data
    assert roi_diagnostics()["degenerate_roi"] == 1
    center = bilinear_oracle(fmap, -2.0, 2.0)  # clamped to x=0
    assert np.allclose(out, center.reshape(1, 1, 1))
    # one call, two degenerate boxes (off the left and off the bottom) around a normal one
    reset_roi_diagnostics()
    boxes = [(-3.0, 1.0, -1.0, 3.0), (0.5, 0.5, 2.5, 2.5), (1.0, 5.0, 3.0, 7.0)]
    out = roi_align(tensor(np.stack([fmap] * 3)), boxes, 2, 1.0).data
    assert roi_diagnostics()["degenerate_roi"] == 2
    assert np.allclose(out[0], center)
    assert np.allclose(out[2], bilinear_oracle(fmap, 2.0, 6.0))
    assert out[1].tobytes() == roi_align(tensor(fmap), boxes[1], 2, 1.0).data.tobytes()
    reset_roi_diagnostics()


def im2col_loops(xp, kh, kw, stride):
    """(C*kh*kw, H'*W') patch matrix of an already padded xp[C,H,W], row (c, i, j), column (y, x)."""
    c, hp, wp = xp.shape
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    cols = np.empty((c * kh * kw, oh * ow))
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                patch = xp[ci, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride]
                cols[(ci * kh + i) * kw + j] = patch.reshape(-1)
    return cols


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_gradients_equal_explicit_gemm_bit_for_bit(stride, padding):
    """dK = gm @ cols.T over the padded input's patches; dX is col2im: the
    patch gradients Kᵀ·gm added back, kernel tap by tap, onto the pixels
    each patch read, then cropped to the unpadded input."""
    rng = Rng(11)
    c, h, w, co, kh, kw = 3, 7, 6, 4, 3, 3
    x = tensor(rand(rng, (c, h, w)), requires_grad=True)
    k = tensor(rand(rng, (co, c, kh, kw)), requires_grad=True)
    with Tape():
        out = conv2d(x, k, stride=stride, padding=padding)
        g = rand(rng, out.data.shape)
        backward(tsum(mul(out, tensor(g))))
    oh, ow = out.data.shape[1:]

    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding : padding + h, padding : padding + w] = x.data
    gm = g.reshape(co, -1)
    assert k.grad.tobytes() == (gm @ im2col_loops(xp, kh, kw, stride).T).reshape(k.data.shape).tobytes()

    dcols = (k.data.reshape(co, -1).T @ gm).reshape(c, kh, kw, oh, ow)
    dxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            for y in range(oh):
                for x_ in range(ow):
                    dxp[:, i + stride * y, j + stride * x_] += dcols[:, i, j, y, x_]
    assert x.grad.tobytes() == dxp[:, padding : padding + h, padding : padding + w].tobytes()


def kernel_gradient_and_tensordot(n, ci, size, co):
    """conv2d's kernel gradient for a random 3x3, padding-1 conv of n
    (ci, size, size) images to co channels, and `np.tensordot` over the same
    patch matrices, the product the gradient was formed by before."""
    rng = np.random.default_rng(n * co + ci)
    x = rng.standard_normal((n, ci, size, size))
    k = tensor(rng.standard_normal((co, ci, 3, 3)), requires_grad=True)
    g = rng.standard_normal((n, co, size, size))
    with Tape():
        backward(tsum(mul(conv2d(x, k, padding=1), tensor(g))))
    cols = _im2col(_pad(x, 1), 3, 3, 1)
    return k.grad, np.tensordot(g.reshape(n, co, -1), cols, axes=([0, 2], [0, 2])).reshape(k.data.shape)


# each case (N, C_in, H, C_out) forms a default-config kernel-gradient product
# (N, C_out, C_in*9, H*W): (1, 64, 288, 256) is a ConvLSTM gate conv, the three
# stem convs run over one sample's 8 frames, and (12, 64, 288, 256) is a batch
@pytest.mark.parametrize("n, ci, size, co", [(1, 32, 16, 64), (8, 16, 16, 16), (8, 8, 16, 16),
                                             (8, 3, 32, 8), (12, 32, 16, 64)])
def test_conv_kernel_gradient_equals_tensordot_bit_for_bit(n, ci, size, co):
    """At the default config's shapes the kernel gradient has the bits of
    `np.tensordot`, for one image and for many."""
    got, want = kernel_gradient_and_tensordot(n, ci, size, co)
    assert got.tobytes() == want.tobytes()


def test_small_conv_kernel_gradient_matches_tensordot_to_rounding():
    """At a product as small as the micro config's, BLAS may sum the
    transposed operand in another order than `np.tensordot` does, so the bits
    may differ in the last places; the values agree to rounding."""
    got, want = kernel_gradient_and_tensordot(3, 2, 12, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_taped_conv_holds_output_not_im2col():
    """A taped conv2d keeps its output, not its (C*kh*kw, H'*W') patch matrix."""
    rng = Rng(4)
    x = tensor(rand(rng, (4, 32, 32)), requires_grad=True)
    k = tensor(rand(rng, (4, 4, 3, 3)), requires_grad=True)
    conv2d(x, k, padding=1)  # a first call outside the measurement
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, k, padding=1)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    padded = 4 * 34 * 34 * 8
    assert held <= out.data.nbytes + padded + 16 * 1024


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_on_a_float32_array_equals_its_float64_tensor_bit_for_bit(stride, padding):
    """A constant input passed as a float32 array gives the output and kernel
    gradient of the same values passed as a float64 Tensor, byte for byte."""
    rng = Rng(13)
    x32 = rand(rng, (2, 3, 7, 6)).astype(np.float32)
    got = []
    for x in (x32, tensor(x32.astype(np.float64))):
        k = tensor(rand(Rng(14), (4, 3, 3, 3)), requires_grad=True)
        with Tape():
            out = conv2d(x, k, stride=stride, padding=padding)
            backward(tsum(mul(out, tensor(rand(Rng(15), out.shape)))))
        got.append((out.data.tobytes(), k.grad.tobytes()))
    assert got[0] == got[1]


def test_taped_conv_keeps_a_constant_array_as_given():
    """The record of a conv on a float32 array keeps that array, not a float64 copy of it."""
    rng = Rng(16)
    x = rand(rng, (4, 3, 32, 32)).astype(np.float32)
    k = tensor(rand(rng, (4, 3, 3, 3)), requires_grad=True)
    tsum(conv2d(x, k, padding=1))  # a first call outside the measurement
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            loss = tsum(conv2d(x, k, padding=1))
            held = tracemalloc.get_traced_memory()[0] - before
            backward(loss)
    finally:
        tracemalloc.stop()
    assert held <= x.nbytes + 16 * 1024, held
    assert k.grad is not None


def _roi_case():
    rng = Rng(17)
    fmap = tensor(rand(rng, (8, 4, 16, 16)), requires_grad=True)
    boxes = np.array([[1.0 + n, 2.0, 9.0 + n, 12.5] for n in range(8)])
    return fmap, boxes


def test_taped_roi_align_holds_its_boxes_not_its_pooling_weights():
    """Of a taped roi_align the record keeps the boxes, not the
    N * P*P * H*W float64 pooling weights (here 256 KiB)."""
    fmap, boxes = _roi_case()
    tsum(roi_align(fmap, boxes, 4, 1.0))  # a first call outside the measurement
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            loss = tsum(roi_align(fmap, boxes, 4, 1.0))
            held = tracemalloc.get_traced_memory()[0] - before
            backward(loss)
    finally:
        tracemalloc.stop()
    assert held <= boxes.nbytes + 16 * 1024, held
    assert fmap.grad is not None


def test_roi_input_gradient_is_g_times_the_pooling_weights_bit_for_bit():
    fmap, boxes = _roi_case()
    with Tape():
        out = roi_align(fmap, boxes, 4, 0.5)
        g = rand(Rng(18), out.shape)
        backward(tsum(mul(out, tensor(g))))
    weights, _ = _roi_weights(boxes, 16, 16, 4, 0.5)
    assert fmap.grad.tobytes() == np.matmul(g.reshape(8, 4, 16), weights).reshape(fmap.shape).tobytes()


def test_a_degenerate_box_is_counted_once_across_forward_and_backward():
    fmap = tensor(np.ones((2, 1, 4, 4)), requires_grad=True)
    reset_roi_diagnostics()
    with Tape():
        backward(tsum(roi_align(fmap, [(-3.0, 1.0, -1.0, 3.0), (0.5, 0.5, 2.5, 2.5)], 2, 1.0)))
    assert roi_diagnostics()["degenerate_roi"] == 1
    assert fmap.grad is not None
    reset_roi_diagnostics()


@pytest.mark.parametrize("name, value", [("stride", 0), ("stride", -1), ("stride", 1.5), ("padding", -1)])
def test_conv_rejects_a_bad_stride_or_padding_naming_it(name, value):
    with pytest.raises(DimensionError, match=f"conv2d {name} must be an int"):
        conv2d(tensor(np.zeros((1, 6, 6))), tensor(np.zeros((1, 1, 3, 3))), **{name: value})


@pytest.mark.parametrize("name, value", [("out_size", 0), ("out_size", -1), ("spatial_scale", float("nan"))])
def test_roi_rejects_a_bad_out_size_or_spatial_scale_naming_it(name, value):
    args = {"out_size": 2, "spatial_scale": 1.0, name: value}
    with pytest.raises(DimensionError, match=f"roi_align {name} must be"):
        roi_align(tensor(np.zeros((1, 4, 4))), (0.0, 0.0, 2.0, 2.0), **args)
