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
    x = tensor(rand(rng, (2, 5, 5)), requires_grad=True)
    k = tensor(rand(rng, (3, 2, 3, 3)), requires_grad=True)
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
    fmap = tensor(rand(rng, (2, 6, 6)), requires_grad=True)
    box = (0.8, 1.1, 4.6, 5.2)
    assert finite_diff_check(lambda t: tsum(roi_align(t, box, 3, 1.0) * 0.7), fmap) < 1e-5


def test_roi_degenerate_box_counts_and_returns_center_sample():
    reset_roi_diagnostics()
    fmap = np.zeros((1, 4, 4))
    fmap[0, 2, 2] = 8.0
    # box entirely left of the map: zero area after clamping
    out = roi_align(tensor(fmap), (-3.0, 1.0, -1.0, 3.0), 2, 1.0).data
    assert roi_diagnostics()["degenerate_roi"] == 1
    center = bilinear_oracle(fmap, -2.0, 2.0)  # clamped to x=0
    assert np.allclose(out, center.reshape(1, 1, 1))
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
    """dK = gm @ cols.T over the padded input's patches; dX correlates the
    stride-dilated, fully padded gradient with the flipped kernel as one GEMM."""
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

    hp, wp = xp.shape[1:]
    gd = np.zeros((co, hp + kh - 1, wp + kw - 1))
    gd[:, kh - 1 : kh - 1 + stride * (oh - 1) + 1 : stride, kw - 1 : kw - 1 + stride * (ow - 1) + 1 : stride] = g
    kflip = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dxp = (kflip @ im2col_loops(gd, kh, kw, 1)).reshape(c, hp, wp)
    assert x.grad.tobytes() == dxp[:, padding : padding + h, padding : padding + w].tobytes()


def test_taped_conv_holds_output_not_im2col():
    """A taped conv2d keeps its output, not its (C*kh*kw, H'*W') patch matrix."""
    rng = Rng(4)
    x = tensor(rand(rng, (4, 32, 32)), requires_grad=True)
    k = tensor(rand(rng, (4, 4, 3, 3)), requires_grad=True)
    conv2d(x, k, padding=1)  # fills the gather-index cache before measuring
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
