"""Spatial primitives: 2-D cross-correlation and RoI feature pooling.

Both take leading batch axes: every leading index of an input holds one
independent (C, H, W) map, and the batch runs as one matmul.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import DimensionError, Tensor, _as_tensor, _make

_DIAGNOSTICS = {"degenerate_roi": 0}


def roi_diagnostics() -> dict:
    return dict(_DIAGNOSTICS)


def reset_roi_diagnostics() -> None:
    _DIAGNOSTICS["degenerate_roi"] = 0


def _check_int(op: str, name: str, value, least: int) -> None:
    """Reject an argument that is not an int of at least `least`, naming it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DimensionError(f"{op} {name} must be an int >= {least}, got {value!r}")


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Float64 x[N,C,H,W] with `pad` zero rows and columns on every side of
    each map (np.pad costs more); a float32 x widens exactly."""
    if not pad:
        return x.astype(np.float64, copy=False)
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[..., pad : pad + h, pad : pad + w] = x
    return xp


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C*kh*kw, H'*W') patch matrices of a padded xp[N,C,Hp,Wp]: row (c, i, j), column (y, x)."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]  # (N, C, H', W', kh, kw)
    oh, ow = win.shape[2:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)


def conv2d(x: Tensor | np.ndarray, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate each image of x[..., C_in, H, W] with k[C_out, C_in, kh, kw] (no kernel flip).

    Leading axes of x are a batch; the output is (..., C_out, H', W') with
    H' = floor((H + 2*padding - kh) / stride) + 1, likewise W'; stride must
    be an int of at least 1 and padding one of at least 0. x may be a Tensor
    or, as a constant, an array of any real dtype: the record keeps that array
    as given, not a float64 copy, and padding widens it to float64 exactly, so
    a float32 array gives the bits of its float64 copy. The backward pass
    gathers the input patches again instead of keeping them, and forms the
    input gradient by col2im: Kᵀ·g, added back into the padded input by kh*kw
    strided slices.
    """
    _check_int("conv2d", "stride", stride, 1)
    _check_int("conv2d", "padding", padding, 0)
    xd = x.data if isinstance(x, Tensor) else np.asarray(x)
    k = _as_tensor(k)
    if xd.ndim < 3 or k.data.ndim != 4:
        raise DimensionError(f"conv2d expects x[...,C,H,W], k[Co,Ci,kh,kw]; got {xd.shape}, {k.data.shape}")
    *lead, c, h, w = xd.shape
    co, ci, kh, kw = k.data.shape
    if ci != c:
        raise DimensionError(f"conv2d channel mismatch: input has {c}, kernel expects {ci}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    out_h, out_w = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    kmat = k.data.reshape(co, -1)
    out = np.matmul(kmat, _im2col(_pad(xd.reshape(-1, c, h, w), padding), kh, kw, stride))

    def bwd(g, need):
        gm = g.reshape(-1, co, out_h * out_w)
        dx = dk = None
        if need[1]:
            # gathered again rather than kept from the forward pass: the
            # patches are kh*kw/stride^2 times the input, which the record keeps
            cols = _im2col(_pad(xd.reshape(-1, c, h, w), padding), kh, kw, stride)
            # one (Co, N*P) x (N*P, C*kh*kw) product whose right operand is the
            # transposed view of the (C*kh*kw, N*P) patches: gathering those
            # moves whole rows (nothing when N is 1), where np.tensordot
            # copies every patch column into an (N*P, C*kh*kw) layout
            dk = np.matmul(gm.transpose(1, 0, 2).reshape(co, -1),
                           cols.transpose(1, 0, 2).reshape(ci * kh * kw, -1).T).reshape(co, ci, kh, kw)
        if need[0]:
            dcols = np.matmul(kmat.T, gm).reshape(-1, c, kh, kw, out_h, out_w)
            dxp = np.zeros((dcols.shape[0], c, h + 2 * padding, w + 2 * padding))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * (out_h - 1) + 1 : stride,
                        j : j + stride * (out_w - 1) + 1 : stride] += dcols[:, :, i, j]
            dx = dxp[..., padding : padding + h, padding : padding + w].reshape(xd.shape)
        return dx, dk

    return _make(out.reshape(*lead, co, out_h, out_w), (x, k), bwd)


def _scatter_bilinear(weights: np.ndarray, rows: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      h: int, w: int, scale: np.ndarray | float) -> None:
    """Add scale times the bilinear weights of each sample (xs, ys) to its row of `rows`.

    xs, ys and scale broadcast together, and rows with them once a corner
    axis is inserted before the last axis; columns are flat fmap indices. One
    np.add.at adds in the order: leading sample axes, corner, last sample axis.
    Convention: the value of pixel (ix, iy) lives at coordinate (ix, iy);
    sample points are clamped to [0, W-1] x [0, H-1] before interpolation.
    """
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    cols = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], axis=-2)
    vals = np.stack([scale * (1 - fx) * (1 - fy), scale * fx * (1 - fy),
                     scale * (1 - fx) * fy, scale * fx * fy], axis=-2)
    np.add.at(weights, (rows, cols), vals)


# the four quarter points of a cell, as (x, y) fractions of the cell: (4, 1) columns
_QUARTER_X = np.array([[0.25], [0.75], [0.25], [0.75]])
_QUARTER_Y = np.array([[0.25], [0.25], [0.75], [0.75]])
# a degenerate box puts its centre sample at quarter point 0 with full weight
_DEGENERATE_SCALE = np.array([[1.0], [0.0], [0.0], [0.0]])


def _roi_weights(boxes: np.ndarray, h: int, w: int, p: int, spatial_scale: float) -> tuple[np.ndarray, int]:
    """(N, P*P, H*W) pooling weights of the N boxes of boxes[N, 4] over an H x W
    map, and how many of the boxes are degenerate."""
    scaled = boxes * spatial_scale
    inverted = np.flatnonzero((scaled[:, 2] <= scaled[:, 0]) | (scaled[:, 3] <= scaled[:, 1]))
    if inverted.size:
        box = tuple(float(v) for v in scaled[inverted[0]])
        raise DimensionError(f"roi_align box is inverted after scaling: {box}")
    x0, y0, x1, y1 = scaled.T[:, :, None, None]  # each (N, 1, 1): box, quarter point, cell
    x0c, x1c = np.maximum(x0, 0.0), np.minimum(x1, float(w))
    y0c, y1c = np.maximum(y0, 0.0), np.minimum(y1, float(h))
    degenerate = (x1c <= x0c) | (y1c <= y0c)

    n = len(boxes)
    cell = np.arange(p * p)  # cell (iy, ix) is row iy * p + ix of its box
    xs = np.where(degenerate, 0.5 * (x0 + x1), x0c + (cell % p + _QUARTER_X) * ((x1c - x0c) / p))
    ys = np.where(degenerate, 0.5 * (y0 + y1), y0c + (cell // p + _QUARTER_Y) * ((y1c - y0c) / p))
    scale = np.where(degenerate, _DEGENERATE_SCALE, 0.25)  # (N, 4, 1)
    weights = np.zeros((n * p * p, h * w), dtype=np.float64)
    rows = (np.arange(n) * (p * p))[:, None, None, None] + cell  # (N, 1, 1, P*P): box, quarter, corner, cell
    _scatter_bilinear(weights, rows, xs, ys, h, w, scale)
    return weights.reshape(n, p * p, h * w), int(degenerate.sum())


def roi_align(fmap: Tensor, box, out_size: int, spatial_scale: float) -> Tensor:
    """Pool one box from each map of fmap[..., C, H, W] into a C x P x P grid.

    `box` holds one (x_min, y_min, x_max, y_max) per leading index of fmap,
    shape (..., 4), given in input-image coordinates and multiplied by
    spatial_scale to land in feature coordinates, then clamped to the feature
    extent. Each of the P*P cells averages four bilinear samples taken at the
    cell's quarter points, i.e. at fractional offsets (0.25, 0.25),
    (0.75, 0.25), (0.25, 0.75), (0.75, 0.75) of the cell. A box with zero area
    after clamping degenerates to the bilinear sample at the box center,
    replicated, and bumps the degenerate-roi diagnostics counter once, in the
    forward pass. out_size must be an int of at least 1 and spatial_scale a
    finite positive number. The output is (..., C, P, P). The record keeps a
    copy of the boxes, not the (N, P*P, H*W) pooling weights: the backward
    pass rebuilds them from the boxes as the forward pass built them.
    """
    _check_int("roi_align", "out_size", out_size, 1)
    if isinstance(spatial_scale, bool) or not isinstance(spatial_scale, Real) or not 0 < spatial_scale < math.inf:
        raise DimensionError(f"roi_align spatial_scale must be a finite positive number, got {spatial_scale!r}")
    fmap = _as_tensor(fmap)
    if fmap.data.ndim < 3:
        raise DimensionError(f"roi_align expects fmap[...,C,H,W], got {fmap.data.shape}")
    *lead, c, h, w = fmap.data.shape
    boxes = np.array(box, dtype=np.float64)
    if boxes.shape != (*lead, 4):
        raise DimensionError(f"roi_align needs one 4-value box per map, shape {(*lead, 4)}; got {boxes.shape}")
    boxes, p = boxes.reshape(-1, 4), out_size
    weights, degenerate = _roi_weights(boxes, h, w, p, spatial_scale)
    _DIAGNOSTICS["degenerate_roi"] += degenerate
    out = np.matmul(fmap.data.reshape(-1, c, h * w), weights.transpose(0, 2, 1))  # (N, C, P*P)

    shape = fmap.data.shape

    def bwd(g, _need):
        pooling = _roi_weights(boxes, h, w, p, spatial_scale)[0]
        return (np.matmul(g.reshape(-1, c, p * p), pooling).reshape(shape),)

    return _make(out.reshape(*lead, c, p, p), (fmap,), bwd)
