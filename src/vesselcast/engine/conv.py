"""Spatial primitives: 2-D cross-correlation and RoI feature pooling."""

from __future__ import annotations

import numpy as np

from .tensor import DimensionError, Tensor, _accum, _as_tensor, _make

# im2col gather indices keyed by (C, H, W, kh, kw, stride, pad)
_COL_CACHE: dict[tuple, tuple[np.ndarray, int, int]] = {}

_DIAGNOSTICS = {"degenerate_roi": 0}


def roi_diagnostics() -> dict:
    return dict(_DIAGNOSTICS)


def reset_roi_diagnostics() -> None:
    _DIAGNOSTICS["degenerate_roi"] = 0


def _col_indices(c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    key = (c, h, w, kh, kw, stride, pad)
    cached = _COL_CACHE.get(key)
    if cached is not None:
        return cached
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    # flat index into the padded (C, hp, wp) volume for each (patch-row, output-cell)
    ci, ki, kj = np.meshgrid(np.arange(c), np.arange(kh), np.arange(kw), indexing="ij")
    patch = (ci * hp * wp + ki * wp + kj).reshape(-1, 1)  # (C*kh*kw, 1)
    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    offset = (oy * stride * wp + ox * stride).reshape(1, -1)  # (1, out_h*out_w)
    idx = patch + offset
    result = (idx, out_h, out_w)
    _COL_CACHE[key] = result
    return result


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """x[C,H,W] with `pad` zero rows and columns on every side (np.pad costs more)."""
    if not pad:
        return x
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x[C_in,H,W] with k[C_out,C_in,kh,kw] (no kernel flip).

    Output H' = floor((H + 2*padding - kh) / stride) + 1, likewise for W'.
    """
    x, k = _as_tensor(x), _as_tensor(k)
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise DimensionError(f"conv2d expects x[C,H,W], k[Co,Ci,kh,kw]; got {x.data.shape}, {k.data.shape}")
    c, h, w = x.data.shape
    co, ci, kh, kw = k.data.shape
    if ci != c:
        raise DimensionError(f"conv2d channel mismatch: input has {c}, kernel expects {ci}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    idx, out_h, out_w = _col_indices(c, h, w, kh, kw, stride, padding)
    cols = _pad(x.data, padding).reshape(-1)[idx]  # (C*kh*kw, out_h*out_w)
    out = (k.data.reshape(co, -1) @ cols).reshape(co, out_h, out_w)

    def bwd(g, grads):
        gm = g.reshape(co, -1)
        if k.requires_grad:
            # gathered again rather than kept from the forward pass: cols is
            # kh*kw/stride^2 times the input, and the tape holds every conv's
            cols = _pad(x.data, padding).reshape(-1)[idx]
            _accum(k, (gm @ cols.T).reshape(k.data.shape), grads)
        if x.requires_grad:
            # input gradient as a transposed convolution: dilate g by the
            # stride, full-pad, and correlate with the flipped/swapped kernel
            hp, wp = h + 2 * padding, w + 2 * padding
            hd = (out_h - 1) * stride + 1
            wd = (out_w - 1) * stride + 1
            extra_h = hp - kh - (out_h - 1) * stride  # rows the forward never reached
            extra_w = wp - kw - (out_w - 1) * stride
            gd = np.zeros((co, hd + 2 * (kh - 1) + extra_h, wd + 2 * (kw - 1) + extra_w))
            gd[:, kh - 1 : kh - 1 + hd : stride, kw - 1 : kw - 1 + wd : stride] = g
            kflip = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (Ci, Co, kh, kw)
            gidx, gh, gw = _col_indices(co, gd.shape[1], gd.shape[2], kh, kw, 1, 0)
            gcols = gd.reshape(-1)[gidx]
            dxp = (kflip.reshape(c, -1) @ gcols).reshape(c, gh, gw)
            if padding:
                dxp = dxp[:, padding : padding + h, padding : padding + w]
            _accum(x, dxp, grads)

    return _make(out, (x, k), bwd)


def _scatter_bilinear(weights: np.ndarray, rows: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      h: int, w: int, scale: float) -> None:
    """Add scale times the bilinear weights of each sample (xs[i], ys[i]) to row rows[i].

    Columns are flat fmap indices. Convention: the value of pixel (ix, iy)
    lives at coordinate (ix, iy); sample points are clamped to
    [0, W-1] x [0, H-1] before interpolation.
    """
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    np.add.at(weights, (rows, y0 * w + x0), scale * (1 - fx) * (1 - fy))
    np.add.at(weights, (rows, y0 * w + x1), scale * fx * (1 - fy))
    np.add.at(weights, (rows, y1 * w + x0), scale * (1 - fx) * fy)
    np.add.at(weights, (rows, y1 * w + x1), scale * fx * fy)


def roi_align(fmap: Tensor, box, out_size: int, spatial_scale: float) -> Tensor:
    """Pool a box from fmap[C,H,W] into a C x P x P grid.

    The box (x_min, y_min, x_max, y_max) is given in input-image coordinates
    and multiplied by spatial_scale to land in feature coordinates, then
    clamped to the feature extent. Each of the P*P cells averages four
    bilinear samples taken at the cell's quarter points, i.e. at fractional
    offsets (0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75) of the
    cell. A box with zero area after clamping degenerates to the bilinear
    sample at the box center, replicated, and bumps the degenerate-roi
    diagnostics counter.
    """
    fmap = _as_tensor(fmap)
    if fmap.data.ndim != 3:
        raise DimensionError(f"roi_align expects fmap[C,H,W], got {fmap.data.shape}")
    c, h, w = fmap.data.shape
    p = out_size
    x0, y0, x1, y1 = (float(v) * spatial_scale for v in box)
    if x1 <= x0 or y1 <= y0:
        raise DimensionError(f"roi_align box is inverted after scaling: {(x0, y0, x1, y1)}")
    x0c, x1c = max(x0, 0.0), min(x1, float(w))
    y0c, y1c = max(y0, 0.0), min(y1, float(h))

    weights = np.zeros((p * p, h * w), dtype=np.float64)
    if x1c <= x0c or y1c <= y0c:
        _DIAGNOSTICS["degenerate_roi"] += 1
        cx = np.full(p * p, 0.5 * (x0 + x1))
        cy = np.full(p * p, 0.5 * (y0 + y1))
        _scatter_bilinear(weights, np.arange(p * p), cx, cy, h, w, 1.0)
    else:
        bw = (x1c - x0c) / p
        bh = (y1c - y0c) / p
        cell_x, cell_y = np.meshgrid(np.arange(p), np.arange(p))  # (p, p): x fast
        rows = (cell_y * p + cell_x).reshape(-1)
        for ox, oy in ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)):
            xs = x0c + (cell_x.reshape(-1) + ox) * bw
            ys = y0c + (cell_y.reshape(-1) + oy) * bh
            _scatter_bilinear(weights, rows, xs, ys, h, w, 0.25)

    out = (fmap.data.reshape(c, -1) @ weights.T).reshape(c, p, p)

    def bwd(g, grads):
        _accum(fmap, (g.reshape(c, -1) @ weights).reshape(fmap.data.shape), grads)

    return _make(out, (fmap,), bwd)
