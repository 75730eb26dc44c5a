"""Target-aware scene encoding.

A vessel's T frames run as one batch: a small strided conv stem maps the
(T, 3, S, S) raster stack to T feature maps, from each of which three spatial
descriptors are pooled: a box-aligned target embedding, a global average
context, and an encoded bounding box. A two-layer convolutional LSTM steps
through the maps in time order for temporal context, exponentially weighted
so the most recent frame always carries weight 1. Only the stem runs per
vessel: the pooling, the ConvLSTM and the MLPs run over a leading vessel
axis, `CHUNK` vessels per pass. Each timestep's spatial and temporal vectors
fuse through an output MLP into one row of the vessel's (T x d) scene
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    Tensor,
    add,
    concat,
    conv2d,
    mul,
    narrow,
    relu,
    reshape,
    roi_align,
    sigmoid,
    stack,
    tanh,
    tensor,
    tmean,
    zeros,
)
from .engine.rng import Rng
from .params import Linear, Mlp, linear, mlp, uniform_init

CHUNK = 2  # vessels per pass of `encode_scene_sequence`: the smallest that kept eval throughput


@dataclass
class ConvLayer:
    kernel: Tensor  # (C_out, C_in, kh, kw)
    bias: Tensor  # (C_out, 1, 1)


@dataclass
class ConvLstmCell:
    kernel: Tensor  # (4*C, 2*C, 3, 3), gate order i, f, g, o
    bias: Tensor  # (4*C, 1, 1); forget slice initialized to 1.0


@dataclass
class SceneEncoderParams:
    stem1: ConvLayer
    stem2: ConvLayer
    stem3: ConvLayer
    target_proj: Linear  # C_f * P * P -> d
    global_proj: Linear  # C_f -> d // 2
    bbox_mlp: Mlp  # 4 -> bbox_dim -> bbox_dim
    fuse_mlp: Mlp  # d + d//2 + bbox_dim -> hidden -> d
    cell1: ConvLstmCell
    cell2: ConvLstmCell
    temporal_proj: Linear  # C_f -> d
    out_mlp: Mlp  # 2d -> 2d -> d


def _conv_layer(rng: Rng, c_out: int, c_in: int, k: int) -> ConvLayer:
    fan_in = c_in * k * k
    return ConvLayer(
        kernel=uniform_init(rng, (c_out, c_in, k, k), fan_in),
        bias=uniform_init(rng, (c_out, 1, 1), fan_in),
    )


def _convlstm_cell(rng: Rng, channels: int) -> ConvLstmCell:
    fan_in = 2 * channels * 9
    cell = ConvLstmCell(
        kernel=uniform_init(rng, (4 * channels, 2 * channels, 3, 3), fan_in),
        bias=uniform_init(rng, (4 * channels, 1, 1), fan_in),
    )
    cell.bias.data[channels : 2 * channels] = 1.0  # forget gate open at init
    return cell


def init_scene_encoder(rng: Rng, cfg) -> SceneEncoderParams:
    c1, c2, c_f = cfg.stem_channels
    d = cfg.d_model
    return SceneEncoderParams(
        stem1=_conv_layer(rng, c1, 3, 3),
        stem2=_conv_layer(rng, c2, c1, 3),
        stem3=_conv_layer(rng, c_f, c2, 3),
        target_proj=linear(rng, c_f * cfg.roi_size * cfg.roi_size, d),
        global_proj=linear(rng, c_f, d // 2),
        bbox_mlp=mlp(rng, 4, cfg.bbox_dim, cfg.bbox_dim),
        fuse_mlp=mlp(rng, d + d // 2 + cfg.bbox_dim, 2 * d, d),
        cell1=_convlstm_cell(rng, c_f),
        cell2=_convlstm_cell(rng, c_f),
        temporal_proj=linear(rng, c_f, d),
        out_mlp=mlp(rng, 2 * d, 2 * d, d),
    )


def stem_forward(p: SceneEncoderParams, rasters: np.ndarray) -> Tensor:
    """Three convs, stride 4 overall: rasters (T,3,S,S) -> feature maps (T, C_f, S/4, S/4).

    The rasters go to the first conv as given (float32 as a sample holds
    them): its record keeps them, not a float64 copy, and its padding widens
    them exactly, so float32 and float64 rasters of equal values give equal bits.
    """
    x = relu(add(conv2d(rasters, p.stem1.kernel, stride=2, padding=1), p.stem1.bias))
    x = relu(add(conv2d(x, p.stem2.kernel, stride=2, padding=1), p.stem2.bias))
    return relu(add(conv2d(x, p.stem3.kernel, stride=1, padding=1), p.stem3.bias))


def _global_avg(fmaps: Tensor) -> Tensor:  # (..., C, H, W) -> (..., C)
    return tmean(reshape(fmaps, (*fmaps.shape[:-2], -1)), axis=-1)


def spatial_features(p: SceneEncoderParams, fmaps: Tensor, boxes: np.ndarray, cfg) -> Tensor:
    """Target embedding pooled from each frame's box in `boxes` (..., T, 4, raster
    coordinates), global context and box encoding, one row per frame of
    fmaps (..., T, C, H, W) -> (..., T, d)."""
    size = cfg.raster_size
    pooled = roi_align(fmaps, boxes, cfg.roi_size, fmaps.shape[-2] / size)
    f_tar = p.target_proj(reshape(pooled, (*boxes.shape[:-1], -1)))
    f_glo = p.global_proj(_global_avg(fmaps))
    f_box = p.bbox_mlp(tensor(boxes / size))
    return p.fuse_mlp(concat([f_tar, f_glo, f_box], axis=-1))


def convlstm_step(cell: ConvLstmCell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step on (..., C, H, W) input and state; leading axes are a batch."""
    channels = h.shape[-3]
    z = add(conv2d(concat([x, h], axis=-3), cell.kernel, stride=1, padding=1), cell.bias)
    i = sigmoid(narrow(z, -3, 0, channels))
    f = sigmoid(narrow(z, -3, channels, channels))
    g = tanh(narrow(z, -3, 2 * channels, channels))
    o = sigmoid(narrow(z, -3, 3 * channels, channels))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def temporal_context(p: SceneEncoderParams, maps: Tensor, decay: float) -> Tensor:
    """Two stacked ConvLSTM layers over each vessel's T maps of maps
    (V, T, C, H, W), pooled, projected, and decay-weighted -> (V, T, d).

    The recurrence steps all V vessels as one batch, with state
    (V, 1, C, H, W), so a call makes 2T `convlstm_step` calls whatever V is;
    each vessel's rows equal its own one-vessel call bit for bit.

    Step t (0-based, most recent last) gets weight exp(decay * (t - (T-1))),
    so weights lie in (0, 1] and the newest frame always has weight 1.
    """
    t_obs = maps.shape[1]
    h1 = c1 = h2 = c2 = zeros((maps.shape[0], 1, *maps.shape[2:]))  # one frame per vessel, zero at t = 0
    h2s = []
    for t in range(t_obs):
        h1, c1 = convlstm_step(p.cell1, narrow(maps, 1, t, 1), h1, c1)
        h2, c2 = convlstm_step(p.cell2, h1, h2, c2)
        h2s.append(h2)
    pooled = _global_avg(concat(h2s, axis=1))  # (V, T, C)
    weights = tensor(np.array([[math.exp(decay * (t - (t_obs - 1)))] for t in range(t_obs)]))  # (T, 1)
    return mul(p.temporal_proj(pooled), weights)


def encode_scene_sequence(
    p: SceneEncoderParams, rasters: list[np.ndarray], boxes: list[np.ndarray], cfg
) -> Tensor:
    """Full scene path for V vessels: per-step concat(spatial, temporal)
    through the output MLP -> (V, T, d), row v for vessel v.

    Vessel v has `rasters[v]` (T, 3, cfg.raster_size, cfg.raster_size) and
    their target `boxes[v]` (T, 4), as a `VesselSample` holds them, with one
    T for every vessel. The vessels run in passes of at most `CHUNK`, in
    order: in each pass the stem runs per vessel, over its T frames, the
    maps are stacked, and everything after runs over (CHUNK, T, ...). The
    passes' rows are concatenated, each vessel's rows equal to its
    one-vessel call bit for bit, so a pass's transients (stacked maps,
    pooling weights, ConvLSTM state) scale with `CHUNK`, not with V.
    """
    rows = [
        _encode_pass(p, rasters[i : i + CHUNK], boxes[i : i + CHUNK], cfg) for i in range(0, len(rasters), CHUNK)
    ]
    return rows[0] if len(rows) == 1 else concat(rows, axis=0)


def _encode_pass(p: SceneEncoderParams, rasters: list[np.ndarray], boxes: list[np.ndarray], cfg) -> Tensor:
    """One pass of `encode_scene_sequence`; its maps are freed on return,
    before the next pass's stems run, unless a tape holds them."""
    maps = stack([stem_forward(p, r) for r in rasters])  # (V, T, C, H, W)
    spatial = spatial_features(p, maps, np.stack(boxes), cfg)
    return p.out_mlp(concat([spatial, temporal_context(p, maps, cfg.decay)], axis=-1))
