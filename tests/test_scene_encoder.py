import math

import numpy as np
import pytest

from conftest import micro_config
from vesselcast.engine import (
    Rng,
    Tape,
    backward,
    finite_diff_check,
    narrow,
    reset_roi_diagnostics,
    roi_diagnostics,
    stack,
    tensor,
    tsum,
    zeros,
)
from vesselcast.scene_encoder import (
    CHUNK,
    convlstm_step,
    encode_scene_sequence,
    init_scene_encoder,
    spatial_features,
    stem_forward,
    temporal_context,
)


def make_params(cfg, seed=0):
    return init_scene_encoder(Rng(seed).child("init"), cfg)


BOX = (2.0, 3.0, 7.0, 8.0)


def make_frames(cfg, rng, n=1, constant=None):
    """(n, 3, S, S) rasters, each drawn from rng or constant, and their (n, 4) boxes."""
    s = cfg.raster_size
    if constant is None:
        rasters = np.array(rng.uniforms(n * 3 * s * s)).reshape(n, 3, s, s).astype(np.float32)
    else:
        rasters = np.full((n, 3, s, s), constant, dtype=np.float32)
    return rasters, np.tile(BOX, (n, 1))


def zero_all(params):
    from vesselcast.params import collect_params

    for t in collect_params(params).values():
        t.data[...] = 0.0


def test_zero_network_spatial_features_are_zero(micro_cfg):
    p = make_params(micro_cfg)
    zero_all(p)
    rasters, boxes = make_frames(micro_cfg, Rng(1))
    fmaps = stem_forward(p, rasters)
    assert np.allclose(fmaps.data, 0.0)
    f_roi = spatial_features(p, fmaps, boxes, micro_cfg)
    assert np.allclose(f_roi.data, 0.0)


def test_constant_raster_target_features_position_independent():
    # constant field: pooled target features cannot depend on where the box
    # sits, as long as both boxes pool from the stem's constant interior
    # (conv padding perturbs a border ring of the feature map)
    cfg = micro_config(raster_size=32)
    p = make_params(cfg)
    box_a = np.array([[8.0, 8.0, 20.0, 20.0]])
    box_b = np.array([[12.0, 10.0, 24.0, 22.0]])
    fmaps = stem_forward(p, np.full((1, 3, 32, 32), 0.5, dtype=np.float32))
    from vesselcast.engine import roi_align

    scale = fmaps.shape[2] / cfg.raster_size
    ra = roi_align(fmaps, box_a, cfg.roi_size, scale)
    rb = roi_align(fmaps, box_b, cfg.roi_size, scale)
    assert np.allclose(ra.data, rb.data, atol=1e-9)
    fa = spatial_features(p, fmaps, box_a, cfg)
    assert fa.data.shape == (1, cfg.d_model)


def test_zero_convlstm_keeps_state_zero(micro_cfg):
    p = make_params(micro_cfg)
    zero_all(p)
    c_f = micro_cfg.stem_channels[-1]
    size = micro_cfg.raster_size // 4
    x = tensor(np.ones((c_f, size, size)))
    h = zeros((c_f, size, size))
    c = zeros((c_f, size, size))
    h2, c2 = convlstm_step(p.cell1, x, h, c)
    # gates sigmoid(0)=0.5, candidate tanh(0)=0 -> cell stays 0, hidden stays 0
    assert np.allclose(c2.data, 0.0)
    assert np.allclose(h2.data, 0.0)


def test_temporal_weights_match_exponential_decay(micro_cfg):
    cfg = micro_config(t_obs=11)
    p = make_params(cfg)
    rng = Rng(3)
    rasters, _ = make_frames(cfg, rng, n=11, constant=0.3)
    maps = stack([stem_forward(p, rasters)])
    rows = temporal_context(p, maps, cfg.decay).data[0]
    # identical frames: convlstm output at a given step is fixed, so the row
    # ratio isolates w_t; w_0(latest) = 1, w_{-10} = exp(-1)
    assert math.exp(cfg.decay * 0) == 1.0
    expected = math.exp(-1.0)
    assert expected == pytest.approx(0.36788, abs=5e-6)
    # recompute step-10 unweighted output by rerunning with decay 0
    rows_flat = temporal_context(p, maps, 0.0).data[0]
    ratio = rows[0] / rows_flat[0]
    assert np.allclose(ratio, expected, atol=1e-12)
    assert np.allclose(rows[-1], rows_flat[-1], atol=1e-12)


def test_identical_frames_give_identical_spatial_rows(micro_cfg):
    p = make_params(micro_cfg)
    rasters, boxes = make_frames(micro_cfg, Rng(4))
    out = encode_scene_sequence(p, [np.concatenate([rasters, rasters])], [np.concatenate([boxes, boxes])], micro_cfg)
    assert out.data.shape == (1, 2, micro_cfg.d_model)


def test_single_frame_sequence(micro_cfg):
    p = make_params(micro_cfg)
    rasters, boxes = make_frames(micro_cfg, Rng(5))
    out = encode_scene_sequence(p, [rasters], [boxes], micro_cfg)
    assert out.data.shape == (1, 1, micro_cfg.d_model)


def test_permuting_frames_changes_output(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(6)
    rasters, boxes = make_frames(micro_cfg, rng, n=2)
    a = encode_scene_sequence(p, [rasters], [boxes], micro_cfg)
    b = encode_scene_sequence(p, [rasters[::-1]], [boxes[::-1]], micro_cfg)
    assert np.linalg.norm(a.data - b.data) > 0


def test_a_batched_pool_matches_each_vessels_own_call_bit_for_bit(micro_cfg):
    """Pools with different boxes, one vessel in three off the map (a
    degenerate RoI at every frame), encoded in one call: three vessels, and
    2 * CHUNK + 1, which run in three passes, the last of one vessel. Each
    vessel's features equal its one-vessel call bit for bit, and RoI-Align
    counts the same degenerate boxes."""
    p = make_params(micro_cfg)
    rng = Rng(9)
    corners = (BOX, (4.0, 1.0, 10.0, 6.0), (-3.0, 1.0, -1.0, 3.0))
    for vessels in (3, 2 * CHUNK + 1):
        pool = []
        for v in range(vessels):
            rasters, _ = make_frames(micro_cfg, rng, n=3)
            pool.append((rasters, np.tile(corners[v % 3], (3, 1))))
        reset_roi_diagnostics()
        alone = [encode_scene_sequence(p, [rasters], [boxes], micro_cfg).data[0] for rasters, boxes in pool]
        degenerate_alone = roi_diagnostics()["degenerate_roi"]
        reset_roi_diagnostics()
        batched = encode_scene_sequence(p, [r for r, _ in pool], [b for _, b in pool], micro_cfg)
        assert roi_diagnostics()["degenerate_roi"] == degenerate_alone == 3 * (vessels // 3)
        reset_roi_diagnostics()
        assert batched.shape == (vessels, 3, micro_cfg.d_model)
        for one, many in zip(alone, batched.data):
            assert np.array_equal(one, many)


def test_float32_and_float64_rasters_give_the_same_bits(micro_cfg):
    """The same raster values as float32 (as a sample holds them) or as a
    float64 copy give the same features and parameter gradients, byte for byte."""
    from vesselcast.params import collect_params

    p = make_params(micro_cfg)
    rasters, boxes = make_frames(micro_cfg, Rng(10), n=3)
    got = []
    for r in (rasters, rasters.astype(np.float64)):
        params = collect_params(p)
        for t in params.values():
            t.zero_grad()
        with Tape():
            out = encode_scene_sequence(p, [r], [boxes], micro_cfg)
            backward(tsum(out))
        got.append([out.data.tobytes()] + [t.grad.tobytes() for _, t in sorted(params.items())])
    assert got[0] == got[1]


def test_scene_gradients_vs_finite_differences(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(7)
    rasters, boxes = make_frames(micro_cfg, rng, n=2)
    # probe scaled to keep |loss| small: the 1e-8-floored relative error on
    # near-zero gradient coordinates must reflect correctness, not float64
    # cancellation noise in the central difference
    coeff = 0.1 * np.array(rng.uniforms(2 * micro_cfg.d_model)).reshape(2, micro_cfg.d_model)

    def f(_):
        return tsum(encode_scene_sequence(p, [rasters], [boxes], micro_cfg) * coeff)

    for target in (p.stem1.kernel, p.cell1.kernel, p.target_proj.w, p.out_mlp.fc1.w):
        assert finite_diff_check(f, target) < 1e-4


def _encode_nodes(p, cfg, rasters, boxes):
    with Tape() as tape:
        encode_scene_sequence(p, [rasters], [boxes], cfg)
    return len(tape)


def test_only_the_convlstm_steps_once_per_frame(micro_cfg):
    """One more frame adds exactly one ConvLSTM step (frame slice + both cells)
    to the tape: stem, pooling and MLPs run once over the whole sequence."""
    p = make_params(micro_cfg)
    rng = Rng(8)
    rasters, boxes = make_frames(micro_cfg, rng, n=4)
    with Tape() as tape:
        fmaps = stem_forward(p, rasters)
        state = zeros((1, *fmaps.shape[1:]))
        before = len(tape)
        h1, _ = convlstm_step(p.cell1, narrow(fmaps, 0, 0, 1), state, state)
        convlstm_step(p.cell2, h1, state, state)
    per_step = len(tape) - before
    counts = [_encode_nodes(p, micro_cfg, rasters[:t], boxes[:t]) for t in (1, 2, 3, 4)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [per_step] * 3
