import numpy as np
import pytest

from conftest import micro_config
from vesselcast.engine import Rng, finite_diff_check, tensor, tsum
from vesselcast.engine.tensor import DimensionError
from vesselcast.fusion import (
    attention,
    attention_weights,
    cross_modal_block,
    encode_and_fuse,
    init_fusion,
)
from vesselcast.params import collect_params


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def make_params(cfg, seed=0):
    return init_fusion(Rng(seed).child("init"), cfg)


def test_attention_identical_keys_average_values(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(1)
    d = micro_cfg.d_model
    q = tensor(rand(rng, (3, d)))
    key_row = rand(rng, (1, d))
    keys = tensor(np.repeat(key_row, 4, axis=0))
    values = tensor(rand(rng, (4, d)))
    out = attention(q, keys, values, p.block1.sa, micro_cfg.heads)
    # identical keys make every weight 1/4, so output = projected mean value
    mean_v = tensor(values.data.mean(axis=0, keepdims=True))
    expected = attention(q, tensor(key_row), mean_v, p.block1.sa, micro_cfg.heads)
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_attention_single_key_ignores_query(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(2)
    d = micro_cfg.d_model
    kv = tensor(rand(rng, (1, d)))
    out1 = attention(tensor(rand(rng, (2, d))), kv, kv, p.block1.ca, micro_cfg.heads)
    out2 = attention(tensor(rand(rng, (2, d))), kv, kv, p.block1.ca, micro_cfg.heads)
    assert np.allclose(out1.data[0], out1.data[1], atol=1e-12)
    assert np.allclose(out1.data, out2.data, atol=1e-12)
    # and it equals Wo(Wv v + bv) + bo
    v_proj = p.block1.ca.wv(kv)
    expected = p.block1.ca.wo(v_proj)
    assert np.allclose(out1.data[0], expected.data[0], atol=1e-12)


def test_attention_rows_sum_to_one(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(3)
    d = micro_cfg.d_model
    q = tensor(rand(rng, (5, d), -2, 2))
    kv = tensor(rand(rng, (7, d), -2, 2))
    weights = attention_weights(q, kv, p.block1.sa, micro_cfg.heads)
    assert weights.shape == (micro_cfg.heads, 5, 7)
    for w in weights.data:
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_batched_heads_match_per_head_reference():
    cfg = micro_config(d_model=8, heads=4)
    p = make_params(cfg)
    rng = Rng(9)
    q_in, kv_in = rand(rng, (5, 8), -2, 2), rand(rng, (7, 8), -2, 2)
    a = p.block1.ca

    def proj(lin, x):
        return x @ lin.w.data + lin.b.data

    q, k, v = proj(a.wq, q_in), kv_in @ a.wk.data, proj(a.wv, kv_in)
    heads = []
    for h in range(4):
        cols = slice(2 * h, 2 * h + 2)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(2.0)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
    expected = proj(a.wo, np.concatenate(heads, axis=1))
    out = attention(tensor(q_in), tensor(kv_in), tensor(kv_in), a, 4)
    assert np.abs(out.data - expected).max() <= 1e-12


def test_attention_length_mismatch():
    cfg = micro_config()
    p = make_params(cfg)
    d = cfg.d_model
    with pytest.raises(DimensionError):
        attention(tensor(np.zeros((2, d))), tensor(np.zeros((3, d))), tensor(np.zeros((4, d))), p.block1.sa, cfg.heads)


def test_block_is_asymmetric(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(4)
    d = micro_cfg.d_model
    a = tensor(rand(rng, (3, d)))
    b = tensor(rand(rng, (3, d)))
    out_ab = cross_modal_block(a, b, p.block1, micro_cfg.heads)
    out_ba = cross_modal_block(b, a, p.block1, micro_cfg.heads)
    assert np.linalg.norm(out_ab.data - out_ba.data) > 1e-6


def test_block_output_length_follows_primary(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(5)
    d = micro_cfg.d_model
    a = tensor(rand(rng, (3, d)))
    for t2 in (1, 4, 9):
        out = cross_modal_block(a, tensor(rand(rng, (t2, d))), p.block1, micro_cfg.heads)
        assert out.data.shape == (3, d)


def test_block_null_memory_reduces_to_sa_ffn_path(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(6)
    d = micro_cfg.d_model
    # zero value projection and single zero memory vector => CA adds only
    # its output bias, which we also zero
    p.block1.ca.wv.w.data[...] = 0.0
    p.block1.ca.wv.b.data[...] = 0.0
    p.block1.ca.wo.w.data[...] = 0.0
    p.block1.ca.wo.b.data[...] = 0.0
    a = tensor(rand(rng, (3, d)))
    null_memory = tensor(np.zeros((1, d)))
    out = cross_modal_block(a, null_memory, p.block1, micro_cfg.heads)
    # manual SA + FFN path with CA contributing zero
    from vesselcast.engine import add, layer_norm

    zbar = layer_norm(add(a, attention(a, a, a, p.block1.sa, micro_cfg.heads)), p.block1.ln1_gain, p.block1.ln1_bias)
    ztil = layer_norm(zbar, p.block1.ln2_gain, p.block1.ln2_bias)
    zf = layer_norm(add(ztil, p.block1.ffn(ztil)), p.block1.ln3_gain, p.block1.ln3_bias)
    assert np.allclose(out.data, zf.data, atol=1e-12)


def test_block_gradients(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(7)
    d = micro_cfg.d_model
    z1 = tensor(rand(rng, (3, d)), requires_grad=True)
    z2 = tensor(rand(rng, (2, d)))
    coeff = 0.1 * rand(rng, (3, d))

    def f(t):
        return tsum(cross_modal_block(t, z2, p.block1, micro_cfg.heads) * coeff)

    assert finite_diff_check(f, z1) < 1e-4
    for target in (p.block1.sa.wq.w, p.block1.ca.wk, p.block1.ffn.fc1.w, p.block1.ln2_gain):
        assert finite_diff_check(lambda _: tsum(cross_modal_block(z1, z2, p.block1, micro_cfg.heads) * coeff), target) < 1e-4


def test_fully_masked_track_uses_token_and_is_coordinate_invariant(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(8)
    t = micro_cfg.t_obs
    mask = np.zeros(t, dtype=bool)
    cctv = rand(rng, (t, 2))
    out_a = encode_and_fuse(p, rand(rng, (t, 2)), mask, cctv, None, micro_cfg.heads)
    out_b = encode_and_fuse(p, rand(rng, (t, 2)) + 99.0, mask, cctv, None, micro_cfg.heads)
    assert np.array_equal(out_a[0].data, out_b[0].data)
    assert np.all(np.isfinite(out_a[0].data))


def test_single_step_pooling_is_identity(micro_cfg):
    cfg = micro_config(t_obs=1)
    p = make_params(cfg)
    rng = Rng(9)
    fused, pooled = encode_and_fuse(p, rand(rng, (1, 2)), np.ones(1, dtype=bool), rand(rng, (1, 2)), None, cfg.heads)
    assert np.allclose(pooled.data, fused.data, atol=1e-15)


def test_cctv_perturbation_changes_output(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(10)
    t = micro_cfg.t_obs
    ais = rand(rng, (t, 2))
    mask = np.ones(t, dtype=bool)
    cctv = rand(rng, (t, 2))
    f1, _ = encode_and_fuse(p, ais, mask, cctv, None, micro_cfg.heads)
    cctv2 = cctv.copy()
    cctv2[0, 0] += 0.25
    f2, _ = encode_and_fuse(p, ais, mask, cctv2, None, micro_cfg.heads)
    assert np.linalg.norm(f1.data - f2.data) > 0


def test_every_fusion_parameter_gets_gradient(micro_cfg):
    from vesselcast.engine import Tape, backward

    p = make_params(micro_cfg)
    rng = Rng(11)
    t = micro_cfg.t_obs
    d = micro_cfg.d_model
    ais = rand(rng, (t, 2))
    mask = np.ones(t, dtype=bool)
    mask[0] = False  # exercise the mask-token path too
    cctv = rand(rng, (t, 2))
    scene = tensor(rand(rng, (t, d)))
    coeff = rand(rng, (t, d))
    with Tape():
        fused, pooled = encode_and_fuse(p, ais, mask, cctv, scene, micro_cfg.heads)
        loss = tsum(fused * coeff) + tsum(pooled * pooled)
        backward(loss)
    for name, tens in collect_params(p).items():
        assert tens.grad is not None, f"no gradient for {name}"
        assert np.linalg.norm(tens.grad) > 0, f"zero gradient for {name}"


@pytest.mark.parametrize("use_cctv", [True, False])
@pytest.mark.parametrize("with_scene", [True, False])
def test_a_pooled_fusion_matches_each_vessels_own_call_bit_for_bit(micro_cfg, with_scene, use_cctv):
    """One `encode_and_fuse` call over a lit, a partly masked and a dark vessel
    (a NaN stored under a masked step) equals each vessel's own call, without
    the vessel axis, bit for bit: per-step features and pooled encoding."""
    p = make_params(micro_cfg)
    rng = Rng(12)
    t, d = micro_cfg.t_obs, micro_cfg.d_model
    ais = rand(rng, (3, t, 2))
    ais[2, 0] = np.nan
    masks = np.array([[True] * t, [False] + [True] * (t - 1), [False] * t])
    cctv = rand(rng, (3, t, 2))
    scene = rand(rng, (3, t, d)) if with_scene else None
    fused, pooled = encode_and_fuse(
        p, ais, masks, cctv, tensor(scene) if with_scene else None, micro_cfg.heads, use_cctv=use_cctv
    )
    assert fused.shape == (3, t, d) and pooled.shape == (3, 1, d)
    for v in range(3):
        one_fused, one_pooled = encode_and_fuse(
            p, ais[v], masks[v], cctv[v], tensor(scene[v]) if with_scene else None, micro_cfg.heads, use_cctv=use_cctv
        )
        assert fused.data[v].tobytes() == one_fused.data.tobytes(), v
        assert pooled.data[v].tobytes() == one_pooled.data.tobytes(), v
    assert np.all(np.isfinite(fused.data))
