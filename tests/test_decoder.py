import numpy as np

from conftest import micro_config
from vesselcast.decoder import init_decoder, mode_codes, predict_modes
from vesselcast.engine import Rng, finite_diff_check, tensor, tsum
from vesselcast.metrics import ade_fde
from vesselcast.params import collect_params


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def make_params(cfg, seed=0):
    return init_decoder(Rng(seed).child("init"), cfg)


def test_mode_codes_are_the_encoding_then_the_mode_embedding(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = rand(Rng(1), (3, 1, micro_cfg.d_model))
    codes = mode_codes(p, tensor(f_enc)).data
    assert codes.shape == (3, micro_cfg.modes, 2 * micro_cfg.d_model)
    for v in range(3):
        for k in range(micro_cfg.modes):
            assert codes[v, k].tobytes() == np.concatenate([f_enc[v, 0], p.mode_embed.data[k]]).tobytes()


def test_zero_decoder_outputs_repeated_biases(micro_cfg):
    p = make_params(micro_cfg)
    for t in collect_params(p).values():
        t.data[...] = 0.0
    p.ais_head.b.data[...] = np.array([0.3, -0.2])
    p.cctv_head.b.data[...] = np.array([1.5, 2.5])
    f_enc = tensor(rand(Rng(4), (1, 1, micro_cfg.d_model)))
    out = predict_modes(p, f_enc)
    k, t = micro_cfg.modes, micro_cfg.t_fut
    assert np.allclose(out.ais.data, np.tile([0.3, -0.2], (1, k, t, 1)))
    assert np.allclose(out.cctv.data, np.tile([1.5, 2.5], (1, k, t, 1)))


def test_predict_modes_shapes_and_determinism(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = tensor(rand(Rng(8), (1, 1, micro_cfg.d_model)))
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    out1 = predict_modes(p, f_enc)
    out2 = predict_modes(p, f_enc)
    assert out1.ais.shape == (1, k, t, 2)
    assert out1.cctv.shape == (1, k, t, 2)
    assert out1.features.shape == (1, k, t, d)
    assert np.array_equal(out1.ais.data, out2.ais.data)
    assert np.array_equal(out1.cctv.data, out2.cctv.data)


def test_k1_predict_modes(micro_cfg):
    cfg = micro_config(modes=1)
    p = make_params(cfg)
    f_enc = tensor(rand(Rng(9), (1, 1, cfg.d_model)))
    out = predict_modes(p, f_enc)
    assert out.ais.shape == (1, 1, cfg.t_fut, 2)


def test_distinct_modes_give_distinct_candidates(micro_cfg):
    cfg = micro_config(modes=5)
    p = make_params(cfg)
    f_enc = tensor(rand(Rng(10), (1, 1, cfg.d_model)))
    ais = predict_modes(p, f_enc).ais.data[0]
    for i in range(5):
        for j in range(i + 1, 5):
            assert ade_fde(ais[i], ais[j])[0] > 0


def test_decoder_gradients(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(11)
    k, t = micro_cfg.modes, micro_cfg.t_fut
    f_enc = tensor(rand(rng, (1, 1, micro_cfg.d_model)))
    coeff_a = 0.2 * rand(rng, (1, k, t, 2))
    coeff_c = 0.2 * rand(rng, (1, k, t, 2))

    def f(_):
        out = predict_modes(p, f_enc)
        return tsum(out.ais * coeff_a) + tsum(out.cctv * coeff_c)

    for target in (p.expand.fc1.w, p.expand.fc2.w, p.mode_embed, p.ais_head.w, p.cctv_head.w):
        assert finite_diff_check(f, target) < 1e-4
