import numpy as np

from conftest import micro_config
from vesselcast.decoder import init_decoder, predict_modes
from vesselcast.engine import Rng, finite_diff_check, tensor, tsum
from vesselcast.metrics import ade_fde
from vesselcast.params import collect_params


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def make_params(cfg, seed=0):
    return init_decoder(Rng(seed).child("init"), cfg)


def normals(rng, cfg):
    """The (1, K, J) noise that `Model.forward_sample` draws from `rng` for its one vessel."""
    return np.array(rng.normals(cfg.modes * cfg.latent_dim)).reshape(1, cfg.modes, cfg.latent_dim)


def decode_eps(p, cfg, f_enc, eps):
    return predict_modes(p, f_enc, eps)


def test_zero_eps_gives_mu_exactly(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = tensor(rand(Rng(1), (1, 1, micro_cfg.d_model)))
    out = decode_eps(p, micro_cfg, f_enc, np.zeros((1, micro_cfg.modes, micro_cfg.latent_dim)))
    assert np.array_equal(out.z.data, out.mu.data)


def test_unit_eps_with_zero_logvar(micro_cfg):
    p = make_params(micro_cfg)
    p.logvar_head.w.data[...] = 0.0
    p.logvar_head.b.data[...] = 0.0
    f_enc = tensor(rand(Rng(2), (1, 1, micro_cfg.d_model)))
    out = decode_eps(p, micro_cfg, f_enc, np.ones((1, micro_cfg.modes, micro_cfg.latent_dim)))
    assert np.allclose(out.z.data, out.mu.data + 1.0, atol=1e-15)


def test_sample_mean_approaches_mu(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = tensor(rand(Rng(3), (1, 1, micro_cfg.d_model)))
    rng = Rng(99)
    draws = []
    out = None
    for _ in range(10_000):
        out = predict_modes(p, f_enc, normals(rng, micro_cfg))
        draws.append(out.z.data)
    draws = np.array(draws)  # (n, K, J)
    sigma = np.exp(0.5 * out.logvar.data)
    # Monte-Carlo oracle: mean within 3 sigma / sqrt(n), for every mode
    tol = 3.0 * sigma / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - out.mu.data) < tol)


def test_zero_decoder_outputs_repeated_biases(micro_cfg):
    p = make_params(micro_cfg)
    for t in collect_params(p).values():
        t.data[...] = 0.0
    p.ais_head.b.data[...] = np.array([0.3, -0.2])
    p.cctv_head.b.data[...] = np.array([1.5, 2.5])
    f_enc = tensor(rand(Rng(4), (1, 1, micro_cfg.d_model)))
    out = decode_eps(p, micro_cfg, f_enc, np.zeros((1, micro_cfg.modes, micro_cfg.latent_dim)))
    k, t = micro_cfg.modes, micro_cfg.t_fut
    assert np.allclose(out.ais.data, np.tile([0.3, -0.2], (1, k, t, 1)))
    assert np.allclose(out.cctv.data, np.tile([1.5, 2.5], (1, k, t, 1)))


def test_different_latents_decode_differently(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = tensor(rand(Rng(5), (1, 1, micro_cfg.d_model)))
    shape = (1, micro_cfg.modes, micro_cfg.latent_dim)
    out1 = decode_eps(p, micro_cfg, f_enc, rand(Rng(6), shape))
    out2 = decode_eps(p, micro_cfg, f_enc, rand(Rng(7), shape))
    for k in range(micro_cfg.modes):
        assert not np.array_equal(out1.z.data[0, k], out2.z.data[0, k])
        assert ade_fde(out1.ais.data[0, k], out2.ais.data[0, k])[0] > 0


def test_predict_modes_shapes_and_determinism(micro_cfg):
    p = make_params(micro_cfg)
    f_enc = tensor(rand(Rng(8), (1, 1, micro_cfg.d_model)))
    k, t, j = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.latent_dim
    out1 = predict_modes(p, f_enc, normals(Rng(55), micro_cfg))
    out2 = predict_modes(p, f_enc, normals(Rng(55), micro_cfg))
    assert out1.ais.shape == (1, k, t, 2)
    assert out1.cctv.shape == (1, k, t, 2)
    assert out1.z.shape == (1, k, j)
    assert np.array_equal(out1.ais.data, out2.ais.data)
    assert np.array_equal(out1.z.data, out2.z.data)


def test_k1_predict_modes(micro_cfg):
    cfg = micro_config(modes=1)
    p = make_params(cfg)
    f_enc = tensor(rand(Rng(9), (1, 1, cfg.d_model)))
    out = predict_modes(p, f_enc, normals(Rng(1), cfg))
    assert out.ais.shape == (1, 1, cfg.t_fut, 2)


def test_distinct_modes_give_distinct_candidates(micro_cfg):
    cfg = micro_config(modes=5)
    p = make_params(cfg)
    f_enc = tensor(rand(Rng(10), (1, 1, cfg.d_model)))
    ais = predict_modes(p, f_enc, np.zeros((1, 5, cfg.latent_dim))).ais.data[0]
    for i in range(5):
        for j in range(i + 1, 5):
            assert ade_fde(ais[i], ais[j])[0] > 0


def test_decoder_gradients(micro_cfg):
    p = make_params(micro_cfg)
    rng = Rng(11)
    k, t, j = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.latent_dim
    f_enc = tensor(rand(rng, (1, 1, micro_cfg.d_model)))
    eps = rand(rng, (1, k, j))
    coeff_a = 0.2 * rand(rng, (1, k, t, 2))
    coeff_c = 0.2 * rand(rng, (1, k, t, 2))

    def f(_):
        out = decode_eps(p, micro_cfg, f_enc, eps)
        return tsum(out.ais * coeff_a) + tsum(out.cctv * coeff_c) + tsum(out.mu * out.mu) + tsum(out.logvar * 0.1)

    for target in (p.expand.fc1.w, p.mu_head.w, p.logvar_head.w, p.mode_embed, p.ais_head.w):
        assert finite_diff_check(f, target) < 1e-4
