import dataclasses

import numpy as np
import pytest

from conftest import micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import generate_scenario
from vesselcast.engine import Rng, Tape, backward, finite_diff_check, no_grad, tsum
from vesselcast.model import Model


def test_forward_shapes(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    preds = model.predict(micro_samples[0], rng=Rng(1))
    k, t = micro_cfg.modes, micro_cfg.t_fut
    assert preds.ais.shape == (k, t, 2)
    assert preds.cctv.shape == (k, t, 2)
    assert preds.latents.shape == (k, micro_cfg.latent_dim)


def test_predict_deterministic_given_rng(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    p1 = model.predict(micro_samples[0], rng=Rng(9), bank=bank)
    p2 = model.predict(micro_samples[0], rng=Rng(9), bank=bank)
    assert np.array_equal(p1.ais, p2.ais)
    assert np.array_equal(p1.latents, p2.latents)


def test_bank_refinement_changes_positional_head_only(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    eps = np.zeros((micro_cfg.modes, micro_cfg.latent_dim))
    base = model.predict(micro_samples[0], eps=eps, bank=None)
    refined = model.predict(micro_samples[0], eps=eps, bank=bank)
    assert not np.array_equal(base.ais, refined.ais)
    assert np.array_equal(base.cctv, refined.cctv)


def test_dark_sample_skips_refinement(micro_cfg, micro_samples):
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    dark = apply_dark_vessels(micro_samples, 1.0, seed=0)[0]
    eps = np.zeros((micro_cfg.modes, micro_cfg.latent_dim))
    with_bank = model.predict(dark, eps=eps, bank=bank)
    without = model.predict(dark, eps=eps, bank=None)
    assert np.array_equal(with_bank.ais, without.ais)


@pytest.mark.parametrize("use_bank", [False, True])
def test_cached_scene_features_match_uncached_predict(micro_cfg, micro_samples, use_bank):
    """A vessel's features, encoded once, serve its lit and its dark copy bit for bit."""
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    lit = micro_samples[0]
    dark = apply_dark_vessels([lit], 1.0, seed=0)[0]
    with no_grad():
        feats = model.encode_scenes(lit)
    for sample in (lit, dark):
        cached = model.predict(sample, rng=Rng(3), bank=bank, scene_feats=feats)
        fresh = model.predict(sample, rng=Rng(3), bank=bank)
        for name in ("ais", "cctv", "latents", "mu", "logvar"):
            assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes(), name


@pytest.mark.parametrize("use_bank", [False, True])
def test_modes_independent_along_mode_axis(micro_cfg, micro_samples, use_bank):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    eps = np.array(Rng(5).normals(micro_cfg.modes * micro_cfg.latent_dim)).reshape(
        micro_cfg.modes, micro_cfg.latent_dim
    )
    base = model.predict(micro_samples[0], eps=eps, bank=bank)
    for k in range(micro_cfg.modes):
        bumped = eps.copy()
        bumped[k] += 0.5
        out = model.predict(micro_samples[0], eps=bumped, bank=bank)
        others = np.arange(micro_cfg.modes) != k
        for name in ("ais", "cctv", "latents"):
            new, old = getattr(out, name), getattr(base, name)
            assert not np.array_equal(new[k], old[k]), name
            assert np.array_equal(new[others], old[others]), name


def test_rng_stream_equals_explicit_eps(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    k, j = micro_cfg.modes, micro_cfg.latent_dim
    from_rng = model.predict(micro_samples[0], rng=Rng(13), bank=bank)
    from_eps = model.predict(micro_samples[0], eps=np.array(Rng(13).normals(k * j)).reshape(k, j), bank=bank)
    for name in ("ais", "cctv", "latents", "mu", "logvar"):
        assert getattr(from_rng, name).tobytes() == getattr(from_eps, name).tobytes(), name


@pytest.mark.parametrize("use_bank", [False, True])
def test_value_stored_at_masked_step_cannot_change_prediction(micro_cfg, micro_samples, use_bank):
    """A NaN stored under a masked step predicts bit for bit what a zero there does."""
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    mask = np.ones(micro_cfg.t_obs, dtype=bool)
    mask[0] = False
    preds = []
    for stored in (0.0, np.nan):
        obs = micro_samples[0].obs_ais.copy()
        obs[0] = stored
        sample = dataclasses.replace(micro_samples[0], obs_ais=obs, ais_mask=mask)
        preds.append(model.predict(sample, rng=Rng(3), bank=bank))
    zero, nan = preds
    for name in ("ais", "cctv", "latents", "mu", "logvar"):
        assert np.all(np.isfinite(getattr(nan, name))), name
        assert getattr(nan, name).tobytes() == getattr(zero, name).tobytes(), name
    assert (nan.prior_index, nan.prior_similarity) == (zero.prior_index, zero.prior_similarity)


@pytest.mark.parametrize("field", ["obs_ais", "ais_mask", "obs_cctv", "scenes"])
def test_observation_window_mismatch_fails_naming_field(micro_cfg, micro_samples, field):
    model = Model(micro_cfg)
    short = dataclasses.replace(micro_samples[0], **{field: getattr(micro_samples[0], field)[:1]})
    with pytest.raises(ValueError, match=rf"{field} has 1 steps but cfg.t_obs is 2"):
        model.predict(short, rng=Rng(0))


def test_longer_observation_window_than_model_fails(micro_cfg):
    model = Model(micro_cfg)
    sample = generate_scenario(micro_waterway(t_obs=4), seed=1)[0]
    with pytest.raises(ValueError, match=r"obs_ais has 4 steps but cfg.t_obs is 2"):
        model.predict(sample, rng=Rng(0))


@pytest.mark.parametrize("key,value", [("t_obs", 4), ("t_fut", 5)])
def test_bank_horizon_mismatch_fails(micro_cfg, micro_samples, key, value):
    model = Model(micro_cfg)
    other = generate_scenario(micro_waterway(**{key: value}), seed=1)
    bank = bank_from_samples(other, 4, seed=0)
    want = getattr(micro_cfg, key)
    with pytest.raises(ValueError, match=rf"bank.{key} has {value} steps but cfg.{key} is {want}"):
        model.predict(micro_samples[0], rng=Rng(0), bank=bank)


@pytest.mark.parametrize("field", ["fut_ais", "fut_cctv"])
def test_loss_batch_future_mismatch_fails(micro_cfg, micro_samples, field):
    model = Model(micro_cfg)
    short = dataclasses.replace(micro_samples[0], **{field: getattr(micro_samples[0], field)[:2]})
    with pytest.raises(ValueError, match=rf"{field} has 2 steps but cfg.t_fut is 3"):
        model.loss_batch([short], rng=Rng(0))


def test_loss_batch_finite_and_winner_range(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    with Tape():
        total, rec, kl, winners = model.loss_batch(micro_samples[:3], rng=Rng(2), bank=bank)
        assert np.isfinite(total.item())
        assert total.item() == pytest.approx(rec.item() + micro_cfg.kl_weight * kl.item(), abs=1e-12)
        assert all(0 <= w < micro_cfg.modes for w in winners)
        backward(total)
    grads = [t.grad for t in model.named.values() if t.grad is not None]
    assert grads, "no parameter received gradient"


def test_full_loss_gradients_every_parameter(micro_cfg, micro_samples):
    """Every parameter tensor of the full pipeline vs central differences."""
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    batch = micro_samples[:2]
    eps = 0.3 * np.array(Rng(4).normals(2 * micro_cfg.modes * micro_cfg.latent_dim)).reshape(
        2, micro_cfg.modes, micro_cfg.latent_dim
    )

    def f(_):
        total, _, _, _ = model.loss_batch(batch, eps=eps, bank=bank)
        return total * 0.01  # keep |loss| small so FD noise stays below the rel-err floor

    failures = {}
    for name, tens in model.named.items():
        err = finite_diff_check(f, tens)
        if err >= 1e-4:
            failures[name] = err
    assert not failures, f"gradcheck failures: {failures}"
