import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import PinnedNormals, micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import generate_scenario
from vesselcast.engine import Rng, Tape, backward, finite_diff_check
from vesselcast.model import Model
from vesselcast.scene_encoder import CHUNK


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
    base = model.predict(micro_samples[0], rng=PinnedNormals(eps), bank=None)
    refined = model.predict(micro_samples[0], rng=PinnedNormals(eps), bank=bank)
    assert not np.array_equal(base.ais, refined.ais)
    assert np.array_equal(base.cctv, refined.cctv)


def test_dark_sample_skips_refinement(micro_cfg, micro_samples):
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    dark = apply_dark_vessels(micro_samples, 1.0, seed=0)[0]
    eps = np.zeros((micro_cfg.modes, micro_cfg.latent_dim))
    with_bank = model.predict(dark, rng=PinnedNormals(eps), bank=bank)
    without = model.predict(dark, rng=PinnedNormals(eps), bank=None)
    assert np.array_equal(with_bank.ais, without.ais)


@pytest.mark.parametrize("use_bank", [False, True])
def test_cached_scene_features_match_uncached_predict(micro_cfg, micro_samples, use_bank):
    """A vessel's scene features, encoded once, serve the encodings of its lit
    (or partly masked) copy and of its dark copy, fused in one call, and each
    copy's row serves every draw on its mask bit for bit, alone or as a pool."""
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    lit = micro_samples[0]
    partial = dataclasses.replace(lit, ais_mask=np.arange(lit.t_obs) > 0)
    copies = [lit, partial, *apply_dark_vessels([lit, partial], 1.0, seed=0)]
    encoding = model.encode(copies[:2], dark=True)
    for seed in (3, 4):
        pooled = model.decode(encoding, [Rng(seed) for _ in copies], bank=bank).modes
        for row, sample in enumerate(copies):
            cached = model.decode(encoding.take([row]), [Rng(seed)], bank=bank).modes
            fresh = model.predict(sample, rng=Rng(seed), bank=bank)
            for name, field in (("ais", "ais"), ("cctv", "cctv"), ("latents", "z")):
                want = getattr(fresh, name).tobytes()
                assert getattr(cached, field).data[0].tobytes() == want, name
                assert getattr(pooled, field).data[row].tobytes() == want, name


def mixed_pool(samples):
    """Dark, lit and partly masked vessels, with a dark one first, so that the
    vessels refinement applies to are not already at the front of the pool."""
    from vesselcast.data import apply_dark_vessels

    first = np.array([True, False])
    return [
        apply_dark_vessels([samples[0]], 1.0, seed=0)[0],
        samples[1],
        dataclasses.replace(samples[2], ais_mask=first),
        apply_dark_vessels([samples[3]], 1.0, seed=0)[0],
        dataclasses.replace(samples[4], ais_mask=~first),
        samples[5],
    ]


@pytest.mark.parametrize("modes", [1, 5])
@pytest.mark.parametrize("use_bank", [False, True])
def test_a_pooled_predict_matches_each_vessels_own_predict_bit_for_bit(modes, use_bank):
    """One `decode` pass decodes and refines a pool of lit, partly masked and
    dark vessels; each vessel's candidates, latents and retrieved entry equal
    its one-vessel `predict` on the same rng bit for bit."""
    model = Model(micro_config(modes=modes))
    samples = generate_scenario(micro_waterway(vessel_count=7), seed=5)
    bank = bank_from_samples(samples, 4, seed=0) if use_bank else None
    pool = mixed_pool(samples)
    fwd = model.decode(model.encode(pool), [Rng(11).child(s.vessel_id) for s in pool], bank=bank)
    assert fwd.prior_index.shape == fwd.prior_similarity.shape == (len(fwd.modes.z.data),) == (len(pool),)
    for row, sample in enumerate(pool):
        want = model.predict(sample, rng=Rng(11).child(sample.vessel_id), bank=bank)
        for name, field in (("ais", "ais"), ("cctv", "cctv"), ("latents", "z")):
            got = getattr(fwd.modes, field).data[row]
            assert got.shape == getattr(want, name).shape, name
            assert np.array_equal(got, getattr(want, name)), (sample.vessel_id, name)
        if want.prior_index is None:
            assert fwd.prior_index[row] == -1 and np.isnan(fwd.prior_similarity[row])
        else:
            got = (int(fwd.prior_index[row]), float(fwd.prior_similarity[row]))
            assert got == (want.prior_index, want.prior_similarity)
    assert (fwd.prior_index >= 0).sum() == (4 if use_bank else 0)


@pytest.mark.parametrize("use_scene", [False, True])
def test_dark_rows_of_encode_match_encoding_the_dark_copies(use_scene):
    """`encode(samples, dark=True)` holds `encode(samples)` in rows 0..V-1 and
    `encode` of the all-dark copies in rows V..2V-1, bit for bit, for lit,
    partly masked and dark vessels."""
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_config(use_scene=use_scene))
    pool = mixed_pool(generate_scenario(micro_waterway(vessel_count=7), seed=5))
    both = model.encode(pool, dark=True)
    halves = (model.encode(pool), model.encode(apply_dark_vessels(pool, 1.0, 0)))
    for rows, want in zip((slice(0, len(pool)), slice(len(pool), None)), halves):
        assert both.f_enc.data[rows].tobytes() == want.f_enc.data.tobytes()
        assert both.keys[rows].tobytes() == want.keys.tobytes()
        assert np.array_equal(both.ais_mask[rows], want.ais_mask)
    assert not both.ais_mask[len(pool):].any()


def test_decode_needs_one_rng_per_encoding_row(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    encoding = model.encode(mixed_pool(micro_samples))
    with pytest.raises(ValueError, match="one rng per encoding row"):
        model.decode(encoding, [Rng(0)])


@pytest.mark.parametrize("use_bank", [False, True])
def test_modes_independent_along_mode_axis(micro_cfg, micro_samples, use_bank):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    eps = np.array(Rng(5).normals(micro_cfg.modes * micro_cfg.latent_dim)).reshape(
        micro_cfg.modes, micro_cfg.latent_dim
    )
    base = model.predict(micro_samples[0], rng=PinnedNormals(eps), bank=bank)
    for k in range(micro_cfg.modes):
        bumped = eps.copy()
        bumped[k] += 0.5
        out = model.predict(micro_samples[0], rng=PinnedNormals(bumped), bank=bank)
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
    from_eps = model.predict(micro_samples[0], rng=PinnedNormals(Rng(13).normals(k * j)), bank=bank)
    for name in ("ais", "cctv", "latents"):
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
    for name in ("ais", "cctv", "latents"):
        assert np.all(np.isfinite(getattr(nan, name))), name
        assert getattr(nan, name).tobytes() == getattr(zero, name).tobytes(), name
    assert (nan.prior_index, nan.prior_similarity) == (zero.prior_index, zero.prior_similarity)


@pytest.mark.parametrize("use_bank", [False, True])
@pytest.mark.parametrize("field", ["obs_ais", "obs_cctv"])
def test_non_finite_observation_fails_naming_field_and_step(micro_cfg, micro_samples, field, use_bank):
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0) if use_bank else None
    track = getattr(micro_samples[0], field).copy()
    track[1, 0] = np.inf if field == "obs_cctv" else np.nan
    sample = dataclasses.replace(
        micro_samples[0], ais_mask=np.ones(micro_cfg.t_obs, dtype=bool), **{field: track}
    )
    with pytest.raises(ValueError, match=rf"{field} is not finite at step 1"):
        model.predict(sample, rng=Rng(0), bank=bank)


def test_raster_side_other_than_raster_size_fails(micro_cfg):
    model = Model(micro_cfg)
    sample = generate_scenario(micro_waterway(raster_size=16), seed=1)[0]
    with pytest.raises(ValueError, match=r"scenes.raster at step 0 has shape \(3, 16, 16\), not \(3, 12, 12\)"):
        model.predict(sample, rng=Rng(0))


def test_non_finite_raster_fails_naming_step(micro_cfg, micro_samples):
    model = Model(micro_cfg)
    rasters = micro_samples[0].rasters.copy()
    rasters[1, 2, 5, 5] = np.nan
    sample = dataclasses.replace(micro_samples[0], rasters=rasters)
    with pytest.raises(ValueError, match=r"scenes.raster is not finite at step 1"):
        model.predict(sample, rng=Rng(0))
    with pytest.raises(ValueError, match=r"scenes.raster is not finite at step 1"):
        model.encode([sample], dark=True)


@pytest.mark.parametrize("field", ["obs_ais", "ais_mask", "obs_cctv", "scenes"])
def test_observation_window_mismatch_fails_naming_field(micro_cfg, micro_samples, field):
    model = Model(micro_cfg)
    attrs = ("rasters", "boxes") if field == "scenes" else (field,)  # a frame is one row of each
    short = dataclasses.replace(micro_samples[0], **{a: getattr(micro_samples[0], a)[:1] for a in attrs})
    rule = "but cfg.t_obs is 2" if field == "obs_ais" else "for 2 obs_ais rows"  # the model's rule, or the record's
    with pytest.raises(ValueError, match=rf"{field} has 1 steps {rule}"):
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


@pytest.mark.parametrize("dark", [False, True], ids=["encode", "encode-dark"])
def test_encoding_no_samples_fails_naming_samples(micro_cfg, dark):
    with pytest.raises(ValueError, match="samples is empty"):
        Model(micro_cfg).encode([], dark=dark)


def test_scene_encoding_memory_does_not_grow_with_the_pool():
    """Scenes are encoded `CHUNK` vessels per pass, and a pass's maps are
    freed before the next pass's stems run, so encoding 3 * CHUNK vessels
    peaks no higher than encoding CHUNK, plus slack; in one pass over the
    whole pool it was more than twice as high."""
    cfg = micro_config(raster_size=24, stem_channels=(4, 4, 4))
    samples = generate_scenario(micro_waterway(vessel_count=3 * CHUNK, raster_size=24), seed=5)
    model = Model(cfg)
    model.encode(samples, dark=True)  # fills the gather-index cache before measuring
    peaks = []
    for pool in (samples[:CHUNK], samples):
        tracemalloc.start()
        try:
            model.encode(pool, dark=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("field", ["fut_ais", "fut_cctv", "samples"])
def test_loss_batch_future_mismatch_fails(micro_cfg, micro_samples, field):
    """A short future fails naming the field and the vessel; an empty batch
    fails naming `samples`."""
    model = Model(micro_cfg)
    if field == "samples":
        with pytest.raises(ValueError, match="samples is empty"):
            model.loss_batch([], rng=Rng(0))
        return
    short = dataclasses.replace(micro_samples[0], **{field: getattr(micro_samples[0], field)[:2]})
    rule = "but cfg.t_fut is 3" if field == "fut_ais" else "for 3 fut_ais rows"
    with pytest.raises(ValueError, match=rf"{field} has 2 steps {rule} \(vessel_id '{short.vessel_id}'\)"):
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


def test_each_entry_point_checks_each_sample_once(micro_cfg, micro_samples, monkeypatch):
    """`loss_batch` checks each sample of its batch once, and `predict` its
    one sample once: the encoding and fusion they share check nothing again."""
    from vesselcast.data import VesselSample

    calls = []
    real_validate = VesselSample.validate

    def counting_validate(self):
        calls.append(self.vessel_id)
        return real_validate(self)

    monkeypatch.setattr(VesselSample, "validate", counting_validate)
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    batch = micro_samples[:3]
    with Tape():
        model.loss_batch(batch, rng=Rng(2), bank=bank)
    assert calls == [s.vessel_id for s in batch]
    calls.clear()
    model.predict(micro_samples[3], rng=Rng(2), bank=bank)
    assert calls == [micro_samples[3].vessel_id]


def test_micro_loss_batch_graph_size(micro_cfg, micro_samples):
    """A guard on the tape a training step walks: a micro 2-sample batch with
    a bank records at most 430 nodes, since only the stem and the ConvLSTM
    run per sample."""
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    with Tape() as tape:
        total, _, _, _ = model.loss_batch(micro_samples[:2], rng=Rng(1), bank=bank)
    assert total.node_id + 1 == len(tape) <= 430


def test_every_parameter_moves_the_loss(micro_cfg, micro_samples):
    """A guard against dead parameters: in one training step on a lit vessel
    and one with a masked step (the mask token's only source of gradient),
    every parameter's largest |grad| is more than 1e-12 of the largest over
    all parameters. A parameter the forward pass cancels, such as a key bias
    under softmax, reads about 1e-19."""
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    masked = dataclasses.replace(micro_samples[1], ais_mask=np.array([True, False]))
    with Tape():
        total, _, _, _ = model.loss_batch([micro_samples[0], masked], rng=Rng(2), bank=bank)
        backward(total)
    peak = {name: np.abs(t.grad).max() if t.grad is not None else 0.0 for name, t in model.named.items()}
    floor = 1e-12 * max(peak.values())
    assert [name for name, g in peak.items() if not g > floor] == []


def test_loss_batch_on_dark_samples_leaves_every_refine_grad_none(micro_cfg, micro_samples):
    """With no broadcast step in the batch nothing is refined, so the
    refinement parameters get no gradient at all, not a zero one."""
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    dark = apply_dark_vessels(micro_samples[:3], 1.0, seed=0)
    with Tape():
        total, _, _, _ = model.loss_batch(dark, rng=Rng(2), bank=bank)
        backward(total)
    refine = {name: t.grad for name, t in model.named.items() if name.startswith("refine.")}
    assert refine and all(grad is None for grad in refine.values()), refine
    assert model.named["decoder.mode_embed"].grad is not None


def per_sample_losses(model, batch, rng, bank):
    """The loop `loss_batch` batches: one `forward_sample` per sample on the
    shared rng, each winner by `argmin` over its modes' summed mean step
    distances, and the batch means of the winning distances and of each
    sample's mode-averaged KL, summed in sample order."""
    recs, kls, winners = [], [], []
    for sample in batch:
        modes = model.forward_sample(sample, rng, bank=bank).modes
        dist = sum(
            np.sqrt(((pred.data[0] - gt) ** 2).sum(-1)).sum(-1) * (1.0 / len(gt))
            for pred, gt in ((modes.ais, sample.fut_ais), (modes.cctv, sample.fut_cctv))
        )
        winners.append(int(np.argmin(dist)))
        recs.append(dist[winners[-1]])
        mu, logvar = modes.mu.data[0], modes.logvar.data[0]
        kls.append(((1.0 + logvar - mu * mu - np.exp(logvar)).sum(-1) * -0.5).sum() * (1.0 / len(mu)))
    rec, kl = sum(recs) / len(batch), sum(kls) / len(batch)
    return rec + kl * model.cfg.kl_weight, rec, kl, winners


@pytest.mark.parametrize("modes", [1, 5])
@pytest.mark.parametrize("use_bank", [False, True])
def test_loss_batch_matches_a_per_sample_loop(monkeypatch, modes, use_bank):
    """One `loss_batch` over lit, partly masked and dark samples decodes the
    batch in one `predict_modes` call and scores it in one `sample_losses`
    call; its winners equal the per-sample loop's, and its losses agree with
    the loop's within 4 ulp."""
    import vesselcast.model as model_mod

    model = Model(micro_config(modes=modes))
    samples = generate_scenario(micro_waterway(vessel_count=7), seed=5)
    bank = bank_from_samples(samples, 4, seed=0) if use_bank else None
    batch = mixed_pool(samples)
    calls = {"predict_modes": 0, "sample_losses": 0}

    def counting(name):
        real = getattr(model_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(model_mod, name, counting(name))
    total, rec, kl, winners = model.loss_batch(batch, rng=Rng(13), bank=bank)
    assert calls == {"predict_modes": 1, "sample_losses": 1}
    want = per_sample_losses(model, batch, Rng(13), bank)
    assert winners == want[3]
    for got, ref in zip((total, rec, kl), want):
        np.testing.assert_array_max_ulp(np.array(got.item()), np.array(ref), maxulp=4)


@pytest.mark.parametrize("modes", [1, 5])
def test_a_dark_sample_adds_nothing_to_the_refinement_gradients(modes):
    """In a [lit, dark] batch the batch mean halves the lit sample's weight
    and the dark sample is never refined, so every refinement gradient is
    exactly half that of [lit] alone."""
    from vesselcast.data import apply_dark_vessels

    model = Model(micro_config(modes=modes))
    samples = generate_scenario(micro_waterway(vessel_count=7), seed=5)
    bank = bank_from_samples(samples, 4, seed=0)
    lit, dark = samples[1], apply_dark_vessels([samples[2]], 1.0, seed=0)[0]
    grads = []
    for batch in ([lit], [lit, dark]):
        for t in model.named.values():
            t.grad = None
        with Tape():
            total, _, _, _ = model.loss_batch(batch, rng=Rng(13), bank=bank)
            backward(total)
        grads.append({name: t.grad for name, t in model.named.items() if name.startswith("refine.")})
    alone, paired = grads
    assert alone and all(g is not None for g in alone.values())
    for name, grad in alone.items():
        assert np.array_equal(paired[name], 0.5 * grad), name


def test_full_loss_gradients_every_parameter(micro_cfg, micro_samples):
    """Every parameter tensor of the full pipeline vs central differences."""
    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    batch = micro_samples[:2]
    eps = 0.3 * np.array(Rng(4).normals(2 * micro_cfg.modes * micro_cfg.latent_dim)).reshape(
        2, micro_cfg.modes, micro_cfg.latent_dim
    )

    def f(_):
        total, _, _, _ = model.loss_batch(batch, rng=PinnedNormals(eps), bank=bank)
        return total * 0.01  # keep |loss| small so FD noise stays below the rel-err floor

    failures = {}
    for name, tens in model.named.items():
        err = finite_diff_check(f, tens)
        if err >= 1e-4:
            failures[name] = err
    assert not failures, f"gradcheck failures: {failures}"
