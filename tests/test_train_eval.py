import dataclasses
import tracemalloc

import numpy as np
import pytest

import vesselcast.model as model_mod
import vesselcast.scene_encoder as scene_mod
import vesselcast.train as train_mod
from conftest import micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import apply_dark_vessels, generate_scenario
from vesselcast.data.types import FieldError
from vesselcast.engine import Rng, Tape, backward
from vesselcast.evaluate import _METRICS, _scores, evaluate, write_report
from vesselcast.model import Model, SampleEncoding
from vesselcast.train import DivergenceError, PlateauScheduler, train


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_scenario(micro_waterway(vessel_count=8), seed=5)


def test_frozen_optimizer_keeps_parameters_and_loss(tiny_dataset):
    # lr must be positive per config contract; 1e-30 is numerically frozen.
    # With the optimizer frozen the epoch is a pure function of (data, seed):
    # parameters stay at init and rerunning gives the identical loss.
    cfg = micro_config(lr=1e-30, epochs=1, batch_size=4)
    model, curve_a = train(tiny_dataset, cfg)
    _, curve_b = train(tiny_dataset, cfg)
    fresh = Model(cfg)
    for name, tens in model.named.items():
        assert np.allclose(tens.data, fresh.named[name].data, atol=1e-20), name
    assert curve_a[0].total == curve_b[0].total
    assert curve_a[0].rec == curve_b[0].rec


def test_training_reduces_loss(tiny_dataset):
    cfg = micro_config(lr=3e-3, epochs=12, batch_size=4, seed=1)
    bank = bank_from_samples(tiny_dataset, 4, seed=cfg.seed)
    model, curve = train(tiny_dataset, cfg, bank=bank)
    assert curve[-1].total < curve[0].total
    assert all(np.isfinite(s.total) for s in curve)


def test_same_seed_identical_curves(tiny_dataset):
    cfg = micro_config(lr=1e-3, epochs=3, batch_size=4, seed=7)
    _, c1 = train(tiny_dataset, cfg)
    _, c2 = train(tiny_dataset, cfg)
    assert [(s.total, s.rec, s.kl) for s in c1] == [(s.total, s.rec, s.kl) for s in c2]


def test_training_holds_one_step_graph_at_a_time(tiny_dataset):
    """A second step starts after the first step's graph is freed, so two
    steps peak no higher than one plus slack."""
    batch = tiny_dataset[:2]
    cfg = micro_config(epochs=1, batch_size=2)
    train(batch, cfg)  # fills the gather-index cache before measuring
    peaks = []
    for epochs in (1, 2):
        tracemalloc.start()
        try:
            train(batch, dataclasses.replace(cfg, epochs=epochs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.4 * peaks[0], peaks


def epoch_zero_order(samples, cfg):
    """The samples in the order `train` visits them in epoch 0."""
    order = list(range(len(samples)))
    Rng(cfg.seed).child("batch-order").child(0).shuffle(order)
    return [samples[i] for i in order]


def test_training_memory_does_not_grow_with_the_batch(tiny_dataset):
    """A step holds one sample's graph at a time, so an epoch of one
    8-sample step peaks no higher than an epoch of eight 1-sample steps,
    plus slack; with one tape per batch it was about twice as high.

    One untraced run at each batch size first fills the gather-index cache
    and whatever memory the interpreter keeps for reuse after a run of that
    size; with one warm-up at batch size 1, some orders of the tests before
    it charged that memory to the traced 8-sample run."""
    cfg = micro_config(epochs=1, batch_size=1)
    for batch_size in (1, 8):
        train(tiny_dataset, dataclasses.replace(cfg, batch_size=batch_size))
    peaks = []
    for batch_size in (1, 8):
        tracemalloc.start()
        try:
            train(tiny_dataset, dataclasses.replace(cfg, batch_size=batch_size))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_one_batch_epoch_equals_loss_batch(tiny_dataset, monkeypatch):
    """An epoch of one batch reports `loss_batch`'s batch-mean losses bit for
    bit, and its per-sample backward passes add up to the gradients of
    `loss_batch`'s one backward pass, to rounding: the contributions are
    summed in another order."""
    cfg = micro_config(epochs=1, batch_size=len(tiny_dataset), lr=1e-3)
    bank = bank_from_samples(tiny_dataset, 4, seed=cfg.seed)
    stepped = []

    class RecordingAdam(train_mod.Adam):
        def step(self):
            stepped.append({name: p.grad.copy() for name, p in self.params.items()})
            super().step()

    monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
    _, curve = train(tiny_dataset, cfg, bank=bank)

    model = Model(cfg)
    with Tape():
        total, rec, kl, _ = model.loss_batch(
            epoch_zero_order(tiny_dataset, cfg), rng=Rng(cfg.seed).child("latent-noise").child(0), bank=bank
        )
        backward(total)
    assert (curve[0].total, curve[0].rec, curve[0].kl) == (total.item(), rec.item(), kl.item())
    (grads,) = stepped
    assert grads.keys() == model.named.keys()
    for name, t in model.named.items():
        scale = np.abs(t.grad).max()
        np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-12 * scale, err_msg=name)


def test_scheduler_halves_on_plateau():
    class FakeOpt:
        lr = 1.0

    opt = FakeOpt()
    sched = PlateauScheduler(opt, factor=0.5, patience=3, threshold=1e-4)
    sched.step(1.0)
    for _ in range(3):
        sched.step(1.0)  # no improvement
    assert opt.lr == 0.5
    # improvement resets staleness
    sched.step(0.5)
    sched.step(0.499)  # below threshold relative improvement? 0.002 > 1e-4 -> improves
    assert opt.lr == 0.5


def test_scheduler_lr_monotone_nonincreasing(tiny_dataset):
    cfg = micro_config(lr=1e-3, epochs=6, batch_size=4, scheduler_patience=2)
    _, curve = train(tiny_dataset, cfg)
    lrs = [s.lr for s in curve]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


def test_divergence_guard(tiny_dataset, monkeypatch):
    """A non-finite loss stops training at the first sample of the batch
    order, naming it, before that sample's backward and before any Adam
    step: no parameter has a gradient or has moved."""
    cfg = micro_config(lr=1e-3, epochs=1, batch_size=4)
    built = []

    class PoisonedModel(Model):
        def __init__(self, cfg2, seed=None):
            super().__init__(cfg2, seed=seed)
            self.named["decoder.ais_head.b"].data[...] = np.nan
            built.append(self)

    monkeypatch.setattr(train_mod, "Model", PoisonedModel)
    first = epoch_zero_order(tiny_dataset, cfg)[0].vessel_id
    with pytest.raises(DivergenceError, match=rf"step 0 \(epoch 0, vessel_id '{first}'\)"):
        train(tiny_dataset, cfg)
    (model,) = built
    fresh = Model(cfg)
    for name, t in model.named.items():
        assert t.grad is None, name
        if name != "decoder.ais_head.b":
            assert t.data.tobytes() == fresh.named[name].data.tobytes(), name


@pytest.mark.parametrize("fault", ["future", "bank"])
def test_train_fails_at_the_boundary_before_any_step(tiny_dataset, monkeypatch, fault):
    """A sample or a bank that a training step would reject fails before the
    first `loss_batch` call, naming the field and, for a sample, its vessel."""
    cfg = micro_config(epochs=2, batch_size=2)
    samples, bank = list(tiny_dataset), None
    if fault == "future":
        last = samples[-1]
        samples[-1] = dataclasses.replace(last, fut_ais=last.fut_ais[:2])
        message = rf"fut_ais has 2 steps but cfg.t_fut is 3 \(vessel_id '{last.vessel_id}'\)"
    else:
        bank = bank_from_samples(generate_scenario(micro_waterway(t_fut=4), seed=1), 4, seed=0)
        message = "bank.t_fut has 4 steps but cfg.t_fut is 3"
    calls = []
    real_loss_batch = Model.loss_batch

    def counting_loss_batch(self, *args, **kwargs):
        calls.append(1)
        return real_loss_batch(self, *args, **kwargs)

    monkeypatch.setattr(Model, "loss_batch", counting_loss_batch)
    with pytest.raises(ValueError, match=message):
        train(samples, cfg, bank=bank)
    assert calls == []


def test_evaluate_deterministic(tiny_dataset, tmp_path):
    cfg = micro_config()
    model = Model(cfg)
    r1 = evaluate(tiny_dataset, model, None, dts=[2, 3], rhos=[0.0, 0.3], seeds=[0, 1])
    r2 = evaluate(tiny_dataset, model, None, dts=[2, 3], rhos=[0.0, 0.3], seeds=[0, 1])
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report(p1, r1)
    write_report(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


def count_scene_encodes(monkeypatch) -> list[list[int]]:
    """One entry per encode call: the ids of the raster arrays it was given.
    A vessel's dark copies share its array."""
    calls = []
    real = model_mod.encode_scene_sequence

    def counting(params, rasters, boxes, cfg):
        calls.append([id(r) for r in rasters])
        return real(params, rasters, boxes, cfg)

    monkeypatch.setattr(model_mod, "encode_scene_sequence", counting)
    return calls


def test_evaluate_encodes_each_vessel_once(tiny_dataset, monkeypatch):
    """One batched encode per `evaluate` call, and every vessel's rasters reach it once."""
    calls = count_scene_encodes(monkeypatch)
    evaluate(tiny_dataset, Model(micro_config()), None, dts=[2], rhos=[0.0, 0.5], seeds=[0, 1])
    assert calls == [[id(s.rasters) for s in tiny_dataset]]


def count_stems(monkeypatch) -> list[tuple]:
    """One entry per stem call: its arguments."""
    stems = []
    real_stem = scene_mod.stem_forward

    def counting_stem(*args):
        stems.append(args)
        return real_stem(*args)

    monkeypatch.setattr(scene_mod, "stem_forward", counting_stem)
    return stems


@pytest.mark.parametrize("fault", ["nan", "side", "density"])
def test_evaluate_names_the_vessel_of_a_failing_sample_before_any_stem(tiny_dataset, monkeypatch, fault):
    """Every sample is checked before the first stem runs, and the error names
    the failing vessel's vessel_id and field. A density label outside
    `DENSITY_LEVELS` fails too, rather than encoding a vessel no cell counts."""
    samples = list(tiny_dataset)
    victim = samples[3]
    if fault == "nan":
        rasters = victim.rasters.copy()
        rasters[1, 0, 2, 2] = np.nan
        edit, message = {"rasters": rasters}, "scenes.raster is not finite at step 1"
    elif fault == "side":
        rasters = np.zeros((victim.t_obs, 3, 8, 8), dtype=np.float32)
        edit, message = {"rasters": rasters}, r"scenes.raster at step 0 has shape \(3, 8, 8\), not \(3, 12, 12\)"
    else:
        edit, message = {"density": "Low"}, "density got 'Low'"
    samples[3] = dataclasses.replace(victim, **edit)
    stems = count_stems(monkeypatch)
    with pytest.raises(ValueError, match=rf"{message} \(vessel_id '{victim.vessel_id}'\)"):
        evaluate(samples, Model(micro_config()), None, dts=[2], rhos=[0.0], seeds=[0])
    assert not stems


def test_evaluate_on_no_samples_fails_naming_the_dataset_horizon():
    with pytest.raises(ValueError, match=r"dataset t_fut=0 < requested horizon 2"):
        evaluate([], Model(micro_config()), None, dts=[2], rhos=[0.0], seeds=[0])


def test_evaluate_rejects_a_later_vessel_with_a_shorter_future_before_any_encoding(tiny_dataset, monkeypatch):
    """Every sample's future is compared with the longest horizon, not only the
    first one's; the failure names `fut_ais`, its steps and the vessel_id."""
    samples = list(tiny_dataset)
    victim = samples[5]
    samples[5] = dataclasses.replace(victim, fut_ais=victim.fut_ais[:2], fut_cctv=victim.fut_cctv[:2])
    stems = count_stems(monkeypatch)
    message = rf"fut_ais has 2 steps, fewer than the requested horizon 3 \(vessel_id '{victim.vessel_id}'\)"
    with pytest.raises(ValueError, match=message):
        evaluate(samples, Model(micro_config()), None, dts=[2, 3], rhos=[0.0], seeds=[0])
    assert not stems
    evaluate(samples, Model(micro_config()), None, dts=[2], rhos=[0.0], seeds=[0])  # 2 steps cover dt 2


def test_evaluate_rejects_a_one_step_observation_before_any_encoding(monkeypatch):
    """The constant-velocity baseline needs two observed steps; a one-step
    window fails naming `obs_ais` and the vessel_id, not deep in the grid."""
    samples = generate_scenario(micro_waterway(t_obs=1), seed=5)
    stems = count_stems(monkeypatch)
    message = rf"^obs_ais has 1 steps, fewer than the 2 .* \(vessel_id '{samples[0].vessel_id}'\)"
    with pytest.raises(FieldError, match=message) as err:
        evaluate(samples, Model(micro_config(t_obs=1)), None, dts=[3], rhos=[0.0], seeds=[0])
    assert err.value.field == "obs_ais"
    assert not stems


def test_evaluate_fuses_each_vessel_mask_pair_once(tiny_dataset, monkeypatch):
    """Both masks the grid can give a vessel, its stored one and the all-false
    one, are fused for every vessel in one call of 2 * vessels rows, before
    the first pool is decoded; each (vessel, cell, seed) is one draw all the
    same."""
    samples = list(tiny_dataset)
    samples[0] = dataclasses.replace(samples[0], ais_mask=np.array([False, True]))
    calls = []  # ("fuse", rows) or ("pool", vessels), in call order
    forwarded = []  # encoding rows taken, one per draw
    real_fuse = model_mod.encode_and_fuse
    real_decode = Model.decode
    real_take = SampleEncoding.take

    def counting_fuse(params, obs_ais, *args, **kwargs):
        calls.append(("fuse", len(obs_ais)))
        return real_fuse(params, obs_ais, *args, **kwargs)

    def recording_take(self, rows):
        forwarded.extend(rows)
        return real_take(self, rows)

    def recording_decode(self, encoding, *args, **kwargs):
        calls.append(("pool", len(encoding.ais_mask)))
        return real_decode(self, encoding, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_and_fuse", counting_fuse)
    monkeypatch.setattr(SampleEncoding, "take", recording_take)
    monkeypatch.setattr(Model, "decode", recording_decode)
    bank = bank_from_samples(samples, 4, seed=0)
    cells = evaluate(samples, Model(micro_config()), bank, dts=[2, 3], rhos=[0.0, 0.5], seeds=[0, 1])
    assert len(forwarded) == sum(c.n_samples * c.n_seeds for c in cells)
    assert len(set(forwarded)) > len(samples)  # some vessel went dark
    assert calls[0] == ("fuse", 2 * len(samples))
    assert [call for call in calls if call[0] == "fuse"] == [calls[0]]
    assert len(calls) == 1 + sum(c.n_seeds for c in cells if c.n_samples)


def test_evaluate_checks_each_sample_once_per_mask_not_per_draw(tiny_dataset, monkeypatch):
    """A sample is checked once, by the one `encode` call that gives both of
    its masks; drawing more seeds on the same masks checks nothing again.
    rho 1 darkens every vessel whatever the seed."""
    from vesselcast.data import VesselSample

    counts = []
    real_validate = VesselSample.validate

    def counting_validate(self):
        counts[-1] += 1
        return real_validate(self)

    monkeypatch.setattr(VesselSample, "validate", counting_validate)
    model = Model(micro_config())
    bank = bank_from_samples(tiny_dataset, 4, seed=0)
    for n_seeds in (2, 4):
        counts.append(0)
        evaluate(tiny_dataset, model, bank, dts=[2], rhos=[0.0, 1.0], seeds=list(range(n_seeds)))
    assert counts == [len(tiny_dataset)] * 2  # one check covers the lit and the dark mask


def test_evaluate_without_scene_stream_never_encodes(tiny_dataset, monkeypatch):
    calls = count_scene_encodes(monkeypatch)
    model = Model(micro_config(use_scene=False))
    cells = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0, 0.5], seeds=[0, 1])
    assert not calls
    means = [v for cell in cells for v in cell.mean.values()]
    assert means and np.all(np.isfinite(means))


def test_evaluate_rejects_repeated_vessel_id(tiny_dataset):
    # scene features are cached per vessel_id, so two samples may not share one
    twin = dataclasses.replace(tiny_dataset[1], vessel_id=tiny_dataset[0].vessel_id)
    with pytest.raises(ValueError, match=f"distinct vessel_id per sample; {tiny_dataset[0].vessel_id!r} repeats"):
        evaluate([tiny_dataset[0], twin], Model(micro_config()), None, dts=[2], rhos=[0.0], seeds=[0])


def test_ground_truth_candidates_score_zero_error(tiny_dataset):
    """`_scores` fed every vessel's ground truth as each of its candidates, on
    a pool with a dark vessel, gives zero best-of-K and mode-0 errors for both
    heads and zero diversity at every horizon; candidates longer than the
    horizon are cut to it."""
    dark = apply_dark_vessels(tiny_dataset, 0.2, seed=1)
    assert sum(not s.ais_mask.any() for s in dark) == 1
    ais = np.stack([np.stack([s.fut_ais] * 2) for s in dark])  # (vessels, K, t_fut, 2)
    cctv = np.stack([np.stack([s.fut_cctv] * 2) for s in dark])
    for dt in range(1, dark[0].t_fut + 1):
        scores = dict(zip(_METRICS, _scores(dark, ais, cctv, dt)))
        for name in _METRICS:
            if not name.startswith("cv_"):
                assert scores[name] == 0.0, (dt, name)


def test_the_cv_baseline_never_reads_a_masked_step(tmp_path):
    """A masked step may hold NaN and still pass `validate`. The baseline
    reads only broadcast steps, so a vessel with a masked step among the two
    it reads has no baseline and drops out of `cv_*`, which then equal those
    of the pool without it; every cell stays finite. At rho 1 no vessel has a
    baseline, so `cv_*` are written empty beside the model's metrics."""
    samples = generate_scenario(micro_waterway(), seed=5)
    t_obs = samples[0].t_obs
    step = t_obs - 1 - min(3, t_obs - 1)
    obs = samples[0].obs_ais.copy()
    obs[step] = np.nan
    samples[0] = dataclasses.replace(samples[0], obs_ais=obs, ais_mask=np.arange(t_obs) != step)
    samples[0].validate()
    model = Model(micro_config())
    cells = evaluate(samples, model, None, dts=[3], rhos=[0.0, 1.0], seeds=[0, 1])
    without = {c.density: c for c in evaluate(samples[1:], model, None, dts=[3], rhos=[0.0], seeds=[0, 1])}
    cv = ("cv_ade", "cv_fde")
    populated = [c for c in cells if c.n_samples]
    for cell in populated:
        assert all(np.isfinite(v) for v in [*cell.mean.values(), *cell.std.values()]), (cell.density, cell.rho)
        if cell.rho == 1.0:
            assert set(cell.mean) == set(cell.std) == set(_METRICS) - set(cv)
        else:
            want = without[cell.density]
            assert [cell.mean.get(k) for k in cv] == [want.mean.get(k) for k in cv], cell.density
            assert [cell.std.get(k) for k in cv] == [want.std.get(k) for k in cv], cell.density
    write_report(tmp_path / "report.csv", cells)
    header, *rows = [line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()]
    for row in rows:
        fields = dict(zip(header, row))
        empty = {k for k, v in fields.items() if v == ""}
        if fields["n_samples"] == "0":
            assert len(empty) == 2 * len(_METRICS)
        else:
            assert empty == ({f"{k}_{s}" for k in cv for s in ("mean", "std")} if fields["rho"] == "1.0" else set())


def test_evaluate_single_seed_zero_std(tiny_dataset):
    cfg = micro_config()
    model = Model(cfg)
    cells = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0], seeds=[4])
    for cell in cells:
        if cell.n_samples:
            assert cell.n_seeds == 1
            assert all(v == 0.0 for v in cell.std.values())


def test_evaluate_absent_density_cells_marked(tiny_dataset):
    # the tiny scenario may not populate every density tier; absent tiers
    # must appear with n_samples = 0, not fabricated zeros
    cfg = micro_config()
    model = Model(cfg)
    cells = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0], seeds=[0])
    densities_present = {s.density for s in tiny_dataset}
    for cell in cells:
        if cell.density not in densities_present:
            assert cell.n_samples == 0
            assert cell.mean == {}


def test_evaluate_rejects_horizon_beyond_checkpoint(tiny_dataset):
    cfg = micro_config()  # t_fut = 3
    model = Model(cfg)
    with pytest.raises(ValueError, match="horizon"):
        evaluate(tiny_dataset, model, None, dts=[5], rhos=[0.0], seeds=[0])


@pytest.mark.parametrize(
    "axis, value, message",
    [
        ("dts", [], "dts is empty"),
        ("rhos", [], "rhos is empty"),
        ("seeds", [], "seeds is empty"),
        ("dts", [0], "dts holds horizon 0"),
        ("dts", [2, -1], "dts holds horizon -1"),
        ("rhos", [0.0, 1.5], r"rhos holds missing rate 1\.5"),
        ("rhos", [-0.1], r"rhos holds missing rate -0\.1"),
        ("rhos", [float("nan")], "rhos holds missing rate nan"),
        ("dts", [2, 2], "dts holds 2 twice"),
        ("rhos", [0, 0.0], r"rhos holds 0\.0 twice"),
        ("seeds", [0, 1, 0], "seeds holds 0 twice"),
    ],
)
def test_evaluate_rejects_an_empty_axis_or_a_horizon_below_one(tiny_dataset, axis, value, message):
    grid = dict(dts=[2], rhos=[0.0], seeds=[0])
    grid[axis] = value
    with pytest.raises(ValueError, match=message):
        evaluate(tiny_dataset, Model(micro_config()), None, **grid)
