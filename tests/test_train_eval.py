import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import vesselcast.model as model_mod
from conftest import micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import generate_scenario
from vesselcast.evaluate import evaluate, write_report
from vesselcast.model import Model
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
    bank = bank_from_samples(tiny_dataset, cfg.bank_clusters, seed=cfg.seed)
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


def test_divergence_guard(tiny_dataset):
    cfg = micro_config(lr=1e-3, epochs=1, batch_size=4)
    model = Model(cfg)
    model.named["decoder.ais_head.b"].data[...] = np.inf

    # drive through the training path by monkey-constructing: simplest is to
    # verify the guard directly at loss level
    from vesselcast.train import train as _train

    class Boom(Exception):
        pass

    # poison a parameter so any forward is non-finite
    import vesselcast.train as train_mod

    orig_model = train_mod.Model

    class PoisonedModel(orig_model):
        def __init__(self, cfg2, seed=None):
            super().__init__(cfg2, seed=seed)
            self.named["decoder.ais_head.b"].data[...] = np.nan

    train_mod.Model = PoisonedModel
    try:
        with pytest.raises(DivergenceError, match="step 0"):
            _train(tiny_dataset, cfg)
    finally:
        train_mod.Model = orig_model


def test_evaluate_deterministic(tiny_dataset, tmp_path):
    cfg = micro_config()
    model = Model(cfg)
    r1 = evaluate(tiny_dataset, model, None, dts=[2, 3], rhos=[0.0, 0.3], seeds=[0, 1])
    r2 = evaluate(tiny_dataset, model, None, dts=[2, 3], rhos=[0.0, 0.3], seeds=[0, 1])
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report(p1, r1)
    write_report(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


def count_scene_encodes(monkeypatch) -> Counter:
    """Encode calls per scene list; a vessel's dark copies share its list."""
    calls = Counter()
    real = model_mod.encode_scene_sequence

    def counting(params, scenes, cfg):
        calls[id(scenes)] += 1
        return real(params, scenes, cfg)

    monkeypatch.setattr(model_mod, "encode_scene_sequence", counting)
    return calls


def test_evaluate_encodes_each_vessel_once(tiny_dataset, monkeypatch):
    calls = count_scene_encodes(monkeypatch)
    evaluate(tiny_dataset, Model(micro_config()), None, dts=[2], rhos=[0.0, 0.5], seeds=[0, 1])
    assert sorted(calls) == sorted(id(s.scenes) for s in tiny_dataset)
    assert set(calls.values()) == {1}


def test_evaluate_without_scene_stream_never_encodes(tiny_dataset, monkeypatch):
    calls = count_scene_encodes(monkeypatch)
    model = Model(micro_config(use_scene=False))
    report = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0, 0.5], seeds=[0, 1])
    assert not calls
    means = [v for cell in report.cells for v in cell.mean.values()]
    assert means and np.all(np.isfinite(means))


def test_evaluate_rejects_repeated_vessel_id(tiny_dataset):
    # scene features are cached per vessel_id, so two samples may not share one
    twin = dataclasses.replace(tiny_dataset[1], vessel_id=tiny_dataset[0].vessel_id)
    with pytest.raises(ValueError, match="distinct vessel_id"):
        evaluate([tiny_dataset[0], twin], Model(micro_config()), None, dts=[2], rhos=[0.0], seeds=[0])


def test_evaluate_oracle_predictor_zero_error(tiny_dataset):
    def oracle(sample, dt):
        gt_a = np.stack([sample.fut_ais[:dt]] * 2)
        gt_c = np.stack([sample.fut_cctv[:dt]] * 2)
        return gt_a, gt_c

    report = evaluate(tiny_dataset, None, None, dts=[3], rhos=[0.0, 0.2], seeds=[0, 1], predictor=oracle)
    for cell in report.cells:
        if cell.n_samples == 0:
            continue
        for name in ("ais_min_ade", "ais_min_fde", "cctv_min_ade", "cctv_ade1"):
            assert cell.mean[name] == 0.0
            assert cell.std[name] == 0.0


def test_evaluate_single_seed_zero_std(tiny_dataset):
    cfg = micro_config()
    model = Model(cfg)
    report = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0], seeds=[4])
    for cell in report.cells:
        if cell.n_samples:
            assert cell.n_seeds == 1
            assert all(v == 0.0 for v in cell.std.values())


def test_evaluate_absent_density_cells_marked(tiny_dataset):
    # the tiny scenario may not populate every density tier; absent tiers
    # must appear with n_samples = 0, not fabricated zeros
    cfg = micro_config()
    model = Model(cfg)
    report = evaluate(tiny_dataset, model, None, dts=[2], rhos=[0.0], seeds=[0])
    densities_present = {s.density for s in tiny_dataset}
    for cell in report.cells:
        if cell.density not in densities_present:
            assert cell.n_samples == 0
            assert cell.mean == {}


def test_evaluate_rejects_horizon_beyond_checkpoint(tiny_dataset):
    cfg = micro_config()  # t_fut = 3
    model = Model(cfg)
    with pytest.raises(ValueError, match="horizon"):
        evaluate(tiny_dataset, model, None, dts=[5], rhos=[0.0], seeds=[0])
