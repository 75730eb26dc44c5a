"""Every function the benchmark's tracer wraps must still exist under its name,
and the tracer must run the model with the arguments it reads."""

import importlib.util
import math
from pathlib import Path

import pytest

import vesselcast.model as model_mod
from conftest import micro_config
from vesselcast.bank import bank_from_samples
from vesselcast.engine import Tape
from vesselcast.evaluate import DECODE_ROWS, evaluate
from vesselcast.model import Model, SampleEncoding
from vesselcast.scene_encoder import CHUNK

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_resolves(tracing):
    missing = []
    for span, sites in tracing.SPANS.items():
        for module, path in sites:
            try:
                owner, attr = tracing._resolve(module, path)
            except (ImportError, AttributeError):
                owner, attr = None, path
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{span}: {module}.{path}")
    assert not missing, f"unresolved patch sites: {missing}"


def test_traced_train_step_and_predict_complete(tracing, micro_cfg, micro_samples):
    import vesselcast.train as vc_train  # the tracer wraps `backward` where train looks it up

    model = Model(micro_cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with Tape():
            total, _ = model.loss_batch(micro_samples[:2], bank=bank)
            vc_train.backward(total)
        model.predict(micro_samples[2], bank=bank)
    finally:
        tracer.uninstall()
    for span in ("scene_encoder.stem_forward", "fusion.attention", "model.Model.forward_sample"):
        assert tracer.calls[span] > 0, span
    assert tracer.tape_nodes == [total.node_id + 1]
    # the two-sample loss encodes, fuses, decodes and scores its batch in one
    # pass each, with one stem per sample; only the predict call goes through
    # forward_sample
    assert tracer.vessel_ids == {micro_samples[2].vessel_id}
    assert tracer.calls["decoder.predict_modes"] == 2
    assert tracer.calls["losses.sample_losses"] == 1
    assert tracer.calls["fusion.encode_and_fuse"] == 2
    assert tracer.calls["scene_encoder.stem_forward"] == 3
    for span in ("encode_scene_sequence", "spatial_features", "temporal_context"):
        assert tracer.calls[f"scene_encoder.{span}"] == 2, span


def test_traced_eval_grid_counts(tracing, micro_samples, monkeypatch):
    """The eval-grid counts the benchmark reports: no one-vessel forward or predict,
    one decoder pass per run of consecutive (cell, seed) draws of one horizon
    that fits in `DECODE_ROWS` rows, whole draws only, and one refinement per
    pass with a lit vessel, both over the pass's row axis, one bank search per
    decode pass with a lit vessel, over all of the pass's lit rows, one
    batched scene encode covering every vessel, with one stem per vessel and,
    per pass of at most `CHUNK` vessels, one spatial-feature pass, one
    temporal-context pass and one ConvLSTM step per (layer, frame), one fusion
    call before the grid over every vessel's stored and all-false masks, and
    at the `vesselcast.evaluate` site one dark-vessel draw per (cell, seed)."""
    cfg = micro_config()
    model = Model(cfg)
    bank = bank_from_samples(micro_samples, 4, seed=0)
    dts, seeds = [2, 3], [0, 1]
    pools = []  # per decode pass, whether each row is lit
    taken = []  # encoding rows taken, one per draw
    encoded = []
    fused = []
    real_decode = Model.decode
    real_take = SampleEncoding.take
    real_encode = model_mod.encode_scene_sequence
    real_fuse = model_mod.encode_and_fuse

    def recording_decode(self, encoding, *args, **kwargs):
        pools.append(encoding.ais_mask.any(1).tolist())
        return real_decode(self, encoding, *args, **kwargs)

    def recording_take(self, rows):
        taken.extend(rows)
        return real_take(self, rows)

    def recording_encode(params, rasters, boxes, cfg):
        encoded.append([id(r) for r in rasters])
        return real_encode(params, rasters, boxes, cfg)

    def recording_fuse(params, obs_ais, *args, **kwargs):
        fused.append(len(obs_ais))
        return real_fuse(params, obs_ais, *args, **kwargs)

    # the tracer wraps the recorders
    monkeypatch.setattr(Model, "decode", recording_decode)
    monkeypatch.setattr(SampleEncoding, "take", recording_take)
    monkeypatch.setattr(model_mod, "encode_scene_sequence", recording_encode)
    monkeypatch.setattr(model_mod, "encode_and_fuse", recording_fuse)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cells = evaluate(micro_samples, model, bank, dts=dts, rhos=[0.0, 0.5], seeds=seeds)
    finally:
        tracer.uninstall()
    populated = [c for c in cells if c.n_samples]
    draws = [vessel for pool in pools for vessel in pool]
    passes = []  # (horizon, rows) per decode pass, packing each horizon's draws in grid order
    for cell in populated:
        for _ in seeds:
            if passes and passes[-1][0] == cell.dt and passes[-1][1] + cell.n_samples <= DECODE_ROWS:
                passes[-1] = (cell.dt, passes[-1][1] + cell.n_samples)
            else:
                passes.append((cell.dt, cell.n_samples))
    assert tracer.calls["model.Model.forward_sample"] == 0
    assert tracer.calls["model.Model.predict"] == 0
    assert [len(pool) for pool in pools] == [rows for _, rows in passes]
    assert len(pools) == len(dts) < len(populated) * len(seeds)  # each horizon's draws fit in one pass
    assert len(draws) == sum(c.n_samples * c.n_seeds for c in populated)
    assert tracer.calls["decoder.predict_modes"] == len(pools)
    assert tracer.calls["bank.refine_and_fuse"] == sum(any(pool) for pool in pools)
    assert 0 < tracer.calls["bank.refine_and_fuse"] <= len(pools)
    assert tracer.calls["bank.search"] == sum(any(pool) for pool in pools)
    assert 0 < tracer.calls["bank.search"] < sum(draws)
    assert tracer.calls["scene_encoder.encode_scene_sequence"] == 1
    assert encoded == [[id(s.rasters) for s in micro_samples]]
    chunks = math.ceil(len(micro_samples) / CHUNK)
    assert chunks > 1  # the pool spans several scene passes
    assert tracer.calls["scene_encoder.temporal_context"] == chunks
    assert tracer.calls["scene_encoder.spatial_features"] == chunks
    assert tracer.calls["scene_encoder.convlstm_step"] == chunks * 2 * cfg.t_obs
    assert tracer.calls["scene_encoder.stem_forward"] == len(micro_samples)
    assert tracer.calls["fusion.encode_and_fuse"] == len(fused) == 1
    assert fused == [2 * len(micro_samples)]
    assert len(taken) == len(draws)
    assert len(set(taken)) <= sum(fused) < len(draws)
    assert tracer.calls["data.apply_dark_vessels"] == len(populated) * len(seeds)


def test_each_workload_runs_one_checked_unit(tmp_path, monkeypatch):
    """Each benchmark workload sets up warm, runs one unit of work whose
    outputs pass its checks, and scores a finite quality, so a package change
    that would make the benchmark fail shows here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its tracer by bare name
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, workload_type in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_type(workdir, seed=41)
        workload.setup(warm=True)
        assert workload.checked(workload.unit()), name
        quality = workload.quality()
        assert workload.attempted > 0 and workload.failed == 0, name
        assert math.isfinite(quality), (name, quality)
