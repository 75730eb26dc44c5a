import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselcast.cli as cli
from vesselcast.bank import load_bank
from vesselcast.cli import main

CONFIG_TEXT = """
# micro run configuration
lr = 2e-3
epochs = 3
batch_size = 4
seed = 3
t_obs = 2
t_fut = 3
modes = 2
d_model = 4
heads = 2
latent_dim = 2
stem_channels = 2, 2, 2
roi_size = 2
bbox_dim = 4
raster_size = 12
offset_hidden = 8
bank_clusters = 4
"""

SCENARIO_TEXT = """
vessel_count = 8
t_obs = 2
t_fut = 3
raster_size = 12
bbox_half = 2.0
ais_noise = 0.002
pixel_noise = 0.004
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "train.cfg").write_text(CONFIG_TEXT)
    (root / "scenario.cfg").write_text(SCENARIO_TEXT)
    assert main(["generate", "--config", str(root / "scenario.cfg"), "--seed", "1",
                 "--out", str(root / "data.jsonl")]) == 0
    assert main(["bank", "build", "--data", str(root / "data.jsonl"), "--kmax", "4",
                 "--out", str(root / "bank.json")]) == 0
    assert main(["train", "--data", str(root / "data.jsonl"), "--bank", str(root / "bank.json"),
                 "--config", str(root / "train.cfg"), "--out", str(root / "ckpt.bin"),
                 "--curve", str(root / "curve.csv"), "--quiet"]) == 0
    return root


def test_generate_then_bank_then_train_artifacts(workdir):
    assert (workdir / "data.jsonl").exists()
    assert (workdir / "bank.json").exists()
    assert (workdir / "ckpt.bin").exists()
    curve = (workdir / "curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,total,rec,kl,lr"
    assert len(curve) == 4
    assert (workdir / "curve.svg").exists()


def test_eval_writes_report_and_plots(workdir):
    report = workdir / "report.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--ckpt", str(workdir / "ckpt.bin"),
                 "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
                 "--rho", "0,0.5", "--dt", "2,3", "--seeds", "2",
                 "--report", str(report), "--plots", str(workdir / "plots")]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("dt,density,rho,n_samples,n_seeds")
    assert len(lines) > 1
    assert (workdir / "plots" / "ade_vs_rho.svg").exists()


def test_eval_per_horizon_shorter_than_training_future(workdir):
    """--per-horizon retrains at each dt, also below the data's t_fut of 3."""
    report = workdir / "report_per_horizon.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--ckpt", str(workdir / "ckpt.bin"),
                 "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
                 "--rho", "0", "--dt", "2,3", "--seeds", "1", "--per-horizon",
                 "--train-data", str(workdir / "data.jsonl"), "--report", str(report)]) == 0
    rows = report.read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"2", "3"}


def test_eval_per_horizon_needs_no_checkpoint(workdir):
    report = workdir / "report_no_ckpt.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--bank", str(workdir / "bank.json"),
                 "--config", str(workdir / "train.cfg"), "--rho", "0", "--dt", "2", "--seeds", "1",
                 "--per-horizon", "--train-data", str(workdir / "data.jsonl"),
                 "--report", str(report)]) == 0
    assert report.read_text().splitlines()[1].startswith("2,")


def test_eval_without_checkpoint_names_ckpt(workdir, capsys):
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--config", str(workdir / "train.cfg"),
                 "--report", str(workdir / "never.csv")]) == 2
    assert "--ckpt" in capsys.readouterr().err
    assert not (workdir / "never.csv").exists()


@pytest.mark.parametrize("victim", ["data.jsonl", "ckpt.bin", "bank.json"])
def test_eval_that_mutates_an_input_exits_3(workdir, tmp_path, monkeypatch, capsys, victim):
    for name in ("data.jsonl", "ckpt.bin", "bank.json", "train.cfg"):
        shutil.copy(workdir / name, tmp_path / name)
    real_evaluate = cli.evaluate

    def mutating_evaluate(*args, **kwargs):
        with open(tmp_path / victim, "ab") as fh:
            fh.write(b"\n")
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", mutating_evaluate)
    assert main(["eval", "--data", str(tmp_path / "data.jsonl"), "--ckpt", str(tmp_path / "ckpt.bin"),
                 "--bank", str(tmp_path / "bank.json"), "--config", str(tmp_path / "train.cfg"),
                 "--rho", "0", "--dt", "2", "--seeds", "1",
                 "--report", str(tmp_path / "report.csv")]) == 3
    assert "evaluation mutated its inputs" in capsys.readouterr().err


def test_predict_emits_modes(workdir):
    out = workdir / "preds.json"
    assert main(["predict", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
                 "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
                 "--sample-id", "v0000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["vessel_id"] == "v0000"
    assert len(payload["ais"]) == 2  # modes
    assert len(payload["ais"][0]) == 3  # t_fut
    assert len(payload["latents"][0]) == 2


@pytest.mark.parametrize("bank, dark", [(True, False), (True, True), (False, False)])
def test_predict_reports_retrieval(workdir, bank, dark):
    """A lit vessel searched against a bank names its entry; otherwise both fields are null."""
    out = workdir / "preds.json"
    extra = (["--bank", str(workdir / "bank.json")] if bank else []) + (["--dark"] if dark else [])
    assert main(["predict", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
                 "--config", str(workdir / "train.cfg"), "--sample-id", "v0000", "--out", str(out),
                 *extra]) == 0
    payload = json.loads(out.read_text())
    if bank and not dark:
        assert 0 <= payload["prior_index"] < len(load_bank(workdir / "bank.json").entries)
        assert math.isfinite(payload["prior_similarity"])
    else:
        assert payload["prior_index"] is None and payload["prior_similarity"] is None


def test_predict_unknown_sample_fails(workdir):
    assert main(["predict", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
                 "--config", str(workdir / "train.cfg"), "--sample-id", "nope",
                 "--out", str(workdir / "nope.json")]) == 2


def test_latent_viz(workdir):
    out = workdir / "pca.csv"
    assert main(["latent-viz", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
                 "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vessel_id,mode,pc1,pc2,displacement,heading_change,tortuosity"
    assert len(lines) == 1 + 8 * 2  # vessels x modes


def test_train_eval_bit_identical_across_processes(workdir):
    """Same (data, config, seed) in two fresh processes -> identical bytes."""
    script = r"""
import sys
from vesselcast.cli import main
root = sys.argv[1]
tag = sys.argv[2]
main(["train", "--data", f"{root}/data.jsonl", "--bank", f"{root}/bank.json",
      "--config", f"{root}/train.cfg", "--out", f"{root}/ckpt_{tag}.bin",
      "--curve", f"{root}/curve_{tag}.csv", "--quiet"])
main(["eval", "--data", f"{root}/data.jsonl", "--ckpt", f"{root}/ckpt_{tag}.bin",
      "--bank", f"{root}/bank.json", "--config", f"{root}/train.cfg",
      "--rho", "0,0.5", "--dt", "2", "--seeds", "2",
      "--report", f"{root}/report_{tag}.csv"])
"""
    for tag in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(workdir), tag],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert (workdir / "ckpt_a.bin").read_bytes() == (workdir / "ckpt_b.bin").read_bytes()
    assert (workdir / "curve_a.csv").read_bytes() == (workdir / "curve_b.csv").read_bytes()
    assert (workdir / "report_a.csv").read_bytes() == (workdir / "report_b.csv").read_bytes()
