import ast
import builtins
import dataclasses
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselcast.cli as cli
from vesselcast.bank import load_bank
from vesselcast.checkpoint import load_model, save_model
from vesselcast.cli import main
from vesselcast.config import load_train_config
from vesselcast.data import apply_dark_vessels, read_dataset, write_dataset
from vesselcast.decoder import mode_codes
from vesselcast.model import Model
from vesselcast.pca import pca_project

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
stem_channels = 2, 2, 2
roi_size = 2
bbox_dim = 4
raster_size = 12
offset_hidden = 8
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
    assert curve[0] == "epoch,total,lr"
    assert len(curve) == 4
    assert (workdir / "curve.svg").exists()


def test_bank_build_with_kmax_zero_fails_naming_k_max(workdir, monkeypatch, capsys):
    def no_reading(*args, **kwargs):
        raise AssertionError("read the dataset for a bank that cannot be built")

    monkeypatch.setattr(cli, "read_dataset", no_reading)
    out = workdir / "empty_bank.json"
    assert main(["bank", "build", "--data", str(workdir / "data.jsonl"), "--kmax", "0", "--out", str(out)]) == 2
    assert "k_max must be at least 1, got --kmax 0" in capsys.readouterr().err
    assert not out.exists()


def test_bank_build_on_an_all_dark_dataset_exits_2_naming_ais_mask(workdir, tmp_path, capsys):
    write_dataset(tmp_path / "dark.bin", apply_dark_vessels(read_dataset(workdir / "data.jsonl"), 1.0, seed=0))
    capsys.readouterr()
    assert main(["bank", "build", "--data", str(tmp_path / "dark.bin"), "--out", str(tmp_path / "bank.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ais_mask has a masked step in each of the 8 vessels") and err.count("\n") == 1, err
    assert not (tmp_path / "bank.bin").exists()


def test_bank_build_counts_only_the_vessels_it_uses(workdir, tmp_path, capsys):
    """The printed track count is the full-broadcast vessels the bank was built from."""
    samples = read_dataset(workdir / "data.jsonl")
    samples[0] = dataclasses.replace(samples[0], ais_mask=np.zeros(2, dtype=bool))
    samples[1] = dataclasses.replace(samples[1], ais_mask=np.array([True, False]))
    write_dataset(tmp_path / "data.jsonl", samples)
    capsys.readouterr()
    assert main(["bank", "build", "--data", str(tmp_path / "data.jsonl"), "--kmax", "4",
                 "--out", str(tmp_path / "bank.json")]) == 0
    assert f"(from {len(samples) - 2} tracks)" in capsys.readouterr().out


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


def test_eval_per_horizon_without_train_data_exits_2_naming_it(workdir, tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--config", str(workdir / "train.cfg"),
                 "--rho", "0", "--dt", "2", "--seeds", "1", "--per-horizon", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--train-data is needed with --per-horizon") and err.count("\n") == 1, err
    assert not report.exists()


def test_train_without_quiet_prints_one_epoch_line_per_epoch(workdir, tmp_path, capsys):
    assert main(["train", "--data", str(workdir / "data.jsonl"), "--config", str(workdir / "train.cfg"),
                 "--out", str(tmp_path / "ckpt.bin")]) == 0
    epochs = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("epoch")]
    assert epochs == ["0", "1", "2"]  # the config's 3 epochs


def test_latent_viz_reads_no_bank(workdir, tmp_path, capsys):
    """The mode codes are formed before any bank refinement, so latent-viz has
    no --bank: argparse refuses it with exit 2, and --help does not list it."""
    with pytest.raises(SystemExit) as exit_:
        main(["latent-viz", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
              "--bank", str(workdir / "bank.json"), "--out", str(tmp_path / "pca.csv")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --bank" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["latent-viz", "--help"])
    assert exit_.value.code == 0
    assert "--bank" not in capsys.readouterr().out
    assert not (tmp_path / "pca.csv").exists()


@pytest.mark.parametrize("per_horizon", [False, True])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dt", "", "dts is empty"),
        ("--dt", "0", "dts holds horizon 0"),
        ("--dt", "-1", "dts holds horizon -1"),
        ("--rho", "", "rhos is empty"),
        ("--seeds", "0", "seeds is empty"),
        ("--rho", "0,1.5", r"rhos holds missing rate 1\.5"),
        ("--rho", "nan", "rhos holds missing rate nan"),
        ("--dt", "2,2", "dts holds 2 twice"),
        ("--rho", "0,0.0", r"rhos holds 0\.0 twice"),
        ("--dt", "2,x", r"--dt '2,x' is not a comma-separated list of ints"),
        ("--rho", "low", r"--rho 'low' is not a comma-separated list of floats"),
    ],
)
def test_eval_rejects_a_bad_grid_before_training(
    workdir, tmp_path, monkeypatch, capsys, per_horizon, flag, value, message
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a model for a grid that cannot run")

    def no_loading(*args, **kwargs):
        raise AssertionError("loaded a checkpoint for a grid that cannot run")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(cli, "load_model", no_loading)
    grid = {"--dt": "2", "--rho": "0", "--seeds": "1", flag: value}
    mode = (["--per-horizon", "--train-data", str(workdir / "data.jsonl")] if per_horizon
            else ["--ckpt", str(workdir / "ckpt.bin")])
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--config", str(workdir / "train.cfg"),
                 *[f"{k}={v}" for k, v in grid.items()], *mode, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err) and err.count("\n") == 1, err
    assert not report.exists()


def test_eval_without_checkpoint_names_ckpt(workdir, capsys):
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--config", str(workdir / "train.cfg"),
                 "--report", str(workdir / "never.csv")]) == 2
    assert "--ckpt" in capsys.readouterr().err
    assert not (workdir / "never.csv").exists()


def _eval_that_mutates(workdir, tmp_path, monkeypatch, victim, mutate) -> int:
    """Run `eval` on copies of the inputs, calling `mutate(path of victim)` inside `evaluate`."""
    for name in ("data.jsonl", "ckpt.bin", "bank.json", "train.cfg"):
        shutil.copy(workdir / name, tmp_path / name)
    real_evaluate = cli.evaluate

    def mutating_evaluate(*args, **kwargs):
        mutate(tmp_path / victim)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", mutating_evaluate)
    return main(["eval", "--data", str(tmp_path / "data.jsonl"), "--ckpt", str(tmp_path / "ckpt.bin"),
                 "--bank", str(tmp_path / "bank.json"), "--config", str(tmp_path / "train.cfg"),
                 "--rho", "0", "--dt", "2", "--seeds", "1",
                 "--report", str(tmp_path / "report.csv")])


@pytest.mark.parametrize("victim", ["data.jsonl", "ckpt.bin", "bank.json"])
def test_eval_that_mutates_an_input_exits_3(workdir, tmp_path, monkeypatch, capsys, victim):
    def append_newline(path):
        with open(path, "ab") as fh:
            fh.write(b"\n")

    assert _eval_that_mutates(workdir, tmp_path, monkeypatch, victim, append_newline) == 3
    assert "evaluation mutated its inputs" in capsys.readouterr().err


@pytest.mark.parametrize("victim", ["data.jsonl", "ckpt.bin", "bank.json"])
def test_eval_that_overwrites_one_byte_of_an_input_in_place_exits_3(workdir, tmp_path, monkeypatch, capsys,
                                                                     victim):
    """A same-length edit in the middle of the file: only its content changes."""
    def flip_middle_byte(path):
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)[0]
            fh.seek(size // 2)
            fh.write(bytes([byte ^ 0x01]))
        assert path.stat().st_size == size

    assert _eval_that_mutates(workdir, tmp_path, monkeypatch, victim, flip_middle_byte) == 3
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
    assert set(payload) == {"vessel_id", "ais", "cctv", "prior_index", "prior_similarity"}


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
        assert 0 <= payload["prior_index"] < len(load_bank(workdir / "bank.json"))
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
                 "--config", str(workdir / "train.cfg"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vessel_id,mode,pc1,pc2,displacement,heading_change,tortuosity"
    assert len(lines) == 1 + 8 * 2  # vessels x modes


def test_latent_viz_csv_numbers_all_parse_as_floats(workdir):
    """Every cell after `vessel_id,mode` is a plain float literal, not a numpy repr."""
    out = workdir / "pca_parse.csv"
    assert main(["latent-viz", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
                 "--config", str(workdir / "train.cfg"), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8 * 2
    for row in rows:
        assert len(row) == 7
        assert all(math.isfinite(float(cell)) for cell in row[2:]), row


def test_latent_viz_on_an_empty_dataset_exits_2_naming_the_file(workdir, capsys):
    data = workdir / "empty.jsonl"
    data.write_text("")
    assert main(["latent-viz", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(data),
                 "--config", str(workdir / "train.cfg"), "--out", str(workdir / "empty.csv")]) == 2
    assert f"no samples in {data}" in capsys.readouterr().err
    assert not (workdir / "empty.csv").exists()


def test_eval_on_an_empty_dataset_exits_2_naming_the_file(workdir, tmp_path, monkeypatch, capsys):
    """As latent-viz does, eval refuses a dataset with no samples before it
    loads a checkpoint or trains a model, with or without --per-horizon."""
    data = tmp_path / "empty.jsonl"
    data.write_bytes(b"")

    def never(*args, **kwargs):
        raise AssertionError("eval loaded a checkpoint or trained a model for an empty dataset")

    for name in ("load_model", "train"):
        monkeypatch.setattr(cli, name, never)
    report = tmp_path / "report.csv"
    for mode in (["--ckpt", str(workdir / "ckpt.bin")], ["--per-horizon", "--train-data", str(workdir / "data.jsonl")]):
        assert main(["eval", "--data", str(data), "--config", str(workdir / "train.cfg"), *mode,
                     "--report", str(report)]) == 2
        assert f"no samples in {data}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "bank build", "eval --per-horizon"])
def test_an_empty_dataset_exits_2_naming_the_file_before_any_work(workdir, tmp_path, monkeypatch, capsys, command):
    """As latent-viz and eval --data do, train, bank build and eval
    --per-horizon (on an empty --train-data) refuse a dataset with no samples
    before a model is built or trained or a bank clustered, and write no --out."""
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")

    def never(*args, **kwargs):
        raise AssertionError(f"{command} started work on an empty dataset")

    for name in ("train", "bank_from_samples", "load_model"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(empty), "--config", str(workdir / "train.cfg"), "--out", str(out),
                  "--curve", str(tmp_path / "curve.csv"), "--quiet"],
        "bank build": ["bank", "build", "--data", str(empty), "--out", str(out)],
        "eval --per-horizon": ["eval", "--data", str(workdir / "data.jsonl"), "--per-horizon",
                               "--train-data", str(empty), "--config", str(workdir / "train.cfg"),
                               "--rho", "0", "--dt", "2", "--seeds", "1", "--report", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"no samples in {empty}: {command} needs at least one" in err
    assert list(tmp_path.iterdir()) == [empty]


_GRID = ["--rho", "0", "--dt", "2", "--seeds", "1"]
_INPUTS = {  # command: (its leading argv, the flags of the files it reads, its output flag)
    "generate": (["generate"], ["--config"], "--out"),
    "bank build": (["bank", "build"], ["--data"], "--out"),
    "train": (["train", "--quiet"], ["--config", "--data", "--bank"], "--out"),
    "eval": (["eval", *_GRID], ["--config", "--data", "--bank", "--ckpt"], "--report"),
    "eval --per-horizon": (["eval", "--per-horizon", *_GRID], ["--config", "--data", "--bank", "--train-data"],
                           "--report"),
    "predict": (["predict", "--sample-id", "v0003"], ["--config", "--data", "--bank", "--ckpt"], "--out"),
    "latent-viz": (["latent-viz"], ["--config", "--data", "--ckpt"], "--out"),
}


def _command_argv(workdir, command, out, flag=None, path=None):
    """argv for `command` on the fixture's files, writing `out`, with `flag`'s
    file replaced by `path` when a flag is given."""
    head, inputs, output = _INPUTS[command]
    given = {name: str(path if name == flag else workdir / _input_file(command, name)) for name in inputs}
    return [*head, *[arg for name in inputs for arg in (name, given[name])], output, str(out)]


def _input_file(command, flag):
    """The fixture's file that `command` reads as `flag`."""
    if flag == "--config":
        return "scenario.cfg" if command == "generate" else "train.cfg"
    return {"--data": "data.jsonl", "--train-data": "data.jsonl", "--bank": "bank.json", "--ckpt": "ckpt.bin"}[flag]


def _unreadable_argv(workdir, tmp_path, command, flag, missing=False):
    """argv for `command` on the fixture's files, `flag`'s file replaced by a
    damaged copy, or with `missing` by a path where no file is, and that path.
    A copy is cut short by one byte; a config, which reads the same without
    its last newline, is cut after its last '=', so its last key has no value."""
    bad = tmp_path / _input_file(command, flag)
    if not missing:
        data = (workdir / bad.name).read_bytes()
        bad.write_bytes(data[: data.rindex(b"=") + 1] if flag == "--config" else data[:-1])
    return _command_argv(workdir, command, tmp_path / "out", flag, bad), bad


@pytest.mark.parametrize(
    "command, flag",
    [
        ("bank build", "--data"),
        ("train", "--data"),
        ("train", "--bank"),
        ("eval", "--data"),
        ("eval", "--bank"),
        ("eval", "--ckpt"),
        ("eval --per-horizon", "--train-data"),
        ("eval --per-horizon", "--bank"),
        ("predict", "--data"),
        ("predict", "--bank"),
        ("predict", "--ckpt"),
        ("latent-viz", "--data"),
        ("latent-viz", "--ckpt"),
        ("generate", "--config"),
        ("train", "--config"),
        ("eval", "--config"),
        ("eval --per-horizon", "--config"),
        ("predict", "--config"),
        ("latent-viz", "--config"),
    ],
)
def test_an_input_file_that_cannot_be_read_exits_2_with_one_line_naming_it(
    workdir, tmp_path, capsys, command, flag
):
    """A path where no file is, and a truncated config, dataset, bank or
    checkpoint, are refused as a bad grid is: exit 2, one line on stderr that
    names the file, no --out written."""
    for missing in (True, False):
        argv, bad = _unreadable_argv(workdir, tmp_path, command, flag, missing)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and err.count("\n") == 1, err
        assert sorted(tmp_path.iterdir()) == ([] if missing else [bad])


@pytest.mark.parametrize("command", [*_INPUTS, "train --curve"])
def test_an_output_in_a_missing_directory_exits_2_with_one_line_naming_it(
    workdir, tmp_path, capsys, monkeypatch, command
):
    """An output in a directory that does not exist exits 2 with one line
    naming its flag and path before any input is read, dataset generated,
    bank clustered, model trained or loaded, or grid run."""
    calls = []
    for name in ("generate_scenario", "read_dataset", "parse_dataset", "bank_from_samples", "train", "load_model",
                 "evaluate"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    out = tmp_path / "missing" / "out"
    if command == "train --curve":
        argv, flag = _command_argv(workdir, "train", tmp_path / "out") + ["--curve", str(out)], "--curve"
    else:
        argv, flag = _command_argv(workdir, command, out), _INPUTS[command][2]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{flag} {out} is in a directory that does not exist\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_latent_viz_with_fewer_than_two_latents_exits_2_before_loading_the_checkpoint(
    workdir, tmp_path, capsys, monkeypatch
):
    """One vessel of a one-mode checkpoint has one mode code, which no 2-D
    projection fits: exit 2 with one line naming --data, before the
    checkpoint is loaded, and no --out."""
    config = tmp_path / "train.cfg"
    config.write_text(CONFIG_TEXT.replace("modes = 2", "modes = 1"))
    data = tmp_path / "one.jsonl"
    write_dataset(data, read_dataset(workdir / "data.jsonl")[:1])
    save_model(tmp_path / "ckpt.bin", Model(load_train_config(config)))
    loads = []
    monkeypatch.setattr(cli, "load_model", lambda *a, **k: loads.append(a) or load_model(*a, **k))
    out = tmp_path / "pca.csv"
    capsys.readouterr()
    assert main(["latent-viz", "--ckpt", str(tmp_path / "ckpt.bin"), "--data", str(data), "--config", str(config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"--data has 1 sample in {data} and the config 1 mode") and err.count("\n") == 1, err
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize(
    "line, named",
    [("t_obs = two", "t_obs"), ("t_obs = 0", "t_obs"), ("nope = 1", "nope"), ("t_obs = \xff", "utf-8")],
    ids=["unparsable", "invalid", "unknown", "not-utf-8"],
)
def test_a_config_that_cannot_be_right_exits_2_with_one_line_naming_the_file_and_fault(
    workdir, tmp_path, capsys, command, line, named
):
    config = tmp_path / "bad.cfg"
    config.write_text((SCENARIO_TEXT if command == "generate" else CONFIG_TEXT) + line + "\n", encoding="latin-1")
    capsys.readouterr()
    assert main(_command_argv(workdir, command, tmp_path / "out", "--config", config)) == 2
    err = capsys.readouterr().err
    assert str(config) in err and named in err and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == [config]


def test_train_on_samples_of_another_window_exits_2_naming_the_field_and_vessel(workdir, tmp_path, capsys):
    (tmp_path / "train.cfg").write_text(CONFIG_TEXT.replace("t_obs = 2", "t_obs = 3"))
    out = tmp_path / "ckpt.bin"
    capsys.readouterr()
    assert main(["train", "--data", str(workdir / "data.jsonl"), "--config", str(tmp_path / "train.cfg"),
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "obs_ais has 2 steps but cfg.t_obs is 3 (vessel_id 'v0000')\n", err
    assert not out.exists()


def test_eval_past_the_checkpoint_horizon_exits_2_naming_t_fut(workdir, tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(workdir / "data.jsonl"), "--ckpt", str(workdir / "ckpt.bin"),
                 "--config", str(workdir / "train.cfg"), "--rho", "0", "--dt", "4", "--seeds", "1",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == "t_fut of the checkpoint is 3 < requested horizon 4\n", err
    assert not report.exists()


def test_only_main_returns_2():
    """A command raises a typed error for an input that cannot be right, and
    `main` alone turns it into exit 2."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    returning = {fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)
                 if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2}
    assert returning == {"main"}


def test_another_value_error_keeps_its_traceback(workdir, monkeypatch):
    """Only the file readers' typed errors become exit 2."""
    def fail(*args, **kwargs):
        raise ValueError("not a file's fault")

    monkeypatch.setattr(cli, "load_bank", fail)
    with pytest.raises(ValueError, match="not a file's fault"):
        main(["predict", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(workdir / "data.jsonl"),
              "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
              "--sample-id", "v0003", "--out", str(workdir / "never.json")])


def test_eval_reads_its_dataset_once_before_the_run_and_once_after(workdir, tmp_path, monkeypatch):
    """The samples are decoded from the bytes the input-mutation guard keeps,
    so --data is opened twice, by the guard's read before the run and its
    read after it, and no more."""
    data = workdir / "data.jsonl"
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == data:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # where pathlib looks it up
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["eval", "--data", str(data), "--ckpt", str(workdir / "ckpt.bin"),
                 "--bank", str(workdir / "bank.json"), "--config", str(workdir / "train.cfg"),
                 "--rho", "0", "--dt", "2", "--seeds", "1", "--report", str(tmp_path / "report.csv")]) == 0
    assert len(opened) == 2


def test_latent_viz_on_a_one_step_model_exits_2_naming_t_obs(tmp_path, monkeypatch, capsys):
    """A one-step window has no step to describe; latent-viz refuses it before
    it loads the checkpoint, instead of failing deep in the descriptors."""
    (tmp_path / "train.cfg").write_text(CONFIG_TEXT.replace("t_obs = 2", "t_obs = 1") + "epochs = 1\n")
    (tmp_path / "scenario.cfg").write_text(SCENARIO_TEXT.replace("t_obs = 2", "t_obs = 1"))
    assert main(["generate", "--config", str(tmp_path / "scenario.cfg"), "--out", str(tmp_path / "data.bin")]) == 0
    assert main(["train", "--data", str(tmp_path / "data.bin"), "--config", str(tmp_path / "train.cfg"),
                 "--out", str(tmp_path / "ckpt.bin"), "--quiet"]) == 0
    capsys.readouterr()

    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "load_model", no_load)
    assert main(["latent-viz", "--ckpt", str(tmp_path / "ckpt.bin"), "--data", str(tmp_path / "data.bin"),
                 "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "pca.csv")]) == 2
    assert "t_obs" in capsys.readouterr().err
    assert not (tmp_path / "pca.csv").exists()


def test_eval_on_a_one_step_model_exits_2_naming_t_obs(tmp_path, monkeypatch, capsys):
    """The constant-velocity baseline needs two observed steps; eval refuses a
    one-step config before it reads the dataset or loads the checkpoint, with
    or without --per-horizon, instead of failing after every vessel is encoded."""
    (tmp_path / "train.cfg").write_text(CONFIG_TEXT.replace("t_obs = 2", "t_obs = 1") + "epochs = 1\n")
    (tmp_path / "scenario.cfg").write_text(SCENARIO_TEXT.replace("t_obs = 2", "t_obs = 1"))
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", str(tmp_path / "scenario.cfg"), "--out", data]) == 0
    assert main(["train", "--data", data, "--config", str(tmp_path / "train.cfg"),
                 "--out", str(tmp_path / "ckpt.bin"), "--quiet"]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("eval read its inputs for a config it cannot evaluate")

    for name in ("load_model", "read_dataset", "train"):
        monkeypatch.setattr(cli, name, never)
    report = tmp_path / "report.csv"
    for mode in (["--ckpt", str(tmp_path / "ckpt.bin")], ["--per-horizon", "--train-data", data]):
        assert main(["eval", "--data", data, "--config", str(tmp_path / "train.cfg"), "--dt", "3",
                     "--rho", "0", "--seeds", "1", *mode, "--report", str(report)]) == 2
        assert "t_obs" in capsys.readouterr().err
    assert not report.exists()


def test_latent_viz_projects_the_mode_codes_and_runs_no_decoder_head(workdir, monkeypatch):
    """latent-viz encodes every vessel in one pool and projects its mode codes,
    with no `predict_modes` call; its CSV equals, byte for byte, the one built
    from `pca_project` of `mode_codes` of `encode` on the samples in vessel_id
    order, with lit, partly masked and dark vessels in a shuffled file; only
    a fully broadcast track gets motion descriptors."""
    import vesselcast.decoder as decoder_mod
    import vesselcast.model as model_mod

    samples = read_dataset(workdir / "data.jsonl")
    samples = apply_dark_vessels(samples, 0.25, seed=2)
    samples[3] = dataclasses.replace(samples[3], ais_mask=np.array([True, False]))
    data = workdir / "latent_mixed.jsonl"
    write_dataset(data, samples[::-1])
    out = workdir / "pca_mixed.csv"
    calls = []
    for module in (decoder_mod, model_mod):
        monkeypatch.setattr(module, "predict_modes", lambda *a, **k: calls.append(a))
    assert main(["latent-viz", "--ckpt", str(workdir / "ckpt.bin"), "--data", str(data),
                 "--config", str(workdir / "train.cfg"), "--out", str(out)]) == 0
    assert calls == []

    model = load_model(workdir / "ckpt.bin", load_train_config(workdir / "train.cfg"))
    ordered = sorted(samples, key=lambda s: s.vessel_id)
    codes = mode_codes(model.params.decoder, model.encode(ordered).f_enc).data
    points = pca_project(codes.reshape(-1, codes.shape[-1])).tolist()
    lines = ["vessel_id,mode,pc1,pc2,displacement,heading_change,tortuosity"]
    for i, sample in enumerate(ordered):
        # a vessel with a masked step gets empty descriptor fields
        fields = [repr(v) for v in cli._motion_descriptors(sample.obs_ais)] if sample.ais_mask.all() else [""] * 3
        for k in range(codes.shape[1]):
            x, y = points[i * codes.shape[1] + k]
            lines.append(",".join([sample.vessel_id, str(k), repr(x), repr(y), *fields]))
    assert sum(not s.ais_mask.any() for s in samples) == 2
    assert sum(not s.ais_mask.all() for s in samples) == 3
    assert out.read_text() == "\n".join(lines) + "\n"


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
main(["predict", "--ckpt", f"{root}/ckpt_{tag}.bin", "--data", f"{root}/data.jsonl",
      "--bank", f"{root}/bank.json", "--config", f"{root}/train.cfg",
      "--sample-id", "v0003", "--out", f"{root}/preds_{tag}.json"])
main(["latent-viz", "--ckpt", f"{root}/ckpt_{tag}.bin", "--data", f"{root}/data.jsonl",
      "--config", f"{root}/train.cfg", "--out", f"{root}/pca_{tag}.csv"])
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
    assert (workdir / "preds_a.json").read_bytes() == (workdir / "preds_b.json").read_bytes()
    assert (workdir / "pca_a.csv").read_bytes() == (workdir / "pca_b.csv").read_bytes()


def test_generate_and_bank_build_bit_identical_across_processes(workdir):
    """`generate` then `bank build` in two fresh processes -> the bytes of the
    in-process run that made the shared fixture."""
    script = r"""
import sys
from vesselcast.cli import main
root, tag = sys.argv[1], sys.argv[2]
main(["generate", "--config", f"{root}/scenario.cfg", "--seed", "1", "--out", f"{root}/data_{tag}.jsonl"])
main(["bank", "build", "--data", f"{root}/data_{tag}.jsonl", "--kmax", "4", "--out", f"{root}/bank_{tag}.json"])
"""
    for tag in ("a", "b"):
        proc = subprocess.run([sys.executable, "-c", script, str(workdir), tag], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for name, suffix in (("data", "jsonl"), ("bank", "json")):
        want = (workdir / f"{name}.{suffix}").read_bytes()
        assert (workdir / f"{name}_a.{suffix}").read_bytes() == want, name
        assert (workdir / f"{name}_b.{suffix}").read_bytes() == want, name


def _readme_cli_examples() -> list[str]:
    """Each `vesselcast ...` command of the README's CLI block, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [line for line in commands if line.startswith("vesselcast ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) == 6
    for line in examples:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
