"""Command-line entry points: generate, bank build, train, eval, predict, latent-viz."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bank import bank_from_samples, full_broadcast, load_bank, save_bank
from .checkpoint import CheckpointError, load_model, save_model
from .config import load_train_config, load_waterway_config
from .data import DatasetFormatError, apply_dark_vessels, generate_scenario, parse_dataset, read_dataset, write_dataset
from .data.types import FieldError
from .decoder import mode_codes
from .evaluate import check_grid, evaluate, write_report
from .hashutil import fnv1a64  # noqa: F401  unused here; perfbench's tracer patches this name
from .pca import pca_project
from .plots import svg_line_chart
from .train import train


def _parse_list(flag: str, text: str, kind: type) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise FieldError(flag, f"{text!r} is not a comma-separated list of {kind.__name__}s") from None


def _nonempty(samples: list, path: str, command: str, flag: str = "--data") -> list:
    """`samples`, read from the dataset at `path` given as `flag`; fails naming
    both when it holds none, since `command` needs at least one."""
    if not samples:
        raise FieldError(flag, f"has no samples in {path}: {command} needs at least one")
    return samples


def _check_outputs(args) -> None:
    """Fail naming the flag when a file the command would write, `--out`,
    `--curve` or `--report`, lies in a directory that does not exist, before
    any input is read. `--plots` names a directory the command makes itself."""
    for name in ("out", "curve", "report"):
        path = getattr(args, name, None)
        if path is not None and not Path(path).parent.is_dir():
            raise FieldError(f"--{name}", f"{path} is in a directory that does not exist")


def cmd_generate(args) -> int:
    cfg = load_waterway_config(args.config)
    samples = generate_scenario(cfg, seed=args.seed)
    write_dataset(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_bank_build(args) -> int:
    if args.kmax < 1:
        raise FieldError("k_max", f"must be at least 1, got --kmax {args.kmax}")
    samples = _nonempty(read_dataset(args.data), args.data, "bank build")
    bank = bank_from_samples(samples, k_max=args.kmax, seed=args.seed)
    save_bank(args.out, bank)
    print(f"bank of {len(bank)} prototypes (from {len(full_broadcast(samples))} tracks) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    samples = _nonempty(read_dataset(args.data), args.data, "train")
    bank = load_bank(args.bank) if args.bank else None
    model, curve = train(
        samples,
        cfg,
        bank=bank,
        curve_path=args.curve,
        log=(print if not args.quiet else None),
    )
    save_model(args.out, model)
    if args.curve:
        svg = Path(args.curve).with_suffix(".svg")
        svg_line_chart(
            svg,
            {
                "total": [(s.epoch, s.total) for s in curve],
            },
            title="training loss",
            xlabel="epoch",
            ylabel="loss",
        )
    print(f"checkpoint -> {args.out}  (final total {curve[-1].total:.6f})")
    return 0


def _eval_plots(cells, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dts = sorted({c.dt for c in cells})
    series = {}
    for dt in dts:
        pts = {}
        for c in cells:
            if c.dt == dt and c.n_samples > 0:
                pts.setdefault(c.rho, []).append(c.mean["ais_min_ade"])
        series[f"dt={dt}"] = [(rho, float(np.mean(v))) for rho, v in sorted(pts.items())]
    svg_line_chart(
        out / "ade_vs_rho.svg",
        series,
        title="positional best-of-K ADE vs missing rate",
        xlabel="rho",
        ylabel="minADE",
    )


def cmd_eval(args) -> int:
    if args.per_horizon and not args.train_data:
        raise FieldError("--train-data", "is needed with --per-horizon")
    if not args.per_horizon and not args.ckpt:
        raise FieldError("--ckpt", "is needed unless --per-horizon is given")
    cfg = load_train_config(args.config)
    if cfg.t_obs < 2:
        raise FieldError("t_obs", f"must be at least 2 for eval's constant-velocity baseline, got {cfg.t_obs}")
    # before a checkpoint is loaded, or --per-horizon trains a model per horizon
    dts, rhos = _parse_list("--dt", args.dt, int), _parse_list("--rho", args.rho, float)
    seeds = list(range(args.seeds))
    check_grid(dts, rhos, seeds)
    # the input-mutation guard covers exactly the files this command reads; it
    # keeps their bytes, and an exact comparison is as strict as any digest's.
    # The datasets are decoded from those bytes, so each is held once
    read = [args.data, args.bank, args.train_data if args.per_horizon else args.ckpt]
    before = {path: Path(path).read_bytes() for path in read if path}
    samples = _nonempty(parse_dataset(before[args.data], args.data), args.data, "eval")
    if args.per_horizon:
        train_samples = parse_dataset(before[args.train_data], args.train_data)
        _nonempty(train_samples, args.train_data, "eval --per-horizon", "--train-data")
    bank = load_bank(args.bank) if args.bank else None

    if args.per_horizon:
        cells = []
        for dt in dts:
            cfg_dt = dataclasses.replace(cfg, t_fut=dt)
            train_dt = [dataclasses.replace(s, fut_ais=s.fut_ais[:dt], fut_cctv=s.fut_cctv[:dt])
                        for s in train_samples]
            bank_dt = None if bank is None else dataclasses.replace(bank, fut=bank.fut[:, :dt])
            model_dt, _ = train(train_dt, cfg_dt, bank=bank_dt)
            cells += evaluate(samples, model_dt, bank_dt, [dt], rhos, seeds)
    else:
        model = load_model(args.ckpt, cfg)
        cells = evaluate(samples, model, bank, dts, rhos, seeds)

    write_report(args.report, cells)
    if args.plots:
        _eval_plots(cells, args.plots)
    if any(Path(path).read_bytes() != data for path, data in before.items()):
        print("evaluation mutated its inputs", file=sys.stderr)
        return 3
    print(f"report -> {args.report} ({len(cells)} cells, {args.seeds} seeds)")
    return 0


def cmd_predict(args) -> int:
    cfg = load_train_config(args.config)
    samples = read_dataset(args.data)
    matches = [s for s in samples if s.vessel_id == args.sample_id]
    if not matches:
        raise FieldError("--sample-id", f"{args.sample_id!r} is the vessel_id of no sample in {args.data}")
    sample = matches[0]
    if args.dark:
        sample = apply_dark_vessels([sample], 1.0, seed=0)[0]  # rate 1 darkens every vessel, whatever the seed
    model = load_model(args.ckpt, cfg)
    bank = load_bank(args.bank) if args.bank else None
    preds = model.predict(sample, bank=bank)
    payload = {
        "vessel_id": sample.vessel_id,
        "ais": preds.ais.tolist(),
        "cctv": preds.cctv.tolist(),
        # null for a dark vessel or without --bank: nothing was retrieved
        "prior_index": preds.prior_index,
        "prior_similarity": preds.prior_similarity,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(preds.ais)} candidate futures -> {args.out}")
    return 0


def _motion_descriptors(obs: np.ndarray) -> tuple[float, float, float]:
    steps = np.diff(obs, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    displacement = float(np.linalg.norm(obs[-1] - obs[0]))
    path = float(lengths.sum())
    tortuosity = path / max(displacement, 1e-8)
    first = steps[0]
    last = steps[-1]
    denom = max(np.linalg.norm(first) * np.linalg.norm(last), 1e-12)
    cosang = float(np.clip(first @ last / denom, -1.0, 1.0))
    heading_change = float(np.arccos(cosang))
    return displacement, heading_change, tortuosity


def cmd_latent_viz(args) -> int:
    cfg = load_train_config(args.config)
    if cfg.t_obs < 2:
        raise FieldError("t_obs", f"must be at least 2 for latent-viz's motion descriptors, got {cfg.t_obs}")
    samples = _nonempty(read_dataset(args.data), args.data, "latent-viz")
    if len(samples) * cfg.modes < 2:
        raise FieldError("--data", f"has {len(samples)} sample in {args.data} and the config {cfg.modes} mode, "
                         "so 1 mode code: latent-viz's 2-D projection needs at least 2")
    model = load_model(args.ckpt, cfg)
    ordered = sorted(samples, key=lambda s: s.vessel_id)
    codes = mode_codes(model.params.decoder, model.encode(ordered).f_enc).data  # (vessels, K, 2 * d_model)
    proj = pca_project(codes.reshape(-1, codes.shape[-1])).reshape(len(ordered), -1, 2).tolist()
    lines = ["vessel_id,mode,pc1,pc2,displacement,heading_change,tortuosity"]
    for sample, points in zip(ordered, proj):
        # a track with a masked step was not all broadcast, so it is not described
        desc = ",".join(map(repr, _motion_descriptors(sample.obs_ais))) if sample.ais_mask.all() else ",,"
        lines += [f"{sample.vessel_id},{k},{x!r},{y!r},{desc}" for k, (x, y) in enumerate(points)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines) - 1} mode-code projections -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselcast",
        description="Multimodal vessel trajectory prediction on synthetic waterways",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a waterway scenario dataset")
    p.add_argument("--config", default=None, help="flat key=value scenario config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p_bank = sub.add_parser("bank", help="prototype bank operations")
    bank_sub = p_bank.add_subparsers(dest="bank_command", required=True)
    p = bank_sub.add_parser("build", help="cluster historical tracks into a bank")
    p.add_argument("--data", required=True)
    p.add_argument("--kmax", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bank_build)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", default=None, help="loss-curve CSV (an SVG lands next to it)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the experiment grid")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", default=None, help="checkpoint to evaluate; required without --per-horizon")
    p.add_argument("--bank", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--rho", default="0,0.1,0.2,0.3")
    p.add_argument("--dt", default="12")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--report", required=True)
    p.add_argument("--plots", default=None)
    p.add_argument("--per-horizon", action="store_true",
                   help="retrain one model per horizon instead of truncating")
    p.add_argument("--train-data", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="emit candidate futures for one vessel")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample-id", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--dark", action="store_true", help="hide the vessel's broadcast track")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("latent-viz", help="export 2-D projections of the decoder's mode codes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_latent_viz)

    return parser


def main(argv=None) -> int:
    """Run one command. An input that cannot be right (a flag, a config, a dataset,
    bank or checkpoint, a path that cannot be read or written) raises a typed error,
    which exits 2 here with one stderr line naming it; any other error keeps its traceback.
    An output in a directory that does not exist fails so before the command starts."""
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (FieldError, DatasetFormatError, CheckpointError, OSError) as e:
        if isinstance(e, OSError) and e.filename is None:
            raise  # not about a file the command was given
        print(f"{e.path}: {e}" if isinstance(e, DatasetFormatError) else e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
