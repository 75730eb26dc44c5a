"""Command-line entry points: generate, bank build, train, eval, predict, latent-viz."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .bank import bank_from_samples, load_bank, save_bank
from .checkpoint import load_model, save_model
from .config import load_train_config, load_waterway_config
from .data import apply_dark_vessels, generate_scenario, read_dataset, write_dataset
from .engine.rng import Rng
from .evaluate import evaluate, write_report
from .hashutil import fnv1a64  # noqa: F401  unused here; perfbench's tracer patches this name
from .model import Model
from .pca import pca_project
from .plots import svg_line_chart
from .train import train, write_curve


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _file_hash(path: str) -> bytes:
    return hashlib.blake2b(Path(path).read_bytes()).digest()


def cmd_generate(args) -> int:
    cfg = load_waterway_config(args.config)
    samples = generate_scenario(cfg, seed=args.seed)
    write_dataset(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_bank_build(args) -> int:
    samples = read_dataset(args.data)
    bank = bank_from_samples(samples, k_max=args.kmax, seed=args.seed)
    save_bank(args.out, bank)
    print(f"bank of {len(bank)} prototypes (from {len(samples)} tracks) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    samples = read_dataset(args.data)
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
                "rec": [(s.epoch, s.rec) for s in curve],
                "kl": [(s.epoch, s.kl) for s in curve],
            },
            title="training loss",
            xlabel="epoch",
            ylabel="loss",
        )
    print(f"checkpoint -> {args.out}  (final total {curve[-1].total:.6f})")
    return 0


def _eval_plots(report, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dts = sorted({c.dt for c in report.cells})
    series = {}
    for dt in dts:
        pts = {}
        for c in report.cells:
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
        print("--per-horizon needs --train-data", file=sys.stderr)
        return 2
    if not args.per_horizon and not args.ckpt:
        print("eval needs --ckpt unless --per-horizon is given", file=sys.stderr)
        return 2
    cfg = load_train_config(args.config)
    # the input-mutation guard covers exactly the files this command reads
    read = [args.data, args.bank, args.train_data if args.per_horizon else args.ckpt]
    hashes = {path: _file_hash(path) for path in read if path}
    samples = read_dataset(args.data)
    bank = load_bank(args.bank) if args.bank else None
    dts = _parse_ints(args.dt)
    rhos = _parse_floats(args.rho)
    seeds = list(range(args.seeds))

    if args.per_horizon:
        train_samples = read_dataset(args.train_data)
        cells = []
        for dt in dts:
            cfg_dt = dataclasses.replace(cfg, t_fut=dt)
            train_dt = [dataclasses.replace(s, fut_ais=s.fut_ais[:dt], fut_cctv=s.fut_cctv[:dt])
                        for s in train_samples]
            bank_dt = None if bank is None else dataclasses.replace(
                bank, t_fut=dt, entries=[dataclasses.replace(e, fut=e.fut[:dt]) for e in bank.entries]
            )
            model_dt, _ = train(train_dt, cfg_dt, bank=bank_dt)
            rep = evaluate(samples, model_dt, bank_dt, [dt], rhos, seeds)
            cells.extend(rep.cells)
        from .evaluate import ExperimentReport

        report = ExperimentReport(cells=cells, seeds=seeds)
    else:
        model = load_model(args.ckpt, cfg)
        report = evaluate(samples, model, bank, dts, rhos, seeds)

    write_report(args.report, report)
    if args.plots:
        _eval_plots(report, args.plots)
    if any(_file_hash(path) != digest for path, digest in hashes.items()):
        print("evaluation mutated its inputs", file=sys.stderr)
        return 3
    print(f"report -> {args.report} ({len(report.cells)} cells, {args.seeds} seeds)")
    return 0


def cmd_predict(args) -> int:
    cfg = load_train_config(args.config)
    samples = read_dataset(args.data)
    matches = [s for s in samples if s.vessel_id == args.sample_id]
    if not matches:
        print(f"no sample with vessel_id '{args.sample_id}' in {args.data}", file=sys.stderr)
        return 2
    sample = matches[0]
    if args.dark:
        sample = apply_dark_vessels([sample], 1.0, seed=args.seed)[0]
    model = load_model(args.ckpt, cfg)
    bank = load_bank(args.bank) if args.bank else None
    preds = model.predict(sample, rng=Rng(args.seed).child(sample.vessel_id), bank=bank)
    payload = {
        "vessel_id": sample.vessel_id,
        "ais": [[[float(v) for v in p] for p in mode] for mode in preds.ais],
        "cctv": [[[float(v) for v in p] for p in mode] for mode in preds.cctv],
        "latents": [[float(v) for v in z] for z in preds.latents],
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
    samples = read_dataset(args.data)
    model = load_model(args.ckpt, cfg)
    bank = load_bank(args.bank) if args.bank else None
    rows = []
    latents = []
    for sample in sorted(samples, key=lambda s: s.vessel_id):
        preds = model.predict(sample, rng=Rng(args.seed).child(sample.vessel_id), bank=bank)
        disp, head, tort = _motion_descriptors(sample.obs_ais)
        for k, z in enumerate(preds.latents):
            latents.append(z)
            rows.append((sample.vessel_id, k, disp, head, tort))
    proj = pca_project(np.stack(latents))
    lines = ["vessel_id,mode,pc1,pc2,displacement,heading_change,tortuosity"]
    for (vid, k, disp, head, tort), (x, y) in zip(rows, proj):
        lines.append(f"{vid},{k},{x!r},{y!r},{disp!r},{head!r},{tort!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(rows)} latent projections -> {args.out}")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dark", action="store_true", help="hide the vessel's broadcast track")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("latent-viz", help="export 2-D latent projections")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_latent_viz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
