"""Experiment grid: horizon x density x missing-rate cells, seed-averaged.

One trained model is evaluated at truncated horizons. Every cell owns an
independent noise stream keyed by (seed, cell), dark-vessel selection is
re-drawn per (cell, seed), and aggregation follows sorted cell keys, so a
report is a pure function of (dataset, checkpoint, grid, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bank import TrajectoryBank
from .data.generate import apply_dark_vessels
from .data.types import DENSITY_LEVELS, VesselSample
from .engine import Tensor, no_grad
from .engine.rng import Rng
from .metrics import ade_fde, constant_velocity_baseline, diversity, min_ade_fde_at_k
from .model import Model

_METRICS = (
    "ais_min_ade",
    "ais_min_fde",
    "ais_ade1",
    "ais_fde1",
    "cctv_min_ade",
    "cctv_min_fde",
    "cctv_ade1",
    "cctv_fde1",
    "cv_ade",
    "cv_fde",
    "diversity",
)


@dataclass
class CellReport:
    dt: int
    density: str
    rho: float
    n_samples: int
    n_seeds: int
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    cells: list[CellReport]
    seeds: list[int]


def _seed_metrics(
    samples: list[VesselSample],
    model: Model,
    bank: TrajectoryBank | None,
    dt: int,
    rho: float,
    cell_key: str,
    seed: int,
    scene_feats: dict[str, Tensor | None],
    predictor=None,
) -> dict[str, float]:
    stream = Rng(seed).child(cell_key)
    dark = apply_dark_vessels(samples, rho, seed=stream.child("dark-selection").seed)
    sums = {name: 0.0 for name in _METRICS}
    for sample in sorted(dark, key=lambda s: s.vessel_id):
        if predictor is None:
            preds = model.predict(
                sample,
                rng=stream.child(sample.vessel_id),
                bank=bank,
                scene_feats=scene_feats[sample.vessel_id],
            )
            ais_modes = preds.ais[:, :dt]
            cctv_modes = preds.cctv[:, :dt]
        else:
            ais_modes, cctv_modes = predictor(sample, dt)
        gt_a = sample.fut_ais[:dt]
        gt_c = sample.fut_cctv[:dt]
        min_a, min_fa = min_ade_fde_at_k(ais_modes, gt_a)
        min_c, min_fc = min_ade_fde_at_k(cctv_modes, gt_c)
        a1, f1 = ade_fde(ais_modes[0], gt_a)
        c1, cf1 = ade_fde(cctv_modes[0], gt_c)
        cv = constant_velocity_baseline(sample.obs_ais, dt)
        cv_a, cv_f = ade_fde(cv, gt_a)
        for name, value in zip(
            _METRICS,
            (min_a, min_fa, a1, f1, min_c, min_fc, c1, cf1, cv_a, cv_f, diversity(ais_modes)),
        ):
            sums[name] += value
    n = len(dark)
    return {name: total / n for name, total in sums.items()}


def evaluate(
    samples: list[VesselSample],
    model: Model,
    bank: TrajectoryBank | None,
    dts: list[int],
    rhos: list[float],
    seeds: list[int],
    predictor=None,
) -> ExperimentReport:
    """Metrics per (dt, density, rho) cell, mean +- std over evaluation seeds.

    Seeds drive latent sampling and dark-vessel selection on the fixed
    checkpoint. `predictor(sample, dt) -> (ais_modes, cctv_modes)` overrides
    the model (testing hook). Densities absent from the dataset produce
    cells with n_samples=0 and no metric values. Each vessel's scenes are
    encoded once, before the grid: the features do not depend on the dark
    mask that the cells vary.
    """
    max_dt = max(dts)
    t_fut = samples[0].t_fut if samples else 0
    if predictor is None and model is not None and model.cfg.t_fut < max_dt:
        raise ValueError(f"checkpoint t_fut={model.cfg.t_fut} < requested horizon {max_dt}")
    if t_fut < max_dt:
        raise ValueError(f"dataset t_fut={t_fut} < requested horizon {max_dt}")
    scene_feats = {}
    if predictor is None:
        if len({s.vessel_id for s in samples}) < len(samples):
            raise ValueError("evaluate needs a distinct vessel_id per sample")
        with no_grad():
            scene_feats = {s.vessel_id: model.encode_scenes(s) for s in samples}
    by_density = {
        level: [s for s in samples if s.density == level] for level in DENSITY_LEVELS
    }
    cells = []
    for dt in sorted(dts):
        for density in DENSITY_LEVELS:
            pool = by_density[density]
            for rho in sorted(rhos):
                key = f"dt={dt}/density={density}/rho={rho!r}"
                if not pool:
                    cells.append(
                        CellReport(dt=dt, density=density, rho=rho, n_samples=0, n_seeds=len(seeds))
                    )
                    continue
                per_seed = [
                    _seed_metrics(
                        pool, model, bank, dt, rho, key, seed, scene_feats, predictor=predictor
                    )
                    for seed in seeds
                ]
                mean = {}
                std = {}
                for name in _METRICS:
                    vals = np.array([m[name] for m in per_seed])
                    mean[name] = float(vals.mean())
                    std[name] = float(vals.std())
                cells.append(
                    CellReport(
                        dt=dt,
                        density=density,
                        rho=rho,
                        n_samples=len(pool),
                        n_seeds=len(seeds),
                        mean=mean,
                        std=std,
                    )
                )
    return ExperimentReport(cells=cells, seeds=list(seeds))


def write_report(path: str | Path, report: ExperimentReport) -> None:
    header = ["dt", "density", "rho", "n_samples", "n_seeds"]
    for name in _METRICS:
        header += [f"{name}_mean", f"{name}_std"]
    lines = [",".join(header)]
    for c in report.cells:
        row = [str(c.dt), c.density, repr(c.rho), str(c.n_samples), str(c.n_seeds)]
        for name in _METRICS:
            if c.n_samples == 0:
                row += ["", ""]
            else:
                row += [repr(c.mean[name]), repr(c.std[name])]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
