"""Experiment grid: horizon x density x missing-rate cells, seed-averaged.

One trained model is evaluated at truncated horizons. Every cell owns an
independent noise stream keyed by (seed, cell), dark-vessel selection is
re-drawn per (cell, seed), and aggregation follows sorted cell keys, so a
report is a pure function of (dataset, checkpoint, grid, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import TrajectoryBank
from .data.generate import apply_dark_vessels
from .data.types import DENSITY_LEVELS, FieldError, VesselSample
from .engine import concat
from .engine.rng import Rng
from .metrics import ade_fde, constant_velocity_baseline, diversity, sum_in_order
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
    mean: dict  # metric name -> seed mean; empty when n_samples == 0
    std: dict


@dataclass
class ExperimentReport:
    cells: list[CellReport]
    seeds: list[int]


def _seed_metrics(
    samples: list[VesselSample], predictor, dt: int, rho: float, cell_key: str, seed: int
) -> np.ndarray:
    """The `_METRICS` of one (cell, seed), each a mean over the vessels in vessel_id order.

    The pool's vessels, dark ones applied and in vessel_id order, go to one
    `predictor` call, each with its own noise stream `stream.child(vessel_id)`,
    which returns (vessels, K, dt, 2) candidates per modality.
    """
    stream = Rng(seed).child(cell_key)
    dark = apply_dark_vessels(samples, rho, seed=stream.child("dark-selection").seed)
    dark = sorted(dark, key=lambda s: s.vessel_id)
    ais, cctv = predictor(dark, dt, [stream.child(s.vessel_id) for s in dark])  # (vessels, K, dt, 2) each
    cv = np.stack([constant_velocity_baseline(s.obs_ais, dt) for s in dark])
    gt_a = np.stack([s.fut_ais[:dt] for s in dark])[:, None]
    gt_c = np.stack([s.fut_cctv[:dt] for s in dark])[:, None]
    # (ade, fde) pairs; the baseline rides along as positional mode K, after the predicted ones
    ais_err = np.stack(ade_fde(np.concatenate([ais, cv[:, None]], axis=1), gt_a), axis=-1)  # (vessels, K+1, 2)
    cctv_err = np.stack(ade_fde(cctv, gt_c), axis=-1)  # (vessels, K, 2)
    k = ais.shape[1]
    per_vessel = np.concatenate(  # (vessels, metrics), in `_METRICS` order
        [ais_err[:, :k].min(axis=1), ais_err[:, 0], cctv_err.min(axis=1), cctv_err[:, 0], ais_err[:, k],
         diversity(ais)[:, None]],
        axis=1,
    )
    return sum_in_order(per_vessel) / len(dark)


def check_grid(dts: list[int], rhos: list[float], seeds: list) -> None:
    """Reject a grid no evaluation can run: an empty axis, a horizon below 1
    step, or a missing rate outside [0, 1] or NaN."""
    for name, axis in (("dts", dts), ("rhos", rhos), ("seeds", seeds)):
        if len(axis) == 0:
            raise ValueError(f"{name} is empty: the grid needs at least one value on each axis")
    if min(dts) < 1:
        raise ValueError(f"dts holds horizon {min(dts)}: every horizon must be at least 1 step")
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:  # also false for NaN
            raise ValueError(f"rhos holds missing rate {rho!r}: every rate must lie in [0, 1]")


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
    checkpoint. `predictor(samples, dt, rngs) -> (ais_modes, cctv_modes)`,
    each (len(samples), K, dt, 2), with one rng per sample, overrides the
    model (testing hook). Densities absent from the dataset produce cells
    with n_samples=0 and no metric values.

    Every sample's future must reach the longest horizon, and every sample
    needs 2 observed steps for the constant-velocity baseline; one that falls
    short fails naming `fut_ais` or `obs_ais` and its vessel_id before any
    encoding.

    The grid varies only the broadcast mask (through rho) and the latent
    noise (through the seed), so every vessel's scenes are encoded before
    the grid, in one `Model.encode_scenes` call: it checks every sample
    first, naming the vessel_id of one that fails, then runs the stem per
    vessel and everything after it over the vessel axis, `CHUNK` vessels
    per pass, so its transients do not grow with the pool. A vessel can
    meet two masks on the grid, its own and the all-false one
    `apply_dark_vessels` gives it, so one `Model.encode` call, also before
    the grid, checks and fuses the 2 * vessels (vessel, ais_mask) pairs, and
    each (cell, seed) takes its pool's rows of that one encoding. Decoding
    and refinement run once per (cell, seed), over a vessel axis that holds
    the pool's vessels in vessel_id order (`Model.predict_pool`); bank
    search runs once per lit vessel of each (cell, seed).
    """
    check_grid(dts, rhos, seeds)
    max_dt = max(dts)
    if predictor is None and model.cfg.t_fut < max_dt:
        raise ValueError(f"checkpoint t_fut={model.cfg.t_fut} < requested horizon {max_dt}")
    if not samples:
        raise ValueError(f"dataset t_fut=0 < requested horizon {max_dt}")
    for s in samples:
        if s.t_obs < 2:
            raise FieldError(
                "obs_ais", f"has {s.t_obs} steps, fewer than the 2 the constant-velocity baseline needs "
                f"(vessel_id {s.vessel_id!r})"
            )
        if s.t_fut < max_dt:
            raise FieldError(
                "fut_ais", f"has {s.t_fut} steps, fewer than the requested horizon {max_dt} (vessel_id {s.vessel_id!r})"
            )
    if predictor is None:
        if len({s.vessel_id for s in samples}) < len(samples):
            raise ValueError("evaluate needs a distinct vessel_id per sample")
        scene_feats = model.encode_scenes(samples)  # (vessels, t_obs, d), or None
        both = samples + apply_dark_vessels(samples, 1.0, seed=0)  # as stored, then all dark, whatever the seed
        feats = None if scene_feats is None else concat([scene_feats, scene_feats])  # no tape runs here
        encoding = model.encode(both, scene_feats=feats)
        row = {(s.vessel_id, s.ais_mask.tobytes()): i for i, s in enumerate(both)}

        def predictor(pool, dt, rngs):
            rows = [row[s.vessel_id, s.ais_mask.tobytes()] for s in pool]
            preds = model.predict_pool(pool, rngs, encoding.take(rows), bank=bank)
            return np.stack([p.ais[:, :dt] for p in preds]), np.stack([p.cctv[:, :dt] for p in preds])

    by_density = {
        level: [s for s in samples if s.density == level] for level in DENSITY_LEVELS
    }
    cells = []
    for dt in sorted(dts):
        for density in DENSITY_LEVELS:
            pool = by_density[density]
            for rho in sorted(rhos):
                key = f"dt={dt}/density={density}/rho={rho!r}"
                per_seed = [_seed_metrics(pool, predictor, dt, rho, key, seed) for seed in seeds] if pool else []
                rows = np.array(per_seed).T.copy()  # one contiguous row of seed values per metric
                mean = {name: float(row.mean()) for name, row in zip(_METRICS, rows)}
                std = {name: float(row.std()) for name, row in zip(_METRICS, rows)}
                cells.append(CellReport(dt, density, rho, len(pool), len(seeds), mean, std))
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
