"""Experiment grid: horizon x density x missing-rate cells, seed-averaged.

One trained model is evaluated at truncated horizons. Dark-vessel selection
is drawn per (cell, seed) from a stream keyed by both, and aggregation
follows sorted cell keys, so a report is a pure function of (dataset,
checkpoint, grid, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import TrajectoryBank
from .data.generate import apply_dark_vessels
from .data.types import DENSITY_LEVELS, FieldError, VesselSample
from .engine.rng import Rng
from .metrics import ade_fde, constant_velocity_baseline, cv_steps, diversity, sum_in_order
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
_CV = [_METRICS.index("cv_ade"), _METRICS.index("cv_fde")]

# most encoding rows one `Model.decode` pass of `evaluate` holds; a draw of more
# rows is a pass alone. Eval-grid's 96-row horizon in one pass raised the traced
# peak of an `evaluate` call from 3.26 to 4.76 MB (tracemalloc); passes of 48 rows keep 3.26
DECODE_ROWS = 48


@dataclass
class CellReport:
    dt: int
    density: str
    rho: float
    n_samples: int
    n_seeds: int
    mean: dict  # metric name -> seed mean; empty when n_samples == 0, no cv_* when no seed has a baseline
    std: dict


def _vessel_scores(
    dark: list[VesselSample], ais: np.ndarray, cctv: np.ndarray, dt: int
) -> tuple[np.ndarray, np.ndarray]:
    """The `_METRICS` of each vessel from its candidates, and whether it has a
    constant-velocity baseline: a (vessels, metrics) array in `_METRICS`
    order, with `cv_*` 0 for a vessel without one, and a (vessels,) bool.

    `dark` holds the vessels as scored, dark vessels applied; `ais` and
    `cctv` hold their (vessels, K, >= dt, 2) candidates per modality, scored
    on their first `dt` steps. A vessel has a baseline only when both
    observed steps it reads (`cv_steps`) are broadcast, so the baseline never
    reads a masked step; one call extrapolates every such vessel. Each row
    depends only on its vessel, so the rows of several draws score in one call.
    """
    ais, cctv = ais[:, :, :dt], cctv[:, :, :dt]
    obs = np.stack([s.obs_ais for s in dark])
    has_cv = np.stack([s.ais_mask for s in dark])[:, cv_steps(obs.shape[1])].all(axis=1)
    gt_a = np.stack([s.fut_ais[:dt] for s in dark])
    gt_c = np.stack([s.fut_cctv[:dt] for s in dark])[:, None]
    ais_err = np.stack(ade_fde(ais, gt_a[:, None]), axis=-1)  # (vessels, K, 2) (ade, fde) pairs
    cctv_err = np.stack(ade_fde(cctv, gt_c), axis=-1)
    cv_err = np.zeros((len(dark), 2))  # a vessel without a baseline adds 0 to the in-order sums
    cv_err[has_cv] = np.stack(ade_fde(constant_velocity_baseline(obs[has_cv], dt), gt_a[has_cv]), axis=-1)
    per_vessel = np.concatenate(  # (vessels, metrics), in `_METRICS` order
        [ais_err.min(axis=1), ais_err[:, 0], cctv_err.min(axis=1), cctv_err[:, 0], cv_err, diversity(ais)[:, None]],
        axis=1,
    )
    return per_vessel, has_cv


def _draw_scores(per_vessel: np.ndarray, has_cv: np.ndarray) -> np.ndarray:
    """The `_METRICS` of one (cell, seed) from its pool's `_vessel_scores`
    rows: each a mean over the pool's vessels in the order given, except
    `cv_*`: those are over the vessels that have a baseline, and NaN when
    none has."""
    totals = sum_in_order(per_vessel)
    means = totals / len(per_vessel)
    means[_CV] = totals[_CV] / has_cv.sum() if has_cv.any() else np.nan
    return means


def _passes(draws: list[slice]) -> list[slice]:
    """The row spans of the decode passes over consecutive draws, given as
    row spans: a pass holds whole draws and at most `DECODE_ROWS` rows, and
    a draw of more rows is a pass alone."""
    passes = []
    for draw in draws:
        if passes and draw.stop - passes[-1].start <= DECODE_ROWS:
            passes[-1] = slice(passes[-1].start, draw.stop)
        else:
            passes.append(draw)
    return passes


def check_grid(dts: list[int], rhos: list[float], seeds: list) -> None:
    """Reject a grid no evaluation can run, naming the axis: an empty axis, a
    value given twice on one axis, a horizon below 1 step, or a missing rate
    outside [0, 1] or NaN."""
    for name, axis in (("dts", dts), ("rhos", rhos), ("seeds", seeds)):
        if len(axis) == 0:
            raise FieldError(name, "is empty: the grid needs at least one value on each axis")
        repeated = [v for i, v in enumerate(axis) if v in axis[:i]]
        if repeated:
            raise FieldError(name, f"holds {repeated[0]!r} twice: each value on an axis must be distinct")
    if min(dts) < 1:
        raise FieldError("dts", f"holds horizon {min(dts)}: every horizon must be at least 1 step")
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:  # also false for NaN
            raise FieldError("rhos", f"holds missing rate {rho!r}: every rate must lie in [0, 1]")


def evaluate(
    samples: list[VesselSample],
    model: Model,
    bank: TrajectoryBank | None,
    dts: list[int],
    rhos: list[float],
    seeds: list[int],
) -> list[CellReport]:
    """Metrics per (dt, density, rho) cell, mean +- std over evaluation seeds.

    Returns one `CellReport` per cell, in (dt, density, rho) order. Seeds
    drive only dark-vessel selection on the fixed checkpoint, so a cell
    where no vessel goes dark has std 0.
    Densities absent from the dataset produce cells with n_samples=0 and no
    metric values. A cell's `cv_*` are over the seeds where some vessel has
    a constant-velocity baseline (`_draw_scores`), and absent when none does.

    The checkpoint's `t_fut` must reach the longest horizon, or the grid
    fails naming `t_fut`. So must every sample's future, and every sample
    needs 2 observed steps for the constant-velocity baseline; one that falls
    short fails naming `fut_ais` or `obs_ais` and its vessel_id before any
    encoding. So do no samples, naming `samples`, and a bank built for other
    horizons, naming its field.

    The grid varies only the broadcast mask (through rho and the seed). A
    vessel can meet two masks on the grid, its own and the all-false one
    `apply_dark_vessels` gives it, so one `Model.encode(samples, dark=True)`
    call before the grid checks each sample once, naming the vessel_id of
    one that fails, encodes each vessel's scenes once, and fuses the
    2 * vessels (vessel, ais_mask) pairs: with the samples in vessel_id
    order, row i holds vessel i under its stored mask and row vessels + i
    under the all-false one. Each (cell, seed) draw takes its pool's rows of
    that one encoding by position, the all-false row for a vessel with no
    broadcast step. A horizon's draws are decoded in grid order, in passes
    of whole consecutive draws and at most `DECODE_ROWS` rows (a bigger draw
    is a pass alone): one `Model.decode` call per pass reads only its rows,
    decodes and refines them, and searches the bank once for all of the
    pass's lit rows. A row's candidates equal its one-row call bit for bit,
    so the packing changes no result. `_vessel_scores` then scores every
    row of the horizon in one call, and `_draw_scores` averages each draw's
    span of those rows into that seed's metrics.
    """
    check_grid(dts, rhos, seeds)
    max_dt = max(dts)
    if model.cfg.t_fut < max_dt:
        raise FieldError("t_fut", f"of the checkpoint is {model.cfg.t_fut} < requested horizon {max_dt}")
    if not samples:
        raise FieldError("samples", "is empty: evaluate needs at least one sample")
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
    samples = sorted(samples, key=lambda s: s.vessel_id)
    for before, after in zip(samples, samples[1:]):
        if before.vessel_id == after.vessel_id:
            raise ValueError(f"evaluate needs a distinct vessel_id per sample; {after.vessel_id!r} repeats")
    model.check_bank(bank)
    encoding = model.encode(samples, dark=True)  # as stored, then all dark

    cells = []
    for dt in sorted(dts):
        horizon = []  # (cell, its seeds' scores) per cell of this horizon
        draws = []  # (its cell's scores, its span of the rows below) per (cell, seed), in grid order
        rows, scored = [], []  # per row: its encoding row and vessel as scored
        for density in DENSITY_LEVELS:
            positions = [i for i, s in enumerate(samples) if s.density == density]
            pool = [samples[i] for i in positions]
            for rho in sorted(rhos):
                key = f"dt={dt}/density={density}/rho={rho!r}"
                horizon.append((CellReport(dt, density, rho, len(pool), len(seeds), {}, {}), []))
                for seed in seeds if pool else []:
                    dark = apply_dark_vessels(pool, rho, seed=Rng(seed).child(key).child("dark-selection").seed)
                    draws.append((horizon[-1][1], slice(len(rows), len(rows) + len(dark))))
                    rows += [i + len(samples) * (not s.ais_mask.any()) for i, s in zip(positions, dark)]
                    scored += dark
        ais, cctv = [], []
        for span in _passes([span for _, span in draws]):
            modes = model.decode(encoding.take(rows[span]), bank=bank).modes
            ais.append(modes.ais.data)
            cctv.append(modes.cctv.data)
        per_vessel, has_cv = _vessel_scores(scored, np.concatenate(ais), np.concatenate(cctv), dt)
        for scores, span in draws:
            scores.append(_draw_scores(per_vessel[span], has_cv[span]))
        for cell, scores in horizon:
            for i, row in enumerate(np.array(scores).T.copy()):  # one contiguous row of seed values per metric
                row = row[~np.isnan(row)] if i in _CV else row  # the seeds with a baseline
                if len(row):
                    cell.mean[_METRICS[i]], cell.std[_METRICS[i]] = float(row.mean()), float(row.std())
            cells.append(cell)
    return cells


def write_report(path: str | Path, cells: list[CellReport]) -> None:
    """Write `cells` as a CSV, one row per cell in the order given: the cell's
    keys, then a mean and a std column per metric, both empty where the cell
    has no value."""
    header = ["dt", "density", "rho", "n_samples", "n_seeds"]
    for name in _METRICS:
        header += [f"{name}_mean", f"{name}_std"]
    lines = [",".join(header)]
    for c in cells:
        row = [str(c.dt), c.density, repr(c.rho), str(c.n_samples), str(c.n_seeds)]
        for name in _METRICS:
            row += [repr(c.mean[name]), repr(c.std[name])] if name in c.mean else ["", ""]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
