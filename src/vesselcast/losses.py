"""Training objective: winner-takes-all reconstruction over the K modes."""

from __future__ import annotations

import numpy as np

from .decoder import ModeOutput
from .engine import Tensor, mul, sqrt, tensor, tmean, tsum


def step_distance_mean(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Per-mode mean over steps of the per-step Euclidean distance: (..., K, T, 2) -> (..., K)."""
    diff = pred - tensor(np.asarray(gt, dtype=np.float64))
    return tmean(sqrt(tsum(mul(diff, diff), axis=-1)), axis=-1)


def sample_losses(modes: ModeOutput, gt_ais: np.ndarray, gt_cctv: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Each vessel's (V,) joint best-mode distance over both modalities, and
    its winner; ties go to the lowest index. `modes` fields are (V, K, ...)
    and the ground truths (V, T, 2). A one-hot mask over the (V, K) distances
    picks the winners, so every losing mode gets exactly zero gradient."""
    per_mode = step_distance_mean(modes.ais, gt_ais[:, None]) + step_distance_mean(modes.cctv, gt_cctv[:, None])
    winners = np.argmin(per_mode.data, axis=-1)
    one_hot = np.arange(per_mode.shape[-1]) == winners[:, None]
    return tsum(mul(per_mode, one_hot.astype(np.float64)), axis=-1), winners
