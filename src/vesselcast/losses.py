"""Training objective: winner-takes-all reconstruction plus latent regularizer."""

from __future__ import annotations

import numpy as np

from .decoder import ModeOutput
from .engine import Tensor, exp, mul, sqrt, tensor, tmean, tsum


def step_distance_mean(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Per-mode mean over steps of the per-step Euclidean distance: (..., K, T, 2) -> (..., K)."""
    diff = pred - tensor(np.asarray(gt, dtype=np.float64))
    return tmean(sqrt(tsum(mul(diff, diff), axis=-1)), axis=-1)


def rec_loss(modes: ModeOutput, gt_ais: np.ndarray, gt_cctv: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Each vessel's (V,) joint best-mode distance over both modalities, and
    its winner; ties go to the lowest index. `modes` fields are (V, K, ...)
    and the ground truths (V, T, 2). A one-hot mask over the (V, K) distances
    picks the winners, so every losing mode gets exactly zero gradient."""
    per_mode = step_distance_mean(modes.ais, gt_ais[:, None]) + step_distance_mean(modes.cctv, gt_cctv[:, None])
    winners = np.argmin(per_mode.data, axis=-1)
    one_hot = np.arange(per_mode.shape[-1]) == winners[:, None]
    return tsum(mul(per_mode, one_hot.astype(np.float64)), axis=-1), winners


def kl_loss(mu: Tensor, logvar: Tensor) -> Tensor:
    """Per-row -1/2 sum_j (1 + logvar_j - mu_j^2 - exp(logvar_j)); zero iff standard normal."""
    inner = 1.0 + logvar - mul(mu, mu) - exp(logvar)
    return mul(tsum(inner, axis=-1), -0.5)


def sample_losses(modes: ModeOutput, gt_ais: np.ndarray, gt_cctv: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray]:
    """(reconstruction, mode-averaged KL, winner) of each of V vessels, each of shape (V,)."""
    rec, winners = rec_loss(modes, gt_ais, gt_cctv)
    return rec, tmean(kl_loss(modes.mu, modes.logvar), axis=-1), winners


def total_loss(rec: Tensor, kl: Tensor, kl_weight: float) -> Tensor:
    return rec + mul(kl, kl_weight)
