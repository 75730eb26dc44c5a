"""Training objective: winner-takes-all reconstruction plus latent regularizer."""

from __future__ import annotations

import numpy as np

from .decoder import ModeOutput
from .engine import Tensor, exp, mul, narrow, reshape, sqrt, tensor, tmean, tsum


def step_distance_mean(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Per-mode mean over steps of the per-step Euclidean distance: (..., K, T, 2) -> (..., K)."""
    diff = pred - tensor(np.asarray(gt, dtype=np.float64))
    return tmean(sqrt(tsum(mul(diff, diff), axis=-1)), axis=-1)


def rec_loss(modes: ModeOutput, gt_ais: np.ndarray, gt_cctv: np.ndarray) -> tuple[Tensor, int]:
    """Joint best mode over both modalities; ties go to the lowest index.

    `modes` holds one sample: its fields are (K, ...), or (1, K, ...) with a
    vessel axis. Only the winning mode's rows receive gradient.
    """
    per_mode = step_distance_mean(modes.ais, gt_ais) + step_distance_mean(modes.cctv, gt_cctv)
    winner = int(np.argmin(per_mode.data))
    return reshape(narrow(per_mode, -1, winner, 1), ()), winner


def kl_loss(mu: Tensor, logvar: Tensor) -> Tensor:
    """Per-row -1/2 sum_j (1 + logvar_j - mu_j^2 - exp(logvar_j)); zero iff standard normal."""
    inner = 1.0 + logvar - mul(mu, mu) - exp(logvar)
    return mul(tsum(inner, axis=-1), -0.5)


def sample_losses(modes: ModeOutput, gt_ais: np.ndarray, gt_cctv: np.ndarray) -> tuple[Tensor, Tensor, int]:
    """(reconstruction, mode-averaged KL, winner) for one sample."""
    rec, winner = rec_loss(modes, gt_ais, gt_cctv)
    return rec, tmean(kl_loss(modes.mu, modes.logvar)), winner


def total_loss(rec: Tensor, kl: Tensor, kl_weight: float) -> Tensor:
    return rec + mul(kl, kl_weight)
