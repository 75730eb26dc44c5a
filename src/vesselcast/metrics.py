"""Displacement metrics and the constant-velocity yardstick (plain numpy).

Tracks are (..., T, 2) arrays; leading axes (vessels, modes) broadcast.
Sums the evaluation report depends on run left to right: numpy's `sum`
switches to pairwise summation from eight terms on, which would move the
report's last digits.
"""

from __future__ import annotations

import numpy as np


def ade_fde(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average and final Euclidean displacement between tracks of equal length, per leading index."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape[-2:] != gt.shape[-2:] or pred.ndim < 2 or pred.shape[-2] < 1:
        raise ValueError(f"ade_fde shapes disagree: {pred.shape} vs {gt.shape}")
    d = np.linalg.norm(pred - gt, axis=-1)
    return d.mean(axis=-1), d[..., -1]


def sum_in_order(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along `axis` strictly left to right."""
    return np.cumsum(values, axis=axis).take(-1, axis=axis)


def min_ade_fde_at_k(preds: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best ADE and best FDE over the modes of preds[..., K, T, 2] against gt[..., T, 2],
    each minimized independently."""
    ade, fde = ade_fde(preds, np.asarray(gt)[..., None, :, :])
    return ade.min(axis=-1), fde.min(axis=-1)


def diversity(preds: np.ndarray) -> np.ndarray:
    """Mean pairwise ADE between the distinct modes of preds[..., K, T, 2]; 0 for a single mode.

    Local convention only; not comparable to any externally reported number.
    """
    preds = np.asarray(preds, dtype=np.float64)
    i, j = np.triu_indices(preds.shape[-3], k=1)  # pairs in (i, j) order
    if not len(i):
        return np.zeros(preds.shape[:-3])
    pair_ade, _ = ade_fde(preds[..., i, :, :], preds[..., j, :, :])
    return sum_in_order(pair_ade, axis=-1) / len(i)


def cv_steps(t_obs: int) -> list[int]:
    """The two observed steps the constant-velocity baseline reads: min(3, t_obs-1)
    steps before the last, and the last."""
    return [t_obs - 1 - min(3, t_obs - 1), t_obs - 1]


def constant_velocity_baseline(observed: np.ndarray, t_fut: int) -> np.ndarray:
    """Extrapolate tracks (..., T_obs, 2) with the mean velocity of their last
    min(3, T_obs-1) steps, reading only the two steps `cv_steps` names."""
    observed = np.asarray(observed, dtype=np.float64)
    t_obs = observed.shape[-2] if observed.ndim >= 2 else 0
    if t_obs < 2:
        raise ValueError(f"constant-velocity baseline needs >= 2 observed points, got {t_obs}")
    first, last = cv_steps(t_obs)
    velocity = (observed[..., last, :] - observed[..., first, :]) / (last - first)
    steps = np.arange(1, t_fut + 1)[:, None]
    return observed[..., last, None, :] + steps * velocity[..., None, :]
