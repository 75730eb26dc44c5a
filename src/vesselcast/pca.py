"""Two-component PCA from one eigendecomposition of the sample covariance."""

from __future__ import annotations

import warnings

import numpy as np


def _fix_sign(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


def top_two_components(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading two principal axes of (N, J) data, sign-fixed so the first
    nonzero loading of each is positive; with J = 1 the second is zeros."""
    data = np.asarray(data, dtype=np.float64)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / max(len(data) - 1, 1)
    vecs = np.linalg.eigh(cov)[1]  # columns in ascending eigenvalue order
    v1 = vecs[:, -1]
    v2 = vecs[:, -2] if vecs.shape[1] > 1 else np.zeros_like(v1)
    return _fix_sign(v1), _fix_sign(v2)


def pca_project(latents: np.ndarray) -> np.ndarray:
    """Center and project (N, J) points onto the top-2 principal axes."""
    latents = np.asarray(latents, dtype=np.float64)
    if len(latents) < 2:
        raise ValueError("pca_project needs at least two points")
    centered = latents - latents.mean(axis=0)
    if not np.any(np.abs(centered) > 0):
        warnings.warn("pca_project: rank-0 data, returning zeros", stacklevel=2)
        return np.zeros((len(latents), 2))
    v1, v2 = top_two_components(latents)
    return np.stack([centered @ v1, centered @ v2], axis=1)
