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
    """Leading two principal axes of (N, J) data, J >= 2, sign-fixed so the
    first nonzero loading of each is positive."""
    data = np.asarray(data, dtype=np.float64)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / max(len(data) - 1, 1)
    vecs = np.linalg.eigh(cov)[1]  # columns in ascending eigenvalue order
    return _fix_sign(vecs[:, -1]), _fix_sign(vecs[:, -2])


def pca_project(points: np.ndarray) -> np.ndarray:
    """Center and project (N, J) points, J >= 2, onto the top-2 principal axes."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        raise ValueError("pca_project needs at least two points")
    centered = points - points.mean(axis=0)
    if not np.any(np.abs(centered) > 0):
        warnings.warn("pca_project: rank-0 data, returning zeros", stacklevel=2)
        return np.zeros((len(points), 2))
    v1, v2 = top_two_components(points)
    return np.stack([centered @ v1, centered @ v2], axis=1)
