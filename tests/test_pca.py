import numpy as np
import pytest

from vesselcast.engine import Rng
from vesselcast.pca import pca_project, top_two_components


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def eigh_oracle(data):
    """Dense covariance eigendecomposition, top-2 axes, same sign convention."""
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / max(len(data) - 1, 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    out = []
    for i in order[:2]:
        v = vecs[:, i]
        for x in v:
            if abs(x) > 1e-12:
                v = v if x > 0 else -v
                break
        out.append(v)
    return out


def test_collinear_points_project_onto_line():
    direction = np.array([2.0, 1.0]) / np.sqrt(5.0)
    ts = np.linspace(-1, 1, 9)
    pts = np.array([1.0, -0.5]) + ts[:, None] * direction
    proj = pca_project(pts)
    assert np.allclose(proj[:, 1], 0.0, atol=1e-7)
    spread = proj[:, 0]
    assert np.allclose(np.abs(spread), np.abs(ts) * 1.0, atol=1e-9)


def test_component_variance_ordering():
    rng = Rng(3)
    data = rand(rng, (40, 6))
    data[:, 0] *= 5.0  # inflate one direction
    proj = pca_project(data)
    assert proj[:, 0].var() >= proj[:, 1].var()


def test_matches_dense_eigendecomposition_many():
    rng = Rng(7)
    for trial in range(50):
        n = 5 + rng.randint(10)
        j = 3 + rng.randint(5)
        data = rand(rng, (n, j), -2.0, 2.0)
        v1, v2 = top_two_components(data)
        o1, o2 = eigh_oracle(data)
        assert np.allclose(v1, o1, atol=1e-6) or np.allclose(v1, -o1, atol=1e-6)
        assert np.allclose(v2, o2, atol=1e-6) or np.allclose(v2, -o2, atol=1e-6)


def test_rank_zero_warns_and_zeros():
    data = np.tile([1.0, 2.0, 3.0], (5, 1))
    with pytest.warns(UserWarning, match="rank-0"):
        proj = pca_project(data)
    assert np.array_equal(proj, np.zeros((5, 2)))


def test_sign_convention_first_nonzero_positive():
    rng = Rng(11)
    for _ in range(10):
        data = rand(rng, (12, 4))
        for v in top_two_components(data):
            nz = v[np.abs(v) > 1e-12]
            assert nz[0] > 0


@pytest.mark.parametrize("gap", [1e-2, 1e-3])
def test_recovers_constructed_axes_at_a_small_eigengap(gap):
    """40 points in 4-D whose covariance is Q diag(λ) Q^T with orthonormal Q
    and each λ 1 - gap times the one before: both top axes are Q's first two
    columns, up to sign, however close the eigenvalues."""
    rng = Rng(5)
    n, j = 40, 4
    q, _ = np.linalg.qr(rand(rng, (j, j)))
    scores = rand(rng, (n, j))
    u, _ = np.linalg.qr(scores - scores.mean(axis=0))  # orthonormal, zero-mean columns
    lam = (1.0 - gap) ** np.arange(j)
    data = (u * np.sqrt(lam * (n - 1))) @ q.T + np.array([0.3, -1.0, 2.0, 0.5])
    for v, axis in zip(top_two_components(data), q.T):
        assert min(np.abs(v - axis).max(), np.abs(v + axis).max()) <= 1e-9
