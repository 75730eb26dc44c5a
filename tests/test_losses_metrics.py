import math

import numpy as np
import pytest

from vesselcast.decoder import ModeOutput
from vesselcast.engine import Rng, Tape, backward, tensor
from vesselcast.losses import kl_loss, rec_loss, sample_losses, total_loss
from vesselcast.metrics import ade_fde, constant_velocity_baseline, cv_steps, diversity, min_ade_fde_at_k


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def modes_from(ais, cctv, mu=None, logvar=None, j=4, requires_grad=False):
    """Stack per-mode (T, 2) tracks into a one-vessel ModeOutput with leading (1, K) axes."""
    k, t = len(ais), len(ais[0])
    return ModeOutput(
        ais=tensor(np.stack(ais)[None], requires_grad=requires_grad),
        cctv=tensor(np.stack(cctv)[None], requires_grad=requires_grad),
        features=tensor(np.zeros((1, k, t, 2))),
        z=tensor(np.zeros((1, k, j))),
        mu=tensor(np.zeros((1, k, j)) if mu is None else mu[None]),
        logvar=tensor(np.zeros((1, k, j)) if logvar is None else logvar[None]),
    )


def test_rec_loss_perfect_prediction_is_zero():
    rng = Rng(1)
    gt_a, gt_c = rand(rng, (5, 2)), rand(rng, (5, 2))
    loss, (winner,) = rec_loss(modes_from([gt_a], [gt_c]), gt_a[None], gt_c[None])
    assert loss.item() == 0.0
    assert winner == 0


def test_rec_loss_duplicate_winner_unchanged():
    rng = Rng(2)
    gt_a, gt_c = rand(rng, (4, 2)), rand(rng, (4, 2))
    good = (gt_a + 0.01, gt_c + 0.01)
    bad = (gt_a + 1.0, gt_c + 1.0)
    base, _ = rec_loss(modes_from([good[0], bad[0]], [good[1], bad[1]]), gt_a[None], gt_c[None])
    dup, (winner,) = rec_loss(
        modes_from([good[0], bad[0], gt_a + 0.01], [good[1], bad[1], gt_c + 0.01]), gt_a[None], gt_c[None]
    )
    assert dup.item() == base.item()
    assert winner == 0  # ties resolve to the lowest index


def test_rec_loss_joint_min_across_modalities():
    # mode 0 wins on positions, mode 1 wins on pixels; winner is decided by
    # the summed error, verified by enumerating both modes by hand
    t = 3
    gt_a = np.zeros((t, 2))
    gt_c = np.zeros((t, 2))
    # mode 0 sum of means: 0.1*sqrt2 + 0.9*sqrt2; mode 1: 0.5*sqrt2 + 0.2*sqrt2
    modes = modes_from([gt_a + 0.1, gt_a + 0.5], [gt_c + 0.9, gt_c + 0.2])
    per_mode = []
    for offs in ((0.1, 0.9), (0.5, 0.2)):
        per_mode.append(sum(o * math.sqrt(2.0) for o in offs))
    expected_winner = int(np.argmin(per_mode))
    loss, (winner,) = rec_loss(modes, gt_a[None], gt_c[None])
    assert winner == expected_winner == 1
    assert loss.item() == pytest.approx(per_mode[1], abs=1e-12)


def test_rec_loss_gradient_only_through_winner():
    rng = Rng(3)
    gt_a, gt_c = rand(rng, (4, 2)), rand(rng, (4, 2))
    modes = modes_from([gt_a + 0.05, gt_a + 2.0], [gt_c + 0.05, gt_c + 2.0], requires_grad=True)
    with Tape():
        loss, (winner,) = rec_loss(modes, gt_a[None], gt_c[None])
        backward(loss)
    assert winner == 0
    assert np.linalg.norm(modes.ais.grad[0, 0]) > 0
    assert np.linalg.norm(modes.cctv.grad[0, 0]) > 0
    assert not modes.ais.grad[0, 1].any()
    assert not modes.cctv.grad[0, 1].any()


def test_kl_standard_normal_is_zero():
    j = 16
    assert kl_loss(tensor(np.zeros((1, j))), tensor(np.zeros((1, j)))).item() == 0.0


def test_kl_unit_mean_sixteen_dims():
    j = 16
    # -1/2 * sum(1 + 0 - 1 - 1) = j/2
    val = kl_loss(tensor(np.ones((1, j))), tensor(np.zeros((1, j)))).item()
    assert val == pytest.approx(8.0, abs=1e-12)


def test_kl_nonnegative_on_random_draws():
    rng = Rng(4)
    for _ in range(1000):
        mu = tensor(rand(rng, (1, 8), -3, 3))
        logvar = tensor(rand(rng, (1, 8), -4, 4))
        assert kl_loss(mu, logvar).item() >= 0.0


def test_total_loss_identity():
    rng = Rng(5)
    for _ in range(50):
        rec = tensor([abs(rng.uniform())])
        kl = tensor([abs(rng.uniform())])
        total = total_loss(rec, kl, 0.01)
        assert abs(total.item() - (rec.item() + 0.01 * kl.item())) < 1e-12


def test_ade_fde_zero_on_equal():
    rng = Rng(6)
    track = rand(rng, (7, 2))
    assert ade_fde(track, track) == (0.0, 0.0)


def test_ade_fde_345():
    gt = np.zeros((5, 2))
    pred = gt + np.array([0.3, 0.4])
    ade, fde = ade_fde(pred, gt)
    assert ade == pytest.approx(0.5, abs=1e-15)
    assert fde == pytest.approx(0.5, abs=1e-15)


def test_ade_fde_single_step():
    ade, fde = ade_fde(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert ade == fde


def test_min_ade_k1_and_identical_modes():
    rng = Rng(7)
    gt = rand(rng, (6, 2))
    pred = gt + 0.1
    mins = min_ade_fde_at_k(np.stack([pred]), gt)
    assert mins[0] == pytest.approx(ade_fde(pred, gt)[0])
    assert diversity(np.stack([pred])) == 0.0
    assert diversity(np.stack([pred, pred, pred])) == 0.0


def test_min_ade_brute_force_three_modes():
    rng = Rng(8)
    gt = rand(rng, (5, 2))
    preds = np.stack([gt + 0.3, gt - 0.1, gt + np.array([0.05, -0.2])])
    ades = [ade_fde(p, gt)[0] for p in preds]
    fdes = [ade_fde(p, gt)[1] for p in preds]
    got_ade, got_fde = min_ade_fde_at_k(preds, gt)
    assert got_ade == min(ades)
    assert got_fde == min(fdes)
    pair_ades = [
        ade_fde(preds[0], preds[1])[0],
        ade_fde(preds[0], preds[2])[0],
        ade_fde(preds[1], preds[2])[0],
    ]
    assert diversity(preds) == pytest.approx(np.mean(pair_ades), abs=1e-15)


def test_min_ade_non_increasing_in_k():
    rng = Rng(9)
    gt = rand(rng, (6, 2))
    modes = [gt + rand(rng, (6, 2)) for _ in range(6)]
    prev = np.inf
    for k in range(1, 7):
        cur, _ = min_ade_fde_at_k(np.stack(modes[:k]), gt)
        assert cur <= prev
        prev = cur


def test_cv_baseline_straight_motion_exact():
    start = np.array([0.3, 0.4])
    v = np.array([0.02, -0.01])
    obs = start + np.arange(8)[:, None] * v
    fut = start + (np.arange(8, 20))[:, None] * v
    pred = constant_velocity_baseline(obs, 12)
    assert np.allclose(pred, fut, atol=1e-12)
    assert ade_fde(pred, fut)[0] == pytest.approx(0.0, abs=1e-12)


def test_cv_baseline_over_stacked_tracks_matches_each_track_and_reads_two_steps():
    """Leading axes broadcast: a stack of tracks gives each track's own
    extrapolation bit for bit, and only the two steps `cv_steps` names are read."""
    tracks = Rng(3).normals(4 * 6 * 2)
    tracks = np.array(tracks).reshape(4, 6, 2)
    stacked = constant_velocity_baseline(tracks, 5)
    assert stacked.shape == (4, 5, 2)
    for track, got in zip(tracks, stacked):
        assert got.tobytes() == constant_velocity_baseline(track, 5).tobytes()
    assert cv_steps(6) == [2, 5] and cv_steps(2) == [0, 1]
    unread = np.setdiff1d(np.arange(6), cv_steps(6))
    blanked = tracks.copy()
    blanked[:, unread] = np.nan
    assert constant_velocity_baseline(blanked, 5).tobytes() == stacked.tobytes()


def test_cv_baseline_stationary():
    obs = np.tile([0.5, 0.5], (8, 1))
    pred = constant_velocity_baseline(obs, 5)
    assert np.allclose(pred, np.tile([0.5, 0.5], (5, 1)))


def test_cv_baseline_arc_error_matches_chord_oracle():
    # points on a circle every `dtheta`; CV extrapolates along the recent
    # chord direction, the truth keeps turning; closed-form comparison
    radius, dtheta = 1.0, 0.15
    angles_obs = np.arange(8) * dtheta
    angles_fut = (8 + np.arange(12)) * dtheta
    obs = radius * np.stack([np.cos(angles_obs), np.sin(angles_obs)], axis=1)
    fut = radius * np.stack([np.cos(angles_fut), np.sin(angles_fut)], axis=1)
    pred = constant_velocity_baseline(obs, 12)
    errors = np.linalg.norm(pred - fut, axis=1)
    # closed form: pred_t = p_last + t * v, with v the mean of the last 3 chords
    v = (obs[-1] - obs[-4]) / 3.0
    expected = np.linalg.norm(obs[-1] + np.arange(1, 13)[:, None] * v - fut, axis=1)
    assert np.allclose(errors, expected, atol=1e-12)
    # error grows with horizon on a curve
    assert errors[-1] > errors[0] > 0


def test_sample_losses_averages_kl_over_modes():
    rng = Rng(10)
    gt_a, gt_c = rand(rng, (4, 2)), rand(rng, (4, 2))
    mu = np.stack([np.ones(4), np.zeros(4)])
    modes = modes_from([gt_a, gt_a + 1], [gt_c, gt_c + 1], mu=mu, logvar=np.zeros((2, 4)), j=4)
    _, kl, (winner,) = sample_losses(modes, gt_a[None], gt_c[None])
    # per-mode KLs are 2.0 and 0.0 -> mean 1.0
    assert kl.item() == pytest.approx(1.0, abs=1e-12)
    assert winner == 0
