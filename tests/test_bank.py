import dataclasses
import itertools
import re

import numpy as np
import pytest

from conftest import corrupt_in_place, micro_config, micro_waterway
from vesselcast.bank import (
    TrajectoryBank,
    bank_from_samples,
    build_bank,
    init_refinement,
    kmeans_assign,
    load_bank,
    motion_feature,
    refine_and_fuse,
    save_bank,
    search,
)
from vesselcast.checkpoint import CheckpointError, load_checkpoint, load_model, save_checkpoint, save_model
from vesselcast.data import apply_dark_vessels, generate_scenario
from vesselcast.data.types import FieldError
from vesselcast.engine import Rng, tensor
from vesselcast.model import Model
from vesselcast.params import collect_params


def rand(rng, shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)


def straight_track(start, velocity, n):
    steps = np.arange(n)[:, None]
    return np.asarray(start) + steps * np.asarray(velocity)


def windows(tracks, t_obs):
    """The (observed, future) arrays `build_bank` takes, split from a list of equal-length tracks."""
    stacked = np.stack(tracks)
    return stacked[:, :t_obs], stacked[:, t_obs:]


def test_motion_feature_unit_segment():
    track = straight_track([0.0, 0.0], [0.25, 0.0], 5)  # ends at (1, 0)
    feat = motion_feature(track)
    assert feat[0] == 0.0 and feat[1] == 0.0
    assert feat[-2] == pytest.approx(1.0) and feat[-1] == pytest.approx(0.0)


def test_motion_feature_invariance():
    rng = Rng(1)
    track = np.cumsum(rand(rng, (6, 2), -0.1, 0.1), axis=0)
    moved = track * 10.0 + np.array([3.0, -7.0])
    assert np.allclose(motion_feature(track), motion_feature(moved), atol=1e-12)


def test_motion_feature_stationary_guard():
    track = np.tile([2.0, 5.0], (4, 1))
    feat = motion_feature(track)
    assert np.array_equal(feat, np.zeros(8))


def brute_force_two_clusters(feats):
    """Best 2-partition by k-means objective, via exhaustive enumeration."""
    n = len(feats)
    best = None
    for labels in itertools.product([0, 1], repeat=n):
        labels = np.array(labels)
        if len(set(labels)) < 2:
            continue
        obj = 0.0
        for c in (0, 1):
            members = feats[labels == c]
            obj += ((members - members.mean(axis=0)) ** 2).sum()
        if best is None or obj < best[0]:
            best = (obj, labels)
    return best


def test_kmeans_two_well_separated_clusters():
    t_obs, t_fut = 4, 3
    # four tracks whose features separate into {fast-right} and {slow-right}:
    # displacements differ in curvature profile after normalization
    tracks = [
        straight_track([0.0, 0.0], [1.0, 0.0], 7),
        straight_track([5.0, 1.0], [1.0, 0.01], 7),
        np.cumsum(np.vstack([[0, 0]] + [[1.0, 0.8**i] for i in range(6)]), axis=0),
        np.cumsum(np.vstack([[0, 0]] + [[1.0, 0.82**i] for i in range(6)]), axis=0),
    ]
    bank = build_bank(*windows(tracks, t_obs), k_max=2, seed=3)
    feats = np.stack([motion_feature(t[:t_obs]) for t in tracks])
    _, best_labels = brute_force_two_clusters(feats)
    got_groups = set()
    for obs in bank.obs:
        idx = next(i for i, t in enumerate(tracks) if np.array_equal(obs, t[:t_obs]))
        got_groups.add(best_labels[idx])
    # the two medoids come from the two optimal groups
    assert got_groups == {0, 1}


def test_medoid_matches_brute_force():
    from vesselcast.bank import _kmeans

    rng = Rng(17)
    t_obs, t_fut = 5, 4
    seed = 5
    tracks = [np.cumsum(rand(rng, (t_obs + t_fut, 2), -0.2, 0.2), axis=0) for _ in range(12)]
    bank = build_bank(*windows(tracks, t_obs), k_max=3, seed=seed)
    feats = np.stack([motion_feature(t[:t_obs]) for t in tracks])
    # reproduce the assignment, then pick each cluster's medoid by explicit
    # enumeration with (distance, index) ordering as the independent rule
    assign = _kmeans(feats, 3, Rng(seed).child("bank-kmeans"))
    expected = []
    for c in range(3):
        members = [i for i in range(12) if assign[i] == c]
        if not members:
            continue
        mean = feats[members].mean(axis=0)
        best = min(members, key=lambda i: (float(np.linalg.norm(feats[i] - mean)), i))
        expected.append(best)
    assert len(expected) == len(bank)
    for obs, fut, feat, idx in zip(bank.obs, bank.fut, bank.feat, expected):
        assert np.array_equal(obs, tracks[idx][:t_obs])
        assert np.array_equal(fut, tracks[idx][t_obs : t_obs + t_fut])
        assert np.array_equal(feat, feats[idx])


@pytest.mark.parametrize("k_max", [0, -1])
def test_build_bank_rejects_k_max_below_one(k_max):
    with pytest.raises(ValueError, match=f"k_max must be at least 1, got {k_max}"):
        build_bank(*windows([straight_track([0.0, 0.0], [0.1, 0.2], 9)], 4), k_max=k_max, seed=0)


def test_build_bank_rejects_windows_of_different_row_counts_naming_both():
    obs, fut = windows([straight_track([0.0, 0.0], [0.1, 0.2], 9)] * 3, 4)
    with pytest.raises(ValueError, match="obs has 3 tracks but fut has 2"):
        build_bank(obs, fut[:2], k_max=2, seed=0)


def test_single_track_bank():
    track = straight_track([0.0, 0.0], [0.1, 0.2], 9)
    bank = build_bank(*windows([track], 4), k_max=16, seed=0)
    assert len(bank) == 1
    assert bank.t_obs == 4 and bank.t_fut == 5
    assert np.array_equal(bank.obs[0], track[:4])
    assert np.array_equal(bank.fut[0], track[4:9])


def test_kmeans_objective_non_increasing():
    rng = Rng(23)
    feats = rand(rng, (40, 8))
    from vesselcast.bank import _farthest_point_init

    centers = _farthest_point_init(feats, 5, Rng(1))
    assign = kmeans_assign(feats, centers)
    prev = float(((feats - centers[assign]) ** 2).sum())  # the k-means objective
    for _ in range(20):
        for c in range(5):
            members = assign == c
            if members.any():
                centers[c] = feats[members].mean(axis=0)
        assign = kmeans_assign(feats, centers)
        obj = float(((feats - centers[assign]) ** 2).sum())
        assert obj <= prev + 1e-12
        prev = obj


def test_search_self_match():
    rng = Rng(29)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.2, 0.2), axis=0) for _ in range(6)]
    bank = build_bank(*windows(tracks, 4), k_max=6, seed=1)
    got, sims = search(bank, bank.obs)  # every entry's own track, one row each
    assert got.tolist() == list(range(len(bank)))
    assert sims == pytest.approx(np.ones(len(bank)), abs=1e-6)
    assert np.array_equal(bank.fut[got], bank.fut)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_search_rejects_non_finite_key(value):
    rng = Rng(29)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.2, 0.2), axis=0) for _ in range(6)]
    bank = build_bank(*windows(tracks, 4), k_max=6, seed=1)
    keys = bank.obs.copy()
    keys[1, 2, 1] = value
    with pytest.raises(ValueError, match="search key row 1 is not finite"):
        search(bank, keys)


def test_search_orthogonal_and_diagonal_similarities():
    t_obs = 2
    # features are built from tracks; craft tracks whose features are the
    # target vectors: track [(0,0),(1,0)] -> feature (0,0,1,0)
    e1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    e2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    bank = TrajectoryBank(obs=np.stack([e2, e1]), fut=np.stack([np.zeros((2, 2)), np.ones((2, 2))]))
    assert bank.t_obs == t_obs
    assert np.array_equal(bank.feat, np.stack([motion_feature(e2), motion_feature(e1)]))
    # orthogonal: query along x vs entry along y
    fv = motion_feature(e1)
    f2 = motion_feature(e2)
    assert float(fv @ f2) == 0.0
    # diagonal query vs x-axis entry: cos = 1/sqrt(2)
    diag = np.array([[0.0, 0.0], [1.0, 1.0]])
    fd = motion_feature(diag)
    denom = np.linalg.norm(fd) * np.linalg.norm(fv) + 1e-8
    s = float(fd @ fv) / denom
    assert s == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-7)
    # the diagonal ties exactly between both entries -> lowest index wins
    k, sim = search(bank, diag[None])
    assert k.tolist() == [0]
    assert sim[0] == pytest.approx(s, abs=1e-12)


def test_search_matches_exhaustive_scan():
    rng = Rng(31)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.3, 0.3), axis=0) for _ in range(40)]
    bank = build_bank(*windows(tracks, 4), k_max=32, seed=2)
    feats = np.stack([motion_feature(obs) for obs in bank.obs])
    queries = np.cumsum(rand(rng, (200, 4, 2), -0.3, 0.3), axis=1)
    got, _ = search(bank, queries)
    for query, got_row in zip(queries, got):
        fv = motion_feature(query)
        sims = feats @ fv / (np.linalg.norm(fv) * np.linalg.norm(feats, axis=1) + 1e-8)
        expected = int(np.argmax(sims))
        assert got_row == expected


def one_track_search(bank, key):
    """The one-key search the row-axis `search` replaced: a displacement norm
    and a feature norm from `np.linalg.norm` of one vector, and one matvec.
    Returns the key's feature, the best index and its similarity."""
    rel = key - key[0]
    fv = (rel / max(float(np.linalg.norm(key[-1] - key[0])), 1e-8)).reshape(-1)
    sims = bank.feat @ fv / (np.linalg.norm(fv) * np.linalg.norm(bank.feat, axis=1) + 1e-8)
    best = int(np.argmax(sims))
    return fv, best, float(sims[best])


def test_row_axis_search_matches_the_one_track_search_bit_for_bit():
    """Lit, partly masked (masked steps at the origin, as `masked_track`
    leaves them) and stationary keys, searched in one call, give each key's
    one-track index and similarity, to the bit; so do their features, and
    the bank's own, which `build_bank` computes in one call."""
    rng = Rng(37)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.3, 0.3), axis=0) for _ in range(40)]
    bank = build_bank(*windows(tracks, 4), k_max=16, seed=2)
    lit = np.cumsum(rand(rng, (300, 4, 2), -0.3, 0.3), axis=1) + rand(rng, (300, 1, 2), -5.0, 5.0)
    partly = lit[:100].copy()
    partly[:50, 0] = 0.0
    partly[50:, 1:3] = 0.0
    stationary = np.repeat(rand(rng, (20, 1, 2)), 4, axis=1)
    keys = np.concatenate([lit, partly, stationary, np.zeros((1, 4, 2))])
    feats = motion_feature(keys)
    index, sims = search(bank, keys)
    assert index.shape == sims.shape == (len(keys),)
    for row, key in enumerate(keys):
        fv, best, sim = one_track_search(bank, key)
        assert feats[row].tobytes() == fv.tobytes(), row
        assert (int(index[row]), sims[row].tobytes()) == (best, np.float64(sim).tobytes()), row
    assert not feats[len(lit) + len(partly):].any()  # stationary keys hit the floor
    for obs, feat in zip(bank.obs, bank.feat):
        assert feat.tobytes() == one_track_search(bank, obs)[0].tobytes()


LIT = np.ones(1)  # the one vessel of these calls has a retrieved prior


def test_refine_gate_off_returns_base(micro_cfg):
    p = init_refinement(Rng(0).child("init"), micro_cfg)
    rng = Rng(37)
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    base = tensor(rand(rng, (1, k, t, 2)))
    prior = rand(rng, (1, t, 2))
    feats = tensor(rand(rng, (1, k, t, d)))
    f_enc = tensor(rand(rng, (1, 1, d)))
    p.gate.w.data[...] = 0.0
    p.gate.b.data[...] = -50.0  # sigmoid -> 0
    out = refine_and_fuse(p, base, prior, feats, f_enc, micro_cfg.offset_scale, LIT)
    assert np.allclose(out.data, base.data, atol=1e-18)


def test_refine_gate_on_zero_offset_returns_prior(micro_cfg):
    p = init_refinement(Rng(0).child("init"), micro_cfg)
    rng = Rng(41)
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    base = tensor(rand(rng, (1, k, t, 2)))
    prior = rand(rng, (1, t, 2))
    feats = tensor(rand(rng, (1, k, t, d)))
    f_enc = tensor(rand(rng, (1, 1, d)))
    p.gate.w.data[...] = 0.0
    p.gate.b.data[...] = 50.0  # sigmoid -> 1
    for tens in collect_params(p.offset_mlp).values():
        tens.data[...] = 0.0
    out = refine_and_fuse(p, base, prior, feats, f_enc, micro_cfg.offset_scale, LIT)
    assert np.allclose(out.data, np.broadcast_to(prior[:, None], (1, k, t, 2)), atol=1e-15)


def test_refine_midpoint(micro_cfg):
    p = init_refinement(Rng(0).child("init"), micro_cfg)
    rng = Rng(43)
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    base = tensor(rand(rng, (1, k, t, 2)))
    prior = rand(rng, (1, t, 2))
    feats = tensor(rand(rng, (1, k, t, d)))
    f_enc = tensor(rand(rng, (1, 1, d)))
    p.gate.w.data[...] = 0.0
    p.gate.b.data[...] = 0.0  # sigmoid(0) = 1/2
    for tens in collect_params(p.offset_mlp).values():
        tens.data[...] = 0.0
    out = refine_and_fuse(p, base, prior, feats, f_enc, micro_cfg.offset_scale, LIT)
    assert np.allclose(out.data, 0.5 * (base.data + prior[:, None]), atol=1e-15)


def test_refine_rows_with_lit_zero_keep_their_base_and_give_no_gradient(micro_cfg):
    """In a [lit, unlit] call the unlit row returns its base bit for bit, the
    lit row equals its one-vessel call bit for bit, and every parameter
    gradient equals that of the lit row alone."""
    from vesselcast.engine import Tape, backward, tsum

    p = init_refinement(Rng(0).child("init"), micro_cfg)
    rng = Rng(45)
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    base = rand(rng, (2, k, t, 2))
    prior = np.stack([rand(rng, (t, 2)), np.zeros((t, 2))])
    feats = rand(rng, (2, k, t, d))
    f_enc = rand(rng, (2, 1, d))
    coeff = rand(rng, (2, k, t, 2))
    grads, outs = [], []
    for rows, lit in ((slice(0, 1), np.ones(1)), (slice(0, 2), np.array([1.0, 0.0]))):
        for tens in collect_params(p).values():
            tens.grad = None
        with Tape():
            out = refine_and_fuse(
                p, tensor(base[rows]), prior[rows], tensor(feats[rows]), tensor(f_enc[rows]),
                micro_cfg.offset_scale, lit,
            )
            backward(tsum(out * coeff[rows]))
        outs.append(out.data)
        grads.append({name: tens.grad for name, tens in collect_params(p).items()})
    alone, paired = outs
    assert paired[0].tobytes() == alone[0].tobytes()
    assert paired[1].tobytes() == base[1].tobytes()
    for name, grad in grads[0].items():
        assert np.array_equal(grads[1][name], grad), name


def test_bounded_refinement_inequality(micro_cfg):
    from vesselcast.engine import concat, reshape, sigmoid

    p = init_refinement(Rng(2).child("init"), micro_cfg)
    rng = Rng(47)
    k, t, d = micro_cfg.modes, micro_cfg.t_fut, micro_cfg.d_model
    for _ in range(20):
        base = tensor(rand(rng, (1, k, t, 2)))
        prior = rand(rng, (1, t, 2))
        feats = tensor(rand(rng, (1, k, t, d)))
        f_enc = tensor(rand(rng, (1, 1, d)))
        out = refine_and_fuse(p, base, prior, feats, f_enc, micro_cfg.offset_scale, LIT)
        beta = sigmoid(p.gate(f_enc)).item()
        for m in range(k):
            offset = p.offset_mlp(
                concat([reshape(tensor(prior[0]), (1, 2 * t)), reshape(tensor(feats.data[0, m]), (1, t * d))], axis=1)
            )
            lhs = np.linalg.norm(out.data[0, m] - base.data[0, m])
            rhs = beta * (
                np.linalg.norm(prior[0] - base.data[0, m])
                + micro_cfg.offset_scale * np.linalg.norm(offset.data)
            )
            assert lhs <= rhs + 1e-12


def test_bank_round_trip(tmp_path):
    """write -> read -> write is byte-identical, and the loaded bank's tracks
    and derived keys equal the built bank's bit for bit."""
    rng = Rng(53)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.2, 0.2), axis=0) for _ in range(10)]
    bank = build_bank(*windows(tracks, 4), k_max=4, seed=7)
    p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
    save_bank(p1, bank)
    loaded = load_bank(p1)
    assert loaded.t_obs == bank.t_obs and loaded.t_fut == bank.t_fut and len(loaded) == len(bank) == 4
    for field in ("obs", "fut", "feat"):
        assert getattr(bank, field).tobytes() == getattr(loaded, field).tobytes(), field
    save_bank(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_a_bank_file_is_a_checkpoint_of_two_track_tensors(tmp_path):
    rng = Rng(53)
    tracks = [np.cumsum(rand(rng, (9, 2), -0.2, 0.2), axis=0) for _ in range(10)]
    bank = build_bank(*windows(tracks, 4), k_max=4, seed=7)
    path = tmp_path / "bank.bin"
    save_bank(path, bank)
    tensors = load_checkpoint(path)
    assert list(tensors) == ["bank.obs", "bank.fut"]
    assert np.array_equal(tensors["bank.obs"], bank.obs) and np.array_equal(tensors["bank.fut"], bank.fut)


def fails_naming(path, rest, kind="bank"):
    """pytest.raises for the CheckpointError that names `kind` and `path`, then matches `rest`."""
    return pytest.raises(CheckpointError, match=f"{kind} {re.escape(str(path))}{rest}")


def _good_tensors():
    """The two tensors of a valid 3-entry bank, as `save_bank` writes them."""
    rng = Rng(53)
    return {"bank.obs": np.cumsum(rand(rng, (3, 4, 2)), axis=1), "bank.fut": rand(rng, (3, 5, 2))}


def _edit(tensors, how):
    if how == "missing":
        del tensors["bank.fut"]
    elif how == "extra":
        tensors["bank.feat"] = tensors["bank.obs"].reshape(3, 8)
    elif how == "rank":
        tensors["bank.obs"] = tensors["bank.obs"].reshape(3, 8)
    elif how == "no-steps":
        tensors["bank.obs"] = np.zeros((3, 0, 2))
    else:  # "k-mismatch"
        tensors["bank.fut"] = tensors["bank.fut"][:2]
    return tensors


@pytest.mark.parametrize(
    "how, message",
    [
        ("missing", r" is missing tensors \['bank.fut'\]"),
        ("extra", r" has unexpected tensors \['bank.feat'\]"),
        ("rank", r": tensor 'bank.obs' has shape \(3, 8\), not \(K, T, 2\)"),
        ("no-steps", r": tensor 'bank.obs' has shape \(3, 0, 2\), not \(K, T, 2\) with T >= 1"),
        ("k-mismatch", ": 'bank.obs' has 3 entries but 'bank.fut' has 2"),
    ],
)
def test_load_bank_rejects_a_container_that_breaks_a_bank_rule_naming_the_file(tmp_path, how, message):
    """A checkpoint with a valid checksum that is no bank: its tensors are not
    exactly `bank.obs` and `bank.fut`, not rank 3 with steps, or differ in K.
    A stored key (`extra`) is refused too: keys are derived, never read."""
    path = tmp_path / "bank.bin"
    save_checkpoint(path, _edit(_good_tensors(), how))
    with fails_naming(path, message):
        load_bank(path)


@pytest.mark.parametrize(
    "field, how, message",
    [
        ("obs", "short", "has shape"),
        ("fut", "short", "has shape"),
        ("obs", "nan", "is not finite"),
        ("fut", "nan", "is not finite"),
    ],
)
def test_load_bank_rejects_bad_entry_naming_it(tmp_path, field, how, message):
    """Entry 2 of one tensor is short (its points lack their second
    coordinate, so the tensor is not (K, T, 2)) or holds a NaN."""
    tensors, name = _good_tensors(), f"bank.{field}"
    if how == "short":
        tensors[name] = tensors[name][..., :1]
        where = rf"tensor '{name}' {message} \(3, \d, 1\)"
    else:
        tensors[name][2, 1, 0] = np.nan
        where = f"tensor '{name}' entry 2 {message}"
    path = tmp_path / "bank.bin"
    save_checkpoint(path, tensors)
    with fails_naming(path, f": {where}"):
        load_bank(path)


def test_load_bank_rejects_a_bank_with_no_entries(tmp_path):
    path = tmp_path / "bank.bin"
    save_checkpoint(path, {name: arr[:0] for name, arr in _good_tensors().items()})
    with fails_naming(path, " has no entries, but a bank needs at least one"):
        load_bank(path)


def test_load_bank_of_a_model_checkpoint_and_load_model_of_a_bank_name_the_file(tmp_path):
    cfg = micro_config()
    ckpt, bank = tmp_path / "model.bin", tmp_path / "bank.bin"
    save_model(ckpt, Model(cfg))
    save_checkpoint(bank, _good_tensors())
    with fails_naming(ckpt, r" is missing tensors \['bank.fut', 'bank.obs'\]"):
        load_bank(ckpt)
    with fails_naming(bank, " has no tensor 'meta.architecture_hash'", kind="checkpoint"):
        load_model(bank, cfg)


def test_a_json_bank_fails_saying_to_rebuild_it(tmp_path):
    """The JSON bank format is no longer read; such a file names itself and
    the command that writes the current format, as a v1 dataset does."""
    path = tmp_path / "bank.json"
    path.write_text('{"t_obs":2,"t_fut":3,"k":1,"seed":0,"entries":[]}\n', encoding="utf-8")
    with fails_naming(path, " is a JSON bank.*rebuild it with `vesselcast bank build`"):
        load_bank(path)


@pytest.mark.parametrize("stored", [(np.nan, np.nan), (123.0, -77.0)])
def test_bank_leaves_out_a_vessel_with_a_masked_step(tmp_path, micro_samples, stored):
    """The coordinate stored at a masked step is not a position: it becomes
    neither an entry's track nor its key, and the bank saves and loads."""
    obs = micro_samples[0].obs_ais.copy()
    obs[1] = stored
    mask = np.ones(len(obs), dtype=bool)
    mask[1] = False
    partial = dataclasses.replace(micro_samples[0], obs_ais=obs, ais_mask=mask)
    bank = bank_from_samples([partial, *micro_samples[1:]], 16, seed=0)  # k_max above n: every vessel kept
    want = bank_from_samples(micro_samples[1:], 16, seed=0)
    for field in ("obs", "fut", "feat"):
        assert np.array_equal(getattr(bank, field), getattr(want, field)), field
    path = tmp_path / "bank.bin"
    save_bank(path, bank)
    assert np.array_equal(load_bank(path).obs, want.obs)


def test_bank_from_an_all_dark_dataset_fails_naming_ais_mask(micro_samples):
    dark = apply_dark_vessels(micro_samples, 1.0, seed=0)
    with pytest.raises(FieldError, match="^ais_mask has a masked step in each of the 6 vessels"):
        bank_from_samples(dark, 4, seed=0)


def test_every_bit_flip_and_truncation_of_a_bank_fails_naming_the_file(tmp_path, micro_samples):
    """Each truncation and each single-bit flip of a micro bank, the future
    tracks included, raises a ValueError naming the file."""
    path = tmp_path / "bank.bin"
    save_bank(path, bank_from_samples(micro_samples, 4, seed=0))
    size, cases = len(path.read_bytes()), 0
    for _ in corrupt_in_place(path, masks=[1 << bit for bit in range(8)]):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_bank(path)
        cases += 1
    assert cases == 9 * size  # 8 flips of each byte, then each truncation


@pytest.mark.parametrize("field", ["obs_ais", "fut_ais"])
def test_bank_from_samples_rejects_a_track_of_another_window_naming_the_field(field):
    """Every track is split at one observed and one future length; a vessel
    with a longer window would put observed points into its entry's future."""
    samples = generate_scenario(micro_waterway(), seed=1)
    longer = {"obs_ais": dict(t_obs=4), "fut_ais": dict(t_fut=5)}[field]
    other = dataclasses.replace(generate_scenario(micro_waterway(**longer), seed=1)[2], vessel_id="longer")
    message = rf"{field} has \d+ steps but the bank's first track has \d+ \(vessel_id 'longer'\)"
    with pytest.raises(ValueError, match=message):
        bank_from_samples(samples + [other], 4, seed=0)
