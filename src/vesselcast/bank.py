"""Prototype trajectory bank: offline clustering, cosine retrieval, gated refinement.

The bank stores verbatim copies of real observed/future track pairs. Each
candidate key is the observed track shifted to start at the origin and
scaled by its end-to-start displacement, flattened. Clustering is seeded
k-means with farthest-point initialization; each cluster contributes the
member closest to the cluster's mean feature (a medoid, never a synthetic
average). Online, the query feature retrieves the best entry by cosine
similarity, and a learned offset plus a gate blend the retrieved future
with the network's own prediction. A bank file is a checkpoint of its tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data.types import FieldError
from .engine import Tensor, add, concat, mul, reshape, sigmoid, sub, tensor
from .engine.rng import Rng
from .params import Linear, Mlp, linear, mlp

COSINE_EPS = 1e-8
DISPLACEMENT_FLOOR = 1e-8
KMEANS_MAX_ITERS = 100


def _norm(x: np.ndarray) -> np.ndarray:
    """Norm over the last axis with the bits of `np.linalg.norm` of each row alone (a dot)."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def motion_feature(track: np.ndarray) -> np.ndarray:
    """Translation- and scale-invariant key of each (..., T, 2) track:
    (track - start) / displacement, flattened to (..., 2T).

    Stationary tracks hit the displacement floor and come out all-zero.
    Each row equals its own one-track call bit for bit.
    """
    track = np.asarray(track, dtype=np.float64)
    rel = track - track[..., :1, :]
    scale = np.maximum(_norm(track[..., -1, :] - track[..., 0, :]), DISPLACEMENT_FLOOR)
    return (rel / scale[..., None, None]).reshape(*track.shape[:-2], -1)


@dataclass
class TrajectoryBank:
    """K prototype pairs, row k of each array belonging to prototype k; the keys derive from `obs`."""

    obs: np.ndarray  # (K, T_obs, 2)
    fut: np.ndarray  # (K, T_fut, 2)
    feat: np.ndarray = field(init=False)  # (K, 2 * T_obs), motion_feature of each obs row

    def __post_init__(self):
        self.feat = motion_feature(self.obs)

    @property
    def t_obs(self) -> int:
        return self.obs.shape[1]

    @property
    def t_fut(self) -> int:
        return self.fut.shape[1]

    def __len__(self) -> int:
        return self.obs.shape[0]


def _farthest_point_init(feats: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = feats.shape[0]
    chosen = [rng.randint(n)]
    d2 = ((feats - feats[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((feats - feats[nxt]) ** 2).sum(axis=1))
    return feats[chosen].copy()


def kmeans_assign(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _kmeans(feats: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    centers = _farthest_point_init(feats, k, rng)
    assign = kmeans_assign(feats, centers)
    for _ in range(KMEANS_MAX_ITERS):
        for c in range(k):
            members = assign == c
            if members.any():
                centers[c] = feats[members].mean(axis=0)
            else:
                # reseed an empty cluster to the feature farthest from its center
                d2 = ((feats - centers[assign]) ** 2).sum(axis=1)
                centers[c] = feats[int(np.argmax(d2))]
        new_assign = kmeans_assign(feats, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def build_bank(obs: np.ndarray, fut: np.ndarray, k_max: int, seed: int) -> TrajectoryBank:
    """Cluster the motion features of the (N, T_obs, 2) observed windows `obs`
    and keep one medoid pair per cluster: row m of `obs` with row m of the
    (N, T_fut, 2) futures `fut`. The window lengths are those of the arrays."""
    obs, fut = np.asarray(obs, dtype=np.float64), np.asarray(fut, dtype=np.float64)
    if not len(obs):
        raise ValueError("cannot build a bank from an empty dataset")
    if len(obs) != len(fut):
        raise ValueError(f"obs has {len(obs)} tracks but fut has {len(fut)}")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    feats = motion_feature(obs)
    n = feats.shape[0]
    k = min(k_max, n)
    rng = Rng(seed).child("bank-kmeans")
    if k == n:
        assign = np.arange(n)
    else:
        assign = _kmeans(feats, k, rng)
    medoids = []
    for c in range(k):
        members = np.flatnonzero(assign == c)
        if members.size == 0:
            continue
        mean = feats[members].mean(axis=0)
        dist = np.linalg.norm(feats[members] - mean, axis=1)
        medoids.append(int(members[int(np.argmin(dist))]))  # argmin takes the lowest index on ties
    return TrajectoryBank(obs=obs[medoids], fut=fut[medoids])


def full_broadcast(samples) -> list:
    """The vessels that broadcast every observed step, the only ones a bank is
    built from: the coordinate stored at a masked step is not a position, so
    it never keys an entry."""
    return [s for s in samples if s.ais_mask.all()]


def bank_from_samples(samples, k_max: int, seed: int) -> TrajectoryBank:
    """Bank of the `full_broadcast` vessels of `samples`, each of which must
    have the first one's observed and future lengths, so that their windows
    stack into the arrays `build_bank` takes."""
    if not samples:
        raise ValueError("cannot build a bank from an empty dataset")
    full = full_broadcast(samples)
    if not full:
        raise FieldError("ais_mask", f"has a masked step in each of the {len(samples)} vessels: "
                         "a bank needs one that broadcast every observed step")
    for s in full:
        for name in ("obs_ais", "fut_ais"):
            steps, want = len(getattr(s, name)), len(getattr(full[0], name))
            if steps != want:
                raise FieldError(
                    name, f"has {steps} steps but the bank's first track has {want} (vessel_id {s.vessel_id!r})"
                )
    return build_bank(np.stack([s.obs_ais for s in full]), np.stack([s.fut_ais for s in full]), k_max, seed)


def search(bank: TrajectoryBank, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best entry by cosine similarity for each of the (V, T_obs, 2) `keys`:
    (V,) entry indices and (V,) similarities. Lowest index wins ties.

    One stacked matmul forms the (V, K) similarity matrix; each row equals
    its own one-key search bit for bit. A non-finite key would make every
    similarity of its row NaN and silently pick entry 0, so it raises naming
    the row; `load_bank` rejects non-finite entries.
    """
    if not len(bank):
        raise ValueError("search on an empty bank")
    bad = ~np.isfinite(keys).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"search key row {int(np.argmax(bad))} is not finite")
    fv = motion_feature(keys)  # (V, 2 * T_obs)
    dots = np.matmul(bank.feat, fv[..., None])[..., 0]  # (V, K)
    sims = dots / (_norm(fv)[:, None] * np.linalg.norm(bank.feat, axis=1) + COSINE_EPS)
    return sims.argmax(axis=1), sims.max(axis=1)


# ---------------------------------------------------------------------------
# refinement

@dataclass
class RefinementParams:
    offset_mlp: Mlp  # flat(prior) ++ flat(decoder features) -> hidden -> flat offset
    gate: Linear  # pooled encoding -> 1 (squashed to [0, 1])


def init_refinement(rng: Rng, cfg) -> RefinementParams:
    t, d = cfg.t_fut, cfg.d_model
    return RefinementParams(
        offset_mlp=mlp(rng, 2 * t + t * d, cfg.offset_hidden, 2 * t),
        gate=linear(rng, d, 1),
    )


def refine_and_fuse(
    p: RefinementParams,
    base: Tensor,
    prior: np.ndarray,
    features: Tensor,
    f_enc: Tensor,
    offset_scale: float,
    lit: np.ndarray,
) -> Tensor:
    """Blend each lit vessel's retrieved future (plus a learned, scaled offset) with its base.

    base is (V, K, T_fut, 2) and features (V, K, T_fut, d), one row per
    (vessel, mode). Each vessel's prior, row v of the (V, T_fut, 2) `prior`,
    is shared by its K modes, as is its gate, computed from row v of the
    (V, 1, d) `f_enc`; weight beta goes to the refined prior and 1 - beta to
    the base. The gate is multiplied by the vessel's entry of the (V,) 0/1
    mask `lit`, so a vessel with entry 0 (one with nothing retrieved; its
    prior only needs to be finite) keeps its base bit for bit and gives the
    parameters exactly zero gradient. Each vessel's rows equal its one-vessel
    call bit for bit.
    """
    v, k_modes, t_fut = base.shape[:3]
    prior = np.asarray(prior, dtype=np.float64)
    flat_prior = tensor(np.broadcast_to(prior.reshape(v, 1, 2 * t_fut), (v, k_modes, 2 * t_fut)))
    flat_feat = reshape(features, (v, k_modes, -1))
    offset = reshape(p.offset_mlp(concat([flat_prior, flat_feat], axis=2)), (v, k_modes, t_fut, 2))
    refined = add(tensor(prior[:, None]), mul(offset, offset_scale))
    lit = np.asarray(lit, dtype=np.float64).reshape(v, 1, 1, 1)
    beta = mul(reshape(sigmoid(p.gate(f_enc)), (v, 1, 1, 1)), lit)
    return add(mul(beta, refined), mul(sub(1.0, beta), base))


# ---------------------------------------------------------------------------
# persistence: a checkpoint file of two tensors

BANK_TENSORS = ("bank.obs", "bank.fut")


def save_bank(path: str | Path, bank: TrajectoryBank) -> None:
    save_checkpoint(path, {"bank.obs": bank.obs, "bank.fut": bank.fut})


def load_bank(path: str | Path) -> TrajectoryBank:
    """Read a bank that `save_bank` wrote: a checkpoint of exactly the tensors
    `bank.obs` (K, T_obs, 2) and `bank.fut` (K, T_fut, 2), with one K >= 1,
    every T >= 1 and every value finite. Every defect raises CheckpointError
    naming the path."""
    try:
        tensors = load_checkpoint(path)
    except CheckpointError:
        if Path(path).read_bytes()[:1] != b"{":
            raise
        raise CheckpointError(f"bank {path} is a JSON bank, a format no longer read; "
                              "rebuild it with `vesselcast bank build`") from None
    for problem, names in (("is missing", set(BANK_TENSORS) - set(tensors)),
                           ("has unexpected", set(tensors) - set(BANK_TENSORS))):
        if names:
            raise CheckpointError(f"bank {path} {problem} tensors {sorted(names)}")
    for name in BANK_TENSORS:
        arr = tensors[name]
        if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] != 2:
            raise CheckpointError(f"bank {path}: tensor '{name}' has shape {arr.shape}, not (K, T, 2) with T >= 1")
        bad = ~np.isfinite(arr).all(axis=(1, 2))
        if bad.any():
            raise CheckpointError(f"bank {path}: tensor '{name}' entry {int(np.argmax(bad))} is not finite")
    obs, fut = (tensors[name] for name in BANK_TENSORS)
    if len(obs) != len(fut):
        raise CheckpointError(f"bank {path}: 'bank.obs' has {len(obs)} entries but 'bank.fut' has {len(fut)}")
    if not len(obs):
        raise CheckpointError(f"bank {path} has no entries, but a bank needs at least one")
    return TrajectoryBank(obs=obs, fut=fut)
