"""Variational multi-mode trajectory decoding.

Each of the K modes owns a learned embedding. Mean and log-variance heads
condition on the pooled encoding concatenated with that embedding; the
latent is reparameterized (z = mu + eps * exp(0.5 * logvar)) so gradients
flow to the heads but not the noise. A single MLP expands the conditioned
input to the whole future at once; per-step linear heads emit both modality
trajectories. No recurrence anywhere, and no loop over modes: the K modes
are the rows of one batch, so every head runs once per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, add, clamp, concat, exp, mul, narrow, reshape, tensor
from .engine.rng import Rng
from .params import Linear, Mlp, linear, mlp, uniform_init

LOGVAR_RANGE = 10.0  # clamp before exponentiation


@dataclass
class DecoderParams:
    mode_embed: Tensor  # (K, d)
    mu_head: Linear  # 2d -> J
    logvar_head: Linear  # 2d -> J
    expand: Mlp  # 2d + J -> 4d -> T_fut * d
    ais_head: Linear  # d -> 2
    cctv_head: Linear  # d -> 2


@dataclass
class ModeOutput:
    """Tensors for all K decoded modes, stacked along a leading K axis
    (graph-connected for the loss)."""

    ais: Tensor  # (K, T_fut, 2)
    cctv: Tensor  # (K, T_fut, 2)
    features: Tensor  # (K, T_fut, d) pre-head decoder features
    z: Tensor  # (K, J)
    mu: Tensor  # (K, J)
    logvar: Tensor  # (K, J)


@dataclass
class PredictionSet:
    """Plain-array view of K candidate futures per modality."""

    ais: np.ndarray  # (K, T_fut, 2)
    cctv: np.ndarray  # (K, T_fut, 2)
    latents: np.ndarray  # (K, J)
    mu: np.ndarray  # (K, J)
    logvar: np.ndarray  # (K, J)
    prior_index: int | None = None  # retrieved bank entry; None when refinement was skipped
    prior_similarity: float | None = None


def init_decoder(rng: Rng, cfg) -> DecoderParams:
    d, j = cfg.d_model, cfg.latent_dim
    return DecoderParams(
        mode_embed=uniform_init(rng, (cfg.modes, d), d),
        mu_head=linear(rng, 2 * d, j),
        logvar_head=linear(rng, 2 * d, j),
        expand=mlp(rng, 2 * d + j, 4 * d, cfg.t_fut * d),
        ais_head=linear(rng, d, 2),
        cctv_head=linear(rng, d, 2),
    )


def predict_modes(
    p: DecoderParams,
    f_enc: Tensor,
    k_modes: int,
    t_fut: int,
    rng: Rng | None = None,
    eps: np.ndarray | None = None,
) -> ModeOutput:
    """Decode modes k = 0..K-1 in one pass; mode k consumes draws k*J..(k+1)*J-1 of rng.

    eps, when given, is a (K, J) array overriding the rng stream.
    """
    if k_modes > p.mode_embed.shape[0]:
        raise IndexError(f"{k_modes} modes requested but K={p.mode_embed.shape[0]}")
    d = f_enc.shape[1]
    e = narrow(p.mode_embed, 0, 0, k_modes)
    f_rows = add(tensor(np.zeros((k_modes, d))), f_enc)  # (K, d): f_enc on every row
    h = concat([f_rows, e], axis=1)
    mu = p.mu_head(h)
    logvar = clamp(p.logvar_head(h), -LOGVAR_RANGE, LOGVAR_RANGE)
    j = mu.shape[1]
    if eps is None:
        eps = np.array(rng.normals(k_modes * j))
    noise = tensor(np.asarray(eps, dtype=np.float64).reshape(k_modes, j))
    z = mu + mul(exp(mul(logvar, 0.5)), noise)
    flat = p.expand(concat([f_rows, z, e], axis=1))  # (K, T_fut * d)
    rows = reshape(flat, (k_modes * t_fut, d))
    return ModeOutput(
        ais=reshape(p.ais_head(rows), (k_modes, t_fut, 2)),
        cctv=reshape(p.cctv_head(rows), (k_modes, t_fut, 2)),
        features=reshape(flat, (k_modes, t_fut, d)),
        z=z,
        mu=mu,
        logvar=logvar,
    )


def to_prediction_set(modes: ModeOutput) -> PredictionSet:
    return PredictionSet(
        ais=modes.ais.data,
        cctv=modes.cctv.data,
        latents=modes.z.data,
        mu=modes.mu.data,
        logvar=modes.logvar.data,
    )
