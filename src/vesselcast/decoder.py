"""Variational multi-mode trajectory decoding.

Each of the K modes owns a learned embedding. Mean and log-variance heads
condition on the pooled encoding concatenated with that embedding; the
latent is reparameterized (z = mu + eps * exp(0.5 * logvar)) so gradients
flow to the heads but not the noise. A single MLP expands the conditioned
input to the whole future at once; per-step linear heads emit both modality
trajectories. No recurrence anywhere, and no loop over modes: the K modes
are the rows of one batch, and the vessels of a pool or a training batch a
leading axis over them, so every head runs once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, add, clamp, concat, exp, mul, reshape, tensor
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
    """Tensors for all K decoded modes of V vessels, stacked along leading
    (V, K) axes (graph-connected for the loss)."""

    ais: Tensor  # (V, K, T_fut, 2)
    cctv: Tensor  # (V, K, T_fut, 2)
    features: Tensor  # (V, K, T_fut, d) pre-head decoder features
    z: Tensor  # (V, K, J)
    mu: Tensor  # (V, K, J)
    logvar: Tensor  # (V, K, J)


@dataclass
class PredictionSet:
    """Plain-array view of K candidate futures per modality."""

    ais: np.ndarray  # (K, T_fut, 2)
    cctv: np.ndarray  # (K, T_fut, 2)
    latents: np.ndarray  # (K, J)
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


def predict_modes(p: DecoderParams, f_enc: Tensor, eps: np.ndarray) -> ModeOutput:
    """Decode the K modes of V vessels in one pass.

    `f_enc` is (V, 1, d), one pooled encoding per vessel, and row (v, k) of
    the (V, K, J) `eps` is vessel v's mode-k latent noise. Every field of the
    result carries the leading vessel axis. The vessel axis stays a leading
    matmul axis, never folded into the rows, so each vessel's outputs equal
    its one-vessel call bit for bit.
    """
    v = f_enc.shape[0]
    k_modes, d = p.mode_embed.shape
    rows = tensor(np.zeros((v, k_modes, d)))
    f_rows = add(rows, f_enc)  # (V, K, d): each vessel's f_enc on each of its mode rows
    embed = add(rows, p.mode_embed)  # (V, K, d): each mode's embedding on each vessel
    h = concat([f_rows, embed], axis=2)
    mu = p.mu_head(h)
    logvar = clamp(p.logvar_head(h), -LOGVAR_RANGE, LOGVAR_RANGE)
    z = mu + mul(exp(mul(logvar, 0.5)), tensor(eps))
    expand_in = concat([f_rows, z, embed], axis=2)
    features = reshape(p.expand(expand_in), (v, k_modes, -1, d))  # (V, K, T_fut, d)
    return ModeOutput(
        ais=p.ais_head(features),
        cctv=p.cctv_head(features),
        features=features,
        z=z,
        mu=mu,
        logvar=logvar,
    )
