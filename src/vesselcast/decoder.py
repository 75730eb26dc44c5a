"""Deterministic multi-mode trajectory decoding.

Each of the K modes owns a learned embedding. A mode's code is the pooled
encoding concatenated with that embedding; a single MLP expands the code to
the whole future at once, and per-step linear heads emit both modality
trajectories. The winner-takes-all loss separates the modes. No recurrence
anywhere, and no loop over modes: the K modes are the rows of one batch, and
the vessels of a pool or a training batch a leading axis over them, so every
head runs once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, add, concat, reshape, tensor
from .engine.rng import Rng
from .params import Linear, Mlp, linear, mlp, uniform_init


@dataclass
class DecoderParams:
    mode_embed: Tensor  # (K, d)
    expand: Mlp  # 2d -> 4d -> T_fut * d
    ais_head: Linear  # d -> 2
    cctv_head: Linear  # d -> 2


@dataclass
class ModeOutput:
    """Tensors for all K decoded modes of V vessels, stacked along leading
    (V, K) axes (graph-connected for the loss)."""

    ais: Tensor  # (V, K, T_fut, 2)
    cctv: Tensor  # (V, K, T_fut, 2)
    features: Tensor  # (V, K, T_fut, d) pre-head decoder features


@dataclass
class PredictionSet:
    """Plain-array view of K candidate futures per modality."""

    ais: np.ndarray  # (K, T_fut, 2)
    cctv: np.ndarray  # (K, T_fut, 2)
    prior_index: int | None = None  # retrieved bank entry; None when refinement was skipped
    prior_similarity: float | None = None


def init_decoder(rng: Rng, cfg) -> DecoderParams:
    d = cfg.d_model
    return DecoderParams(
        mode_embed=uniform_init(rng, (cfg.modes, d), d),
        expand=mlp(rng, 2 * d, 4 * d, cfg.t_fut * d),
        ais_head=linear(rng, d, 2),
        cctv_head=linear(rng, d, 2),
    )


def mode_codes(p: DecoderParams, f_enc: Tensor) -> Tensor:
    """The (V, K, 2d) codes that `expand` reads: row (v, k) is vessel v's
    pooled encoding, from the (V, 1, d) `f_enc`, then mode k's embedding."""
    k_modes, d = p.mode_embed.shape
    rows = tensor(np.zeros((f_enc.shape[0], k_modes, d)))
    f_rows = add(rows, f_enc)  # (V, K, d): each vessel's f_enc on each of its mode rows
    embed = add(rows, p.mode_embed)  # (V, K, d): each mode's embedding on each vessel
    return concat([f_rows, embed], axis=2)


def predict_modes(p: DecoderParams, f_enc: Tensor) -> ModeOutput:
    """Decode the K modes of V vessels in one pass.

    `f_enc` is (V, 1, d), one pooled encoding per vessel. Every field of the
    result carries the leading vessel axis. The vessel axis stays a leading
    matmul axis, never folded into the rows, so each vessel's outputs equal
    its one-vessel call bit for bit.
    """
    k_modes, d = p.mode_embed.shape
    features = reshape(p.expand(mode_codes(p, f_enc)), (f_enc.shape[0], k_modes, -1, d))  # (V, K, T_fut, d)
    return ModeOutput(ais=p.ais_head(features), cctv=p.cctv_head(features), features=features)
