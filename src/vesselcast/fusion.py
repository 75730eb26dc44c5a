"""Cross-modal interaction blocks and the cascaded fusion of the three streams.

Each block is asymmetric: the primary stream self-attends, then queries the
memory stream through cross-attention, then passes a feed-forward net, with
a residual LayerNorm around each stage. Output length always follows the
primary stream. The cascade fuses the two trajectory streams first and
injects the scene representation second.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    Tensor,
    add,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    tensor,
    tmean,
    transpose,
)
from .engine.rng import Rng
from .engine.tensor import DimensionError
from .params import Linear, Mlp, linear, mlp, uniform_init


@dataclass
class AttentionParams:
    wq: Linear
    wk: Tensor  # (d, d); a bias would add one q.b to a whole score row, which softmax cancels
    wv: Linear
    wo: Linear


@dataclass
class BlockParams:
    sa: AttentionParams
    ca: AttentionParams
    ffn: Mlp  # d -> 4d -> d
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ln3_gain: Tensor
    ln3_bias: Tensor


@dataclass
class FusionParams:
    ais_embed: Linear  # (x, y, available) -> d
    cctv_embed: Linear  # (x, y) -> d
    mask_token: Tensor  # (1, d) learned stand-in for missing broadcasts
    block1: BlockParams  # trajectory fusion
    block2: BlockParams  # scene injection


def _attention_params(rng: Rng, d: int) -> AttentionParams:
    return AttentionParams(linear(rng, d, d), uniform_init(rng, (d, d), d), linear(rng, d, d), linear(rng, d, d))


def _ln_pair(d: int) -> tuple[Tensor, Tensor]:
    return (
        Tensor(np.ones(d), requires_grad=True),
        Tensor(np.zeros(d), requires_grad=True),
    )


def _block(rng: Rng, d: int) -> BlockParams:
    g1, b1 = _ln_pair(d)
    g2, b2 = _ln_pair(d)
    g3, b3 = _ln_pair(d)
    return BlockParams(
        sa=_attention_params(rng, d),
        ca=_attention_params(rng, d),
        ffn=mlp(rng, d, 4 * d, d),
        ln1_gain=g1,
        ln1_bias=b1,
        ln2_gain=g2,
        ln2_bias=b2,
        ln3_gain=g3,
        ln3_bias=b3,
    )


def init_fusion(rng: Rng, cfg) -> FusionParams:
    d = cfg.d_model
    return FusionParams(
        ais_embed=linear(rng, 3, d),
        cctv_embed=linear(rng, 2, d),
        mask_token=uniform_init(rng, (1, d), d),
        block1=_block(rng, d),
        block2=_block(rng, d),
    )


@functools.lru_cache(maxsize=32)
def positional_encoding(t: int, d: int) -> np.ndarray:
    """Sinusoidal table, shape (t, d). d must be even."""
    pe = np.zeros((t, d))
    pos = np.arange(t)[:, None]
    div = np.exp(np.arange(0, d, 2) * (-math.log(10000.0) / d))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div)
    return pe


def _heads(x: Tensor, heads: int, axes: tuple[int, int, int]) -> Tensor:
    """x (..., T, d) cut into `heads` column blocks, as (..., T, heads, d_k) with
    its last three axes permuted by `axes`."""
    *lead, t, d = x.shape
    n = len(lead)
    return transpose(reshape(x, (*lead, t, heads, d // heads)), (*range(n), *(n + a for a in axes)))


def attention_weights(query: Tensor, keys: Tensor, p: AttentionParams, heads: int) -> Tensor:
    """Softmax weights of every head, (..., heads, T_query, T_keys)."""
    q = _heads(p.wq(query), heads, (1, 0, 2))  # (..., heads, T_query, d_k)
    k = _heads(matmul(keys, p.wk), heads, (1, 2, 0))  # (..., heads, d_k, T_keys)
    return softmax(mul(matmul(q, k), 1.0 / math.sqrt(query.shape[-1] // heads)), axis=-1)


def attention(query: Tensor, keys: Tensor, values: Tensor, p: AttentionParams, heads: int) -> Tensor:
    """Scaled dot-product attention with projections, multi-head; leading axes are a batch."""
    if keys.shape[-2] != values.shape[-2]:
        raise DimensionError(f"keys ({keys.shape}) and values ({values.shape}) disagree in length")
    v = _heads(p.wv(values), heads, (1, 0, 2))  # (..., heads, T_keys, d_k)
    out = matmul(attention_weights(query, keys, p, heads), v)  # (..., heads, T_query, d_k)
    n = len(out.shape) - 3
    return p.wo(reshape(transpose(out, (*range(n), n + 1, n, n + 2)), query.shape))


def cross_modal_block(z1: Tensor, z2: Tensor, p: BlockParams, heads: int) -> Tensor:
    """SA -> CA -> FFN with residual LayerNorms; output length follows z1."""
    if z1.shape[-1] != z2.shape[-1]:
        raise DimensionError(f"feature dims differ: {z1.shape} vs {z2.shape}")
    zbar = layer_norm(add(z1, attention(z1, z1, z1, p.sa, heads)), p.ln1_gain, p.ln1_bias)
    ztil = layer_norm(add(zbar, attention(zbar, z2, z2, p.ca, heads)), p.ln2_gain, p.ln2_bias)
    return layer_norm(add(ztil, p.ffn(ztil)), p.ln3_gain, p.ln3_bias)


def masked_track(obs_ais: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """obs_ais with every masked step zeroed: selected, not multiplied, since NaN * 0 is NaN."""
    return np.where(np.asarray(mask, dtype=bool)[..., None], obs_ais, 0.0)


def embed_ais(p: FusionParams, obs_ais: np.ndarray, mask: np.ndarray) -> Tensor:
    """Embed the track (..., T, 2) with availability flags (..., T); masked
    steps become the token.

    Unavailable rows are zeroed before embedding and replaced by the learned
    mask token, so stored coordinates at masked steps, NaN included, cannot
    influence the output. Positional encoding is added afterwards either way.
    """
    m = mask.astype(np.float64)[..., None]
    inp = np.concatenate([masked_track(obs_ais, mask), m], axis=-1)  # (..., T, 3)
    embedded = p.ais_embed(tensor(inp))
    rows = add(mul(tensor(m), embedded), mul(tensor(1.0 - m), p.mask_token))
    return add(rows, tensor(positional_encoding(*embedded.shape[-2:])))


def embed_cctv(p: FusionParams, obs_cctv: np.ndarray) -> Tensor:
    embedded = p.cctv_embed(tensor(np.asarray(obs_cctv)))
    return add(embedded, tensor(positional_encoding(*embedded.shape[-2:])))


def encode_and_fuse(
    p: FusionParams,
    obs_ais: np.ndarray,
    ais_mask: np.ndarray,
    obs_cctv: np.ndarray,
    scene_feats: Tensor | None,
    heads: int,
    use_cctv: bool = True,
) -> tuple[Tensor, Tensor]:
    """Cascaded fusion -> (per-step features (..., T, d), pooled encoding (..., 1, d)).

    The tracks are (..., T, 2), the mask (..., T) and the scene features
    (..., T, d), with the same leading axes, for example one per vessel of a
    batch: every stage runs once over them, and each vessel's rows equal its
    own call bit for bit. With the camera stream ablated the first block
    self-fuses the track stream; with no scene features the second block is
    skipped.
    """
    f_ais = embed_ais(p, obs_ais, ais_mask)
    memory = embed_cctv(p, obs_cctv) if use_cctv else f_ais
    fused = cross_modal_block(f_ais, memory, p.block1, heads)
    if scene_feats is not None:
        fused = cross_modal_block(fused, scene_feats, p.block2, heads)
    pooled = tmean(fused, axis=-2, keepdims=True)
    return fused, pooled
