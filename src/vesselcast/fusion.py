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
    concat,
    layer_norm,
    matmul,
    mul,
    narrow,
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
    wk: Linear
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
    return AttentionParams(*(linear(rng, d, d) for _ in range(4)))


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
    if d % cfg.heads != 0:
        raise ValueError(f"d_model={d} not divisible by heads={cfg.heads}")
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


def attention_weights(query: Tensor, keys: Tensor, p: AttentionParams, heads: int) -> list[Tensor]:
    """Per-head softmax weights, each (T_query, T_keys)."""
    dk = query.shape[1] // heads
    q = p.wq(query)
    k = p.wk(keys)
    scale = 1.0 / math.sqrt(dk)
    out = []
    for h in range(heads):
        qh = narrow(q, 1, h * dk, dk)
        kh = narrow(k, 1, h * dk, dk)
        out.append(softmax(mul(matmul(qh, transpose(kh)), scale), axis=-1))
    return out


def attention(query: Tensor, keys: Tensor, values: Tensor, p: AttentionParams, heads: int) -> Tensor:
    """Scaled dot-product attention with projections, multi-head."""
    if keys.shape[0] != values.shape[0]:
        raise DimensionError(f"keys ({keys.shape}) and values ({values.shape}) disagree in length")
    weights = attention_weights(query, keys, p, heads)
    dk = query.shape[1] // heads
    v = p.wv(values)
    outs = [matmul(w, narrow(v, 1, h * dk, dk)) for h, w in enumerate(weights)]
    return p.wo(concat(outs, axis=1))


def cross_modal_block(z1: Tensor, z2: Tensor, p: BlockParams, heads: int) -> Tensor:
    """SA -> CA -> FFN with residual LayerNorms; output length follows z1."""
    if z1.shape[1] != z2.shape[1]:
        raise DimensionError(f"feature dims differ: {z1.shape} vs {z2.shape}")
    zbar = layer_norm(add(z1, attention(z1, z1, z1, p.sa, heads)), p.ln1_gain, p.ln1_bias)
    ztil = layer_norm(add(zbar, attention(zbar, z2, z2, p.ca, heads)), p.ln2_gain, p.ln2_bias)
    return layer_norm(add(ztil, p.ffn(ztil)), p.ln3_gain, p.ln3_bias)


def masked_track(obs_ais: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """obs_ais with every masked step zeroed: selected, not multiplied, since NaN * 0 is NaN."""
    return np.where(np.asarray(mask, dtype=bool)[:, None], obs_ais, 0.0)


def embed_ais(p: FusionParams, obs_ais: np.ndarray, mask: np.ndarray) -> Tensor:
    """Embed the track with availability flags; masked steps become the token.

    Unavailable rows are zeroed before embedding and replaced by the learned
    mask token, so stored coordinates at masked steps, NaN included, cannot
    influence the output. Positional encoding is added afterwards either way.
    """
    t = obs_ais.shape[0]
    m = mask.astype(np.float64)[:, None]
    inp = np.concatenate([masked_track(obs_ais, mask), m], axis=1)  # (T, 3)
    embedded = p.ais_embed(tensor(inp))
    mask_col = tensor(m)
    rows = add(mul(mask_col, embedded), mul(tensor(1.0 - m), p.mask_token))
    return add(rows, tensor(positional_encoding(t, embedded.shape[1])))


def embed_cctv(p: FusionParams, obs_cctv: np.ndarray) -> Tensor:
    t = obs_cctv.shape[0]
    embedded = p.cctv_embed(tensor(np.asarray(obs_cctv)))
    return add(embedded, tensor(positional_encoding(t, embedded.shape[1])))


def encode_and_fuse(
    p: FusionParams,
    obs_ais: np.ndarray,
    ais_mask: np.ndarray,
    obs_cctv: np.ndarray,
    scene_feats: Tensor | None,
    heads: int,
    use_cctv: bool = True,
) -> tuple[Tensor, Tensor]:
    """Cascaded fusion -> (per-step features (T, d), pooled encoding (1, d)).

    With the camera stream ablated the first block self-fuses the track
    stream; with no scene features the second block is skipped.
    """
    f_ais = embed_ais(p, obs_ais, ais_mask)
    memory = embed_cctv(p, obs_cctv) if use_cctv else f_ais
    fused = cross_modal_block(f_ais, memory, p.block1, heads)
    if scene_feats is not None:
        fused = cross_modal_block(fused, scene_feats, p.block2, heads)
    pooled = tmean(fused, axis=0, keepdims=True)
    return fused, pooled
