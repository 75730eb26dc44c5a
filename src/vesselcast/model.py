"""End-to-end predictor: scene encoding, cross-modal fusion, variational
decoding, and prototype-bank refinement of the positional head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import RefinementParams, TrajectoryBank, init_refinement, refine_and_fuse, search
from .config import TrainConfig, architecture_hash
from .data.types import VesselSample
from .decoder import DecoderParams, ModeOutput, PredictionSet, init_decoder, predict_modes
from .engine import Tensor
from .engine.rng import Rng
from .fusion import FusionParams, encode_and_fuse, init_fusion, masked_track
from .losses import sample_losses, total_loss
from .params import collect_params
from .scene_encoder import SceneEncoderParams, encode_scene_sequence, init_scene_encoder


@dataclass
class ModelParams:
    scene: SceneEncoderParams
    fusion: FusionParams
    decoder: DecoderParams
    refine: RefinementParams


@dataclass
class SampleForward:
    """Graph-connected outputs for one vessel sample."""

    modes: ModeOutput  # all K modes stacked; positional head already refined when a bank applies
    prior_index: int | None  # retrieved bank entry, None when refinement skipped
    prior_similarity: float | None


def _check_steps(field: str, got: int, key: str, want: int) -> None:
    if got != want:
        raise ValueError(f"{field} has {got} steps but cfg.{key} is {want}")


def _check_finite(field: str, track: np.ndarray, counted: np.ndarray) -> None:
    """Fail on the first step of `track` that `counted` selects and that is not finite."""
    bad = np.flatnonzero(counted & ~np.isfinite(track).all(axis=1))
    if bad.size:
        raise ValueError(f"{field} is not finite at step {bad[0]}")


class Model:
    def __init__(self, cfg: TrainConfig, seed: int | None = None):
        cfg.validate()
        self.cfg = cfg
        rng = Rng(cfg.seed if seed is None else seed).child("init")
        self.params = ModelParams(
            scene=init_scene_encoder(rng, cfg),
            fusion=init_fusion(rng, cfg),
            decoder=init_decoder(rng, cfg),
            refine=init_refinement(rng, cfg),
        )
        self.named = collect_params(self.params)

    # ------------------------------------------------------------------
    def encode_scenes(self, sample: VesselSample) -> Tensor | None:
        """(t_obs, d) scene features of `sample`, or None when `cfg.use_scene` is off.

        They depend only on the parameters and `sample.scenes`, not on the
        broadcast mask, so a vessel's dark copies can share them. Checks the
        frames first: each raster must be (3, cfg.raster_size, cfg.raster_size).
        """
        if not self.cfg.use_scene:
            return None
        scenes = sample.scenes
        _check_steps("scenes", len(scenes), "t_obs", self.cfg.t_obs)
        want = (3, self.cfg.raster_size, self.cfg.raster_size)
        for t, frame in enumerate(scenes):
            if frame.raster.shape != want:
                raise ValueError(f"scenes.raster at step {t} has shape {frame.raster.shape}, not {want}")
            if not np.isfinite(frame.raster).all():
                raise ValueError(f"scenes.raster is not finite at step {t}")
        return encode_scene_sequence(self.params.scene, scenes, self.cfg)

    def forward_sample(
        self,
        sample: VesselSample,
        rng: Rng | None = None,
        eps: np.ndarray | None = None,
        bank: TrajectoryBank | None = None,
        scene_feats: Tensor | None = None,
    ) -> SampleForward:
        """Run the full pipeline on one sample.

        Latent noise comes from `rng` (K * J draws in mode order) unless a
        (K, J) `eps` array pins it. `scene_feats` from `encode_scenes(sample)`
        skips the scene encoder; without them it runs here. Bank refinement
        applies to the positional head of all K modes at once, and is skipped
        for dark vessels: without any broadcast track there is no retrieval
        key. Like the embedding, the retrieval key reads masked steps as zero.
        Observation windows and the bank's horizons must match the config;
        futures are not checked here, since evaluation passes futures longer
        than the model's horizon. Observed coordinates must be finite, except
        under masked AIS steps, which are never read.
        """
        cfg = self.cfg
        for field in ("obs_ais", "ais_mask", "obs_cctv"):  # `encode_scenes` checks the scenes
            _check_steps(field, len(getattr(sample, field)), "t_obs", cfg.t_obs)
        ais_mask = np.asarray(sample.ais_mask, dtype=bool)
        _check_finite("obs_ais", sample.obs_ais, ais_mask)
        _check_finite("obs_cctv", sample.obs_cctv, np.ones_like(ais_mask))
        if bank is not None:
            _check_steps("bank.t_obs", bank.t_obs, "t_obs", cfg.t_obs)
            _check_steps("bank.t_fut", bank.t_fut, "t_fut", cfg.t_fut)
        if scene_feats is None:
            scene_feats = self.encode_scenes(sample)
        _, f_enc = encode_and_fuse(
            self.params.fusion,
            sample.obs_ais,
            sample.ais_mask,
            sample.obs_cctv,
            scene_feats,
            cfg.heads,
            use_cctv=cfg.use_cctv,
        )
        modes = predict_modes(self.params.decoder, f_enc, cfg.modes, cfg.t_fut, rng=rng, eps=eps)

        prior_index = None
        prior_sim = None
        if bank is not None and sample.ais_mask.any():
            prior_index, prior_fut, prior_sim = search(bank, masked_track(sample.obs_ais, sample.ais_mask))
            modes.ais = refine_and_fuse(
                self.params.refine,
                modes.ais,
                prior_fut,
                modes.features,
                f_enc,
                cfg.offset_scale,
            )
        return SampleForward(modes=modes, prior_index=prior_index, prior_similarity=prior_sim)

    def loss_batch(
        self,
        samples: list[VesselSample],
        rng: Rng | None = None,
        eps: np.ndarray | None = None,
        bank: TrajectoryBank | None = None,
    ) -> tuple[Tensor, Tensor, Tensor, list[int]]:
        """Batch-mean (total, rec, kl) tensors plus per-sample winning modes.

        eps, when given, has shape (batch, K, J).
        """
        recs = []
        kls = []
        winners = []
        for i, sample in enumerate(samples):
            _check_steps("fut_ais", len(sample.fut_ais), "t_fut", self.cfg.t_fut)
            _check_steps("fut_cctv", len(sample.fut_cctv), "t_fut", self.cfg.t_fut)
            eps_i = None if eps is None else eps[i]
            fwd = self.forward_sample(sample, rng=rng, eps=eps_i, bank=bank)
            rec, kl, winner = sample_losses(fwd.modes, sample.fut_ais, sample.fut_cctv)
            recs.append(rec)
            kls.append(kl)
            winners.append(winner)
        inv = 1.0 / len(samples)
        rec = sum(recs[1:], recs[0]) * inv
        kl = sum(kls[1:], kls[0]) * inv
        return total_loss(rec, kl, self.cfg.kl_weight), rec, kl, winners

    def predict(
        self,
        sample: VesselSample,
        rng: Rng | None = None,
        eps: np.ndarray | None = None,
        bank: TrajectoryBank | None = None,
        scene_feats: Tensor | None = None,
    ) -> PredictionSet:
        """Inference-only candidate set (refined positional head, raw camera head)
        with the bank entry it retrieved, if any. Called outside any Tape, it
        records nothing."""
        fwd = self.forward_sample(sample, rng=rng, eps=eps, bank=bank, scene_feats=scene_feats)
        return PredictionSet(
            ais=fwd.modes.ais.data,
            cctv=fwd.modes.cctv.data,
            latents=fwd.modes.z.data,
            prior_index=fwd.prior_index,
            prior_similarity=fwd.prior_similarity,
        )

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named.items()}

    def architecture_hash(self) -> int:
        return architecture_hash(self.cfg)
