"""End-to-end predictor: scene encoding, cross-modal fusion, multi-mode
decoding, and prototype-bank refinement of the positional head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import RefinementParams, TrajectoryBank, init_refinement, refine_and_fuse, search
from .config import TrainConfig, architecture_hash
from .data.types import FieldError, VesselSample
from .decoder import DecoderParams, ModeOutput, PredictionSet, init_decoder, predict_modes
from .engine import Tensor, concat, tensor, tmean
from .engine.rng import Rng
from .fusion import FusionParams, encode_and_fuse, init_fusion, masked_track
from .losses import sample_losses
from .params import collect_params
from .scene_encoder import SceneEncoderParams, encode_scene_sequence, init_scene_encoder


@dataclass
class ModelParams:
    scene: SceneEncoderParams
    fusion: FusionParams
    decoder: DecoderParams
    refine: RefinementParams


@dataclass
class SampleEncoding:
    """What `encode` computes for its rows, and all that `decode` reads of
    them: the pooled fused encodings, the broadcast masks they were computed
    under, and the bank retrieval keys under those masks (`masked_track`,
    masked steps at the origin). One row holds one (vessel, mask) pair, so
    its encoding and its key cannot disagree on the mask."""

    f_enc: Tensor  # (rows, 1, d)
    ais_mask: np.ndarray  # (rows, t_obs) bool
    keys: np.ndarray  # (rows, t_obs, 2)

    def take(self, rows: list[int]) -> SampleEncoding:
        """These rows, in the order given, as forward values only: `f_enc` is
        a copy with no link to this encoding's graph, so no gradient flows back."""
        return SampleEncoding(tensor(self.f_enc.data[rows]), self.ais_mask[rows], self.keys[rows])


@dataclass
class Forward:
    """Graph-connected outputs of the decode stage for a pool of V vessels.

    Row i of every `modes` field, and entry i of each array, belongs to row i
    of the encoding it was decoded from.
    """

    modes: ModeOutput  # (V, K, ...); positional head already refined where a bank applies
    prior_index: np.ndarray  # (V,) retrieved bank entry per row, -1 where refinement skipped
    prior_similarity: np.ndarray  # (V,), NaN where refinement skipped


def _check_steps(field: str, got: int, key: str, want: int) -> None:
    if got != want:
        raise FieldError(field, f"has {got} steps but cfg.{key} is {want}")


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
    def _check_sample(self, sample: VesselSample, futures: bool = False) -> None:
        """Reject a sample this model cannot read: a window other than
        `cfg.t_obs` steps, with `futures` a future other than `cfg.t_fut`
        steps, a record that breaks `VesselSample.validate`, or, when the
        scene path runs, a frame other than (3, cfg.raster_size,
        cfg.raster_size). The FieldError names the field and the vessel_id."""
        try:
            _check_steps("obs_ais", len(sample.obs_ais), "t_obs", self.cfg.t_obs)
            if futures:
                _check_steps("fut_ais", len(sample.fut_ais), "t_fut", self.cfg.t_fut)
            sample.validate()
            shape = sample.rasters.shape[1:]
            want = (3, self.cfg.raster_size, self.cfg.raster_size)
            if self.cfg.use_scene and shape != want:
                raise FieldError("scenes.raster", f"at step 0 has shape {shape}, not {want}")
        except FieldError as e:
            raise FieldError(e.field, f"{e.detail} (vessel_id {sample.vessel_id!r})") from e

    def check_bank(self, bank: TrajectoryBank | None) -> None:
        """Reject a bank built for another observation window or horizon, naming its field."""
        if bank is not None:
            _check_steps("bank.t_obs", bank.t_obs, "t_obs", self.cfg.t_obs)
            _check_steps("bank.t_fut", bank.t_fut, "t_fut", self.cfg.t_fut)

    def check_training(self, samples: list[VesselSample], bank: TrajectoryBank | None = None) -> None:
        """Reject, before any encoding, the samples or bank `loss_batch` cannot
        train on; `train` runs it on the whole dataset before its first step."""
        self._check_samples(samples, "a training batch", futures=True)
        self.check_bank(bank)

    def _check_samples(self, samples: list[VesselSample], what: str, futures: bool = False) -> None:
        if not samples:
            raise ValueError(f"samples is empty: {what} needs at least one sample")
        for sample in samples:
            self._check_sample(sample, futures=futures)

    def encode(self, samples: list[VesselSample], dark: bool = False) -> SampleEncoding:
        """The deterministic stage of `forward_sample` for V >= 1 samples: check
        them, and that there is at least one, then encode their scenes, fuse
        them with both tracks in one `encode_and_fuse` call over the row axis,
        and build their retrieval keys over the same axis.

        Row v holds sample v under its stored `ais_mask`. With `dark`, rows
        V..2V-1 follow, row V + v holding sample v under the all-false mask,
        the one `apply_dark_vessels` gives it; the scene features depend only
        on the parameters and `rasters`/`boxes`, not on the mask, so both rows
        share one encoding of the vessel's scenes. The stem runs per sample;
        the pooling, the ConvLSTM and the MLPs run over the vessel axis,
        `CHUNK` samples per pass (see `encode_scene_sequence`), so outside a
        tape a call's transients do not grow with the pool.

        Each row depends only on the parameters, its sample's observations and
        its mask, and equals the one-sample call on that (sample, mask) bit
        for bit, so every draw on one (vessel, mask) can share it.
        """
        self._check_samples(samples, "an encoding")
        return self._encode(samples, dark)

    def _encode(self, samples: list[VesselSample], dark: bool = False) -> SampleEncoding:
        obs, masks, cctv = (np.stack([getattr(s, f) for s in samples]) for f in ("obs_ais", "ais_mask", "obs_cctv"))
        scenes = None
        if self.cfg.use_scene:
            scenes = encode_scene_sequence(
                self.params.scene, [s.rasters for s in samples], [s.boxes for s in samples], self.cfg
            )
        if dark:
            obs, cctv = np.concatenate([obs, obs]), np.concatenate([cctv, cctv])
            masks = np.concatenate([masks, np.zeros_like(masks)])
            scenes = None if scenes is None else concat([scenes, scenes])
        _, f_enc = encode_and_fuse(
            self.params.fusion, obs, masks, cctv, scenes, self.cfg.heads, use_cctv=self.cfg.use_cctv
        )
        return SampleEncoding(f_enc=f_enc, ais_mask=masks, keys=masked_track(obs, masks))

    def decode(self, encoding: SampleEncoding, bank: TrajectoryBank | None = None) -> Forward:
        """The decode stage for the rows of `encoding`, in one pass, with rows
        in the order given.

        Row i reads only row i of `encoding`. `predict_modes` decodes every
        (vessel, mode) row at once. When a bank is given and any row has a
        broadcast step, one `search` call retrieves an entry for every such
        lit row from its key, and `refine_and_fuse` refines every row at
        once, each lit row against its entry. A dark row's gate is masked to
        0, so it keeps the raw decoder output: without any broadcast step
        there is no key. The bank's horizons must match the config. Each
        row's outputs equal its one-row call bit for bit.
        """
        cfg = self.cfg
        self.check_bank(bank)
        modes = predict_modes(self.params.decoder, encoding.f_enc)
        lit = encoding.ais_mask.any(axis=1) & (bank is not None)
        index, similarity = np.full(len(lit), -1), np.full(len(lit), np.nan)
        if lit.any():
            index[lit], similarity[lit] = search(bank, encoding.keys[lit])
            prior = np.zeros((len(lit), cfg.t_fut, 2))  # a dark row's prior: finite, and weighted 0
            prior[lit] = bank.fut[index[lit]]
            modes.ais = refine_and_fuse(
                self.params.refine, modes.ais, prior, modes.features, encoding.f_enc, cfg.offset_scale, lit
            )
        return Forward(modes=modes, prior_index=index, prior_similarity=similarity)

    def forward_sample(self, sample: VesselSample, bank: TrajectoryBank | None = None) -> Forward:
        """Run the full pipeline on one sample: `encode(sample)`, which checks
        the sample, then the one-vessel case of `decode`, so every `modes`
        field has a vessel axis of 1. The sample must pass
        `VesselSample.validate`, and its observation window and the bank's
        horizons must match the config, or it fails before any encoding;
        futures are not compared with `cfg.t_fut` here, since evaluation
        passes futures longer than the model's horizon.
        """
        self.check_bank(bank)
        return self.decode(self.encode([sample]), bank=bank)

    def loss_batch(self, samples: list[VesselSample], bank: TrajectoryBank | None = None) -> tuple[Tensor, list[int]]:
        """The batch-mean winner-takes-all loss tensor, and each sample's winning mode.

        `check_training` checks each sample once. One `encode_scene_sequence`
        call (`CHUNK` samples per pass, so a scene kernel's gradient is
        summed per pass, then over the passes), one `encode_and_fuse` call,
        one `decode` pass and one `sample_losses` call then score the whole
        batch. Every op is recorded on the active tape, so the graph held
        grows with the batch; `train` calls this with one sample at a time
        and adds the gradients up itself.
        """
        self.check_training(samples, bank)
        fwd = self.decode(self._encode(samples), bank=bank)
        fut = [np.stack([getattr(s, name) for s in samples]) for name in ("fut_ais", "fut_cctv")]
        rec, winners = sample_losses(fwd.modes, *fut)
        return tmean(rec), winners.tolist()

    def predict(self, sample: VesselSample, rng=None, bank: TrajectoryBank | None = None) -> PredictionSet:
        """Inference-only candidate set (refined positional head, raw camera head)
        with the bank entry it retrieved, if any. Called outside any Tape, it
        records nothing. The decoder draws no noise, so `rng` is ignored; it is
        kept for callers that still pass one."""
        fwd = self.forward_sample(sample, bank=bank)
        found = fwd.prior_index[0] >= 0
        return PredictionSet(
            ais=fwd.modes.ais.data[0],
            cctv=fwd.modes.cctv.data[0],
            prior_index=int(fwd.prior_index[0]) if found else None,
            prior_similarity=float(fwd.prior_similarity[0]) if found else None,
        )

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named.items()}

    def architecture_hash(self) -> int:
        return architecture_hash(self.cfg)

