"""End-to-end predictor: scene encoding, cross-modal fusion, variational
decoding, and prototype-bank refinement of the positional head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import RefinementParams, TrajectoryBank, init_refinement, refine_and_fuse, search
from .config import TrainConfig, architecture_hash
from .data.types import FieldError, VesselSample
from .decoder import DecoderParams, ModeOutput, PredictionSet, init_decoder, predict_modes
from .engine import Tensor, concat, narrow, stack, tmean
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
class SampleEncoding:
    """What `forward_sample` computes before drawing any noise: the pooled
    fused encoding of one sample, and the broadcast mask it was computed under."""

    f_enc: Tensor  # (1, d)
    ais_mask: np.ndarray  # (t_obs,) bool


@dataclass
class Forward:
    """Graph-connected outputs of the per-draw stage for a pool of V vessels.

    Row i of every `modes` field, and entry i of each list, belongs to
    `samples[order[i]]`: the vessels refinement applies to come first, then
    the rest, each group in the order given, so refinement runs on one
    contiguous block of rows.
    """

    modes: ModeOutput  # (V, K, ...); positional head already refined where a bank applies
    order: list[int]
    prior_index: list[int | None]  # retrieved bank entry per row, None where refinement skipped
    prior_similarity: list[float | None]


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

    def _check_bank(self, bank: TrajectoryBank | None) -> None:
        if bank is not None:
            _check_steps("bank.t_obs", bank.t_obs, "t_obs", self.cfg.t_obs)
            _check_steps("bank.t_fut", bank.t_fut, "t_fut", self.cfg.t_fut)

    def check_training(self, samples: list[VesselSample], bank: TrajectoryBank | None = None) -> None:
        """Reject, before any encoding, the samples or bank `loss_batch` cannot
        train on; `train` runs it on the whole dataset before its first step."""
        if not samples:
            raise ValueError("samples is empty: a training batch needs at least one sample")
        for sample in samples:
            self._check_sample(sample, futures=True)
        self._check_bank(bank)

    def encode_scenes(self, samples: list[VesselSample]) -> list[Tensor | None]:
        """One (t_obs, d) tensor of scene features per sample, or None per
        sample when `cfg.use_scene` is off.

        Checks every sample before any encoding runs. The ConvLSTM steps all
        the samples as one batch; the stem, the pooling and the MLPs run per
        sample (see `encode_scene_sequence`). Each result equals the sample's
        one-sample call bit for bit. The features depend only on the
        parameters and `sample.rasters`/`sample.boxes`, not on the broadcast
        mask, so a vessel's dark copies can share them.
        """
        for sample in samples:
            self._check_sample(sample)
        if not (self.cfg.use_scene and samples):
            return [None] * len(samples)
        return encode_scene_sequence(
            self.params.scene, [s.rasters for s in samples], [s.boxes for s in samples], self.cfg
        )

    def encode(self, sample: VesselSample, scene_feats: Tensor | None = None) -> SampleEncoding:
        """The deterministic stage of `forward_sample`: check the sample, encode
        its scenes (unless `scene_feats`, its entry of `encode_scenes`, are given)
        and fuse them with both tracks.

        The result depends only on the parameters, the sample's observations
        and its `ais_mask`, so every draw on one (vessel, mask) can share it.
        """
        if scene_feats is None:
            scene_feats = self.encode_scenes([sample])[0]  # checks the sample first
        else:
            self._check_sample(sample)
        _, f_enc = encode_and_fuse(
            self.params.fusion,
            sample.obs_ais,
            sample.ais_mask,
            sample.obs_cctv,
            scene_feats,
            self.cfg.heads,
            use_cctv=self.cfg.use_cctv,
        )
        return SampleEncoding(f_enc=f_enc, ais_mask=sample.ais_mask.copy())

    def decode(
        self,
        samples: list[VesselSample],
        rngs: list[Rng],
        encodings: list[SampleEncoding],
        bank: TrajectoryBank | None = None,
    ) -> Forward:
        """The per-draw stage for a pool of vessels, in one pass.

        Sample i draws its K * J latent draws from `rngs[i]`, in mode order,
        and uses `encodings[i]`, which `encode` computed for it under the same
        `ais_mask`; the samples themselves are not checked again. Their
        encodings are stacked to (V, 1, d), `predict_modes` decodes every
        (vessel, mode) row at once, and `refine_and_fuse` refines the
        positional head of every vessel with a broadcast step at once, each
        against the bank entry that vessel retrieves. A dark vessel keeps the
        raw decoder output: without any broadcast track there is no retrieval
        key. Like the embedding, the retrieval key reads masked steps as zero.
        The bank's horizons must match the config. Each vessel's outputs equal
        its one-vessel call bit for bit.
        """
        cfg = self.cfg
        if not 0 < len(samples) == len(rngs) == len(encodings):
            raise ValueError(
                f"decode needs one rng and one encoding per sample and at least one sample, got "
                f"{len(samples)} samples, {len(rngs)} rngs and {len(encodings)} encodings"
            )
        self._check_bank(bank)
        for sample, encoding in zip(samples, encodings):
            if not np.array_equal(encoding.ais_mask, sample.ais_mask):
                raise ValueError(
                    f"ais_mask {sample.ais_mask.astype(int).tolist()} differs from the "
                    f"{encoding.ais_mask.astype(int).tolist()} the encoding was computed under "
                    f"(vessel_id {sample.vessel_id!r})"
                )
        refinable = [bank is not None and s.ais_mask.any() for s in samples]
        order = sorted(range(len(samples)), key=lambda i: not refinable[i])  # stable: refinable first
        n_lit, n = sum(refinable), len(samples)
        eps = np.array([rng.normals(cfg.modes * cfg.latent_dim) for rng in rngs]).reshape(n, cfg.modes, -1)
        f_enc = stack([encodings[i].f_enc for i in order])  # (V, 1, d)
        modes = predict_modes(self.params.decoder, f_enc, eps[order])

        found = [search(bank, masked_track(samples[i].obs_ais, samples[i].ais_mask)) for i in order[:n_lit]]
        if n_lit:
            def head(t: Tensor) -> Tensor:  # the refined block: rows [0, n_lit)
                return t if n_lit == n else narrow(t, 0, 0, n_lit)

            refined = refine_and_fuse(
                self.params.refine,
                head(modes.ais),
                np.stack([fut for _, fut, _ in found]),
                head(modes.features),
                head(f_enc),
                cfg.offset_scale,
            )
            modes.ais = refined if n_lit == n else concat([refined, narrow(modes.ais, 0, n_lit, n - n_lit)])
        unrefined = [None] * (n - n_lit)
        return Forward(
            modes=modes,
            order=order,
            prior_index=[index for index, _, _ in found] + unrefined,
            prior_similarity=[sim for _, _, sim in found] + unrefined,
        )

    def forward_sample(
        self,
        sample: VesselSample,
        rng: Rng,
        bank: TrajectoryBank | None = None,
        encoding: SampleEncoding | None = None,
    ) -> Forward:
        """Run the full pipeline on one sample: the one-vessel case of `decode`,
        so every `modes` field has a vessel axis of 1.

        The deterministic stage is `encode(sample)`, which checks the sample:
        scene features, which depend only on the vessel's frames, fused with
        both tracks, which depends on the vessel and its `ais_mask`. An
        `encoding` it returned for this vessel under the same `ais_mask` skips
        that stage and its checks. The per-draw stage, `decode`, runs on every
        call. The sample must pass `VesselSample.validate`, and its observation
        window and the bank's horizons must match the config; futures are not
        compared with `cfg.t_fut` here, since evaluation passes futures longer
        than the model's horizon.
        """
        if encoding is None:
            encoding = self.encode(sample)
        return self.decode([sample], [rng], [encoding], bank=bank)

    def loss_batch(
        self,
        samples: list[VesselSample],
        rng: Rng,
        bank: TrajectoryBank | None = None,
    ) -> tuple[Tensor, Tensor, Tensor, list[int]]:
        """Batch-mean (total, rec, kl) tensors plus per-sample winning modes.

        After `check_training`, each sample is encoded on its own (a batched
        ConvLSTM's backward transients cost more memory than its tape saves),
        then one `decode` pass, drawing each sample's noise from `rng` in
        turn, and one `sample_losses` call score the whole batch.
        """
        self.check_training(samples, bank)
        fwd = self.decode(samples, [rng] * len(samples), [self.encode(s) for s in samples], bank=bank)
        fut = [np.stack([getattr(samples[i], name) for i in fwd.order]) for name in ("fut_ais", "fut_cctv")]
        rec, kl, winners = sample_losses(fwd.modes, *fut)
        rec, kl = tmean(rec), tmean(kl)
        return total_loss(rec, kl, self.cfg.kl_weight), rec, kl, winners[np.argsort(fwd.order)].tolist()

    def predict(
        self,
        sample: VesselSample,
        rng: Rng,
        bank: TrajectoryBank | None = None,
        encoding: SampleEncoding | None = None,
    ) -> PredictionSet:
        """Inference-only candidate set (refined positional head, raw camera head)
        with the bank entry it retrieved, if any. An `encoding` from
        `encode(sample)` skips the scene encoder and the fusion, as in
        `forward_sample`. Called outside any Tape, it records nothing."""
        return _prediction_sets(self.forward_sample(sample, rng, bank=bank, encoding=encoding))[0]

    def predict_pool(
        self,
        samples: list[VesselSample],
        rngs: list[Rng],
        encodings: list[SampleEncoding],
        bank: TrajectoryBank | None = None,
    ) -> list[PredictionSet]:
        """`predict` for a pool of vessels in one `decode` pass: one candidate
        set per sample, in the order given, each equal bit for bit to
        `predict(samples[i], rngs[i], bank, encodings[i])`."""
        return _prediction_sets(self.decode(samples, rngs, encodings, bank=bank))

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named.items()}

    def architecture_hash(self) -> int:
        return architecture_hash(self.cfg)


def _prediction_sets(fwd: Forward) -> list[PredictionSet]:
    """Plain-array candidate sets of a `Forward`, in the order its samples were given."""
    sets = [None] * len(fwd.order)
    for row, i in enumerate(fwd.order):
        sets[i] = PredictionSet(
            ais=fwd.modes.ais.data[row],
            cctv=fwd.modes.cctv.data[row],
            latents=fwd.modes.z.data[row],
            prior_index=fwd.prior_index[row],
            prior_similarity=fwd.prior_similarity[row],
        )
    return sets
