"""Training loop with plateau-driven learning-rate halving."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import TrajectoryBank
from .config import TrainConfig
from .data.types import VesselSample
from .engine import Adam, Tape, backward
from .engine.rng import Rng
from .model import Model


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the step where it happened."""


@dataclass
class EpochStats:
    epoch: int
    total: float
    rec: float
    kl: float
    lr: float


class PlateauScheduler:
    """Halve lr when relative improvement stays below threshold for `patience`
    consecutive epochs."""

    def __init__(self, opt: Adam, factor: float, patience: int, threshold: float):
        self.opt = opt
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.best = math.inf
        self.stale = 0

    def step(self, loss: float) -> None:
        if self.best == math.inf or (self.best - loss) > self.threshold * max(abs(self.best), 1e-12):
            self.best = loss
            self.stale = 0
            return
        self.stale += 1
        if self.stale >= self.patience:
            self.opt.lr *= self.factor
            self.stale = 0


def train(
    samples: list[VesselSample],
    cfg: TrainConfig,
    bank: TrajectoryBank | None = None,
    curve_path: str | Path | None = None,
    log=None,
) -> tuple[Model, list[EpochStats]]:
    """Train a fresh model; returns it with the per-epoch loss curve.

    Deterministic for fixed (samples, cfg): parameter init, batch order, and
    latent noise all derive from cfg.seed.
    """
    if not samples:
        raise ValueError("train needs a nonempty dataset")
    cfg.validate()
    model = Model(cfg)
    opt = Adam(model.named, lr=cfg.lr)
    sched = PlateauScheduler(opt, cfg.scheduler_factor, cfg.scheduler_patience, cfg.scheduler_threshold)

    curve: list[EpochStats] = []
    step = 0
    for epoch in range(cfg.epochs):
        # per-epoch streams: batch order and latent noise depend only on
        # (seed, epoch), so any epoch is reproducible in isolation
        shuffle_rng = Rng(cfg.seed).child("batch-order").child(epoch)
        noise_rng = Rng(cfg.seed).child("latent-noise").child(epoch)
        order = list(range(len(samples)))
        shuffle_rng.shuffle(order)
        sum_total = sum_rec = sum_kl = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            with Tape():
                total, rec, kl, _ = model.loss_batch(batch, rng=noise_rng, bank=bank)
                value, rec_value, kl_value = total.item(), rec.item(), kl.item()
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"non-finite loss at step {step} (epoch {epoch}): total={value}"
                    )
                backward(total)
                # these reach the whole graph; freed here, not when the next step rebinds them
                del total, rec, kl
            opt.step()
            opt.zero_grad()
            step += 1
            sum_total += value * len(batch)
            sum_rec += rec_value * len(batch)
            sum_kl += kl_value * len(batch)
        n = len(samples)
        stats = EpochStats(epoch=epoch, total=sum_total / n, rec=sum_rec / n, kl=sum_kl / n, lr=opt.lr)
        curve.append(stats)
        sched.step(stats.total)
        if log is not None:
            log(f"epoch {epoch:4d}  total {stats.total:.6f}  rec {stats.rec:.6f}  "
                f"kl {stats.kl:.6f}  lr {opt.lr:.2e}")

    if curve_path is not None:
        write_curve(curve_path, curve)
    return model, curve


def write_curve(path: str | Path, curve: list[EpochStats]) -> None:
    lines = ["epoch,total,rec,kl,lr"]
    for s in curve:
        lines.append(f"{s.epoch},{s.total!r},{s.rec!r},{s.kl!r},{s.lr!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
