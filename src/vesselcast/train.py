"""Training loop with plateau-driven learning-rate halving."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import TrajectoryBank
from .config import TrainConfig
from .data.types import VesselSample
from .engine import Adam, Tape, backward, mul
from .engine.rng import Rng
from .model import Model


class DivergenceError(RuntimeError):
    """A sample's loss became non-finite; names the step, the epoch and the
    sample's vessel_id."""


@dataclass
class EpochStats:
    epoch: int
    total: float
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

    Deterministic for fixed (samples, cfg): parameter init and batch order
    both derive from cfg.seed. Every sample and the bank are checked before
    the first step.

    A step builds one sample's graph at a time: each sample of the batch gets
    its own `Tape`, its loss is checked, and `backward` adds its share,
    `1 / len(batch)` of its loss, to the leaves' gradients before the tape is
    dropped. One Adam step then follows per batch. So `cfg.batch_size` sets
    the step, but a step holds no more than one sample's graph. A step's
    reported loss is the per-sample values summed by numpy and scaled by
    `1 / len(batch)`, as `tmean` forms the batch mean.
    """
    model = Model(cfg)
    model.check_training(samples, bank)
    opt = Adam(model.named, lr=cfg.lr)
    sched = PlateauScheduler(opt, cfg.scheduler_factor, cfg.scheduler_patience, cfg.scheduler_threshold)

    curve: list[EpochStats] = []
    step = 0
    for epoch in range(cfg.epochs):
        # the batch order depends only on (seed, epoch), so any epoch is
        # reproducible in isolation
        shuffle_rng = Rng(cfg.seed).child("batch-order").child(epoch)
        order = list(range(len(samples)))
        shuffle_rng.shuffle(order)
        sum_total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            share = 1.0 / len(batch)
            losses = []
            for sample in batch:
                with Tape():
                    loss, _ = model.loss_batch([sample], bank=bank)
                    if not math.isfinite(loss.item()):
                        raise DivergenceError(
                            f"non-finite loss at step {step} (epoch {epoch}, vessel_id "
                            f"{sample.vessel_id!r}): total={loss.item()}"
                        )
                    backward(mul(loss, share))
                    losses.append(loss.item())
                    # it refers to this sample's tape, and so keeps its records
                    # alive; freed here, before the next sample's forward pass
                    del loss
            opt.step()
            opt.zero_grad()
            step += 1
            sum_total += float(np.sum(losses) * share) * len(batch)
        stats = EpochStats(epoch=epoch, total=sum_total / len(samples), lr=opt.lr)
        curve.append(stats)
        sched.step(stats.total)
        if log is not None:
            log(f"epoch {epoch:4d}  total {stats.total:.6f}  lr {opt.lr:.2e}")

    if curve_path is not None:
        write_curve(curve_path, curve)
    return model, curve


def write_curve(path: str | Path, curve: list[EpochStats]) -> None:
    lines = ["epoch,total,lr"]
    for s in curve:
        lines.append(f"{s.epoch},{s.total!r},{s.lr!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
