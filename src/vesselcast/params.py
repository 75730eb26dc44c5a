"""Parameter containers, seeded initialization, and registry walking."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .engine import Tensor, add, matmul, relu
from .engine.rng import Rng


def uniform_init(rng: Rng, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Trainable tensor with entries uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    flat = rng.uniforms(int(np.prod(shape)), -bound, bound)
    return Tensor(flat.reshape(shape), requires_grad=True)


@dataclass
class Linear:
    w: Tensor  # (n_in, n_out)
    b: Tensor  # (n_out,)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


def linear(rng: Rng, n_in: int, n_out: int) -> Linear:
    return Linear(
        w=uniform_init(rng, (n_in, n_out), n_in),
        b=uniform_init(rng, (n_out,), n_in),
    )


@dataclass
class Mlp:
    """One hidden layer with ReLU."""

    fc1: Linear
    fc2: Linear

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(relu(self.fc1(x)))


def mlp(rng: Rng, n_in: int, n_hidden: int, n_out: int) -> Mlp:
    return Mlp(fc1=linear(rng, n_in, n_hidden), fc2=linear(rng, n_hidden, n_out))


def collect_params(obj, prefix: str = "") -> dict[str, Tensor]:
    """Flatten nested dataclasses/lists of Tensors into name -> Tensor.

    Order follows dataclass field declaration, so the registry (and hence
    checkpoint layout and optimizer order) is deterministic.
    """
    out: dict[str, Tensor] = {}
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            out.update(collect_params(getattr(obj, f.name), name))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            out.update(collect_params(item, f"{prefix}[{i}]"))
    return out
