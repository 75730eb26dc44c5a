import os
from pathlib import Path

import numpy as np
import pytest

from vesselcast.config import TrainConfig
from vesselcast.data import WaterwayConfig, generate_scenario

# the cross-process determinism tests spawn fresh interpreters; they import
# the package from this checkout whether or not it is installed
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def micro_config(**overrides):
    """Tiny configuration for fast gradient checks and unit tests."""
    base = dict(
        t_obs=2,
        t_fut=3,
        modes=2,
        d_model=4,
        heads=2,
        latent_dim=2,
        stem_channels=(2, 2, 2),
        roi_size=2,
        bbox_dim=4,
        raster_size=12,
        offset_hidden=8,
        batch_size=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def micro_waterway(**overrides):
    base = dict(
        vessel_count=6,
        t_obs=2,
        t_fut=3,
        raster_size=12,
        bbox_half=2.0,
        ais_noise=0.002,
        pixel_noise=0.004,
    )
    base.update(overrides)
    return WaterwayConfig(**base)


@pytest.fixture
def micro_cfg():
    return micro_config()


@pytest.fixture
def micro_samples():
    return generate_scenario(micro_waterway(), seed=42)
