"""Sample and scenario-configuration types.

Positions use normalized planar coordinates on the unit square; camera
tracks use normalized image coordinates in [0, frame_w) x [0, frame_h).
Scene rasters are 3-channel float32 grids: channel 0 the navigable-channel
mask, channel 1 other-vessel occupancy, channel 2 the target marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DENSITY_LEVELS = ("low", "medium", "high")


class FieldError(ValueError):
    """A value that cannot be right; `field` names the attribute holding it."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(detail)


@dataclass
class SceneFrame:
    raster: np.ndarray  # (3, H, W) float32 in [0, 1]
    bbox: tuple[float, float, float, float]  # raster coords, x_min < x_max

    def validate(self) -> None:
        if self.raster.ndim != 3 or self.raster.shape[0] != 3:
            raise FieldError("raster", f"scene raster must be (3, H, W), got {self.raster.shape}")
        if len(self.bbox) != 4:
            raise FieldError("bbox", f"scene bbox needs 4 values, got {len(self.bbox)}")
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise FieldError("bbox", f"degenerate scene bbox {self.bbox}")


@dataclass
class VesselSample:
    """One vessel's aligned observation window plus ground-truth future."""

    vessel_id: str
    obs_ais: np.ndarray  # (T_obs, 2)
    ais_mask: np.ndarray  # (T_obs,) bool; False where the broadcast is missing
    obs_cctv: np.ndarray  # (T_obs, 2)
    scenes: list[SceneFrame]  # length T_obs
    fut_ais: np.ndarray  # (T_fut, 2)
    fut_cctv: np.ndarray  # (T_fut, 2)
    density: str = "low"
    is_dark: bool = False

    @property
    def t_obs(self) -> int:
        return self.obs_ais.shape[0]

    @property
    def t_fut(self) -> int:
        return self.fut_ais.shape[0]


@dataclass
class WaterwayConfig:
    """Synthetic curved-waterway scenario parameters."""

    centerline: str = "sine"  # sine | arc | straight
    amplitude: float = 0.16  # sine amplitude / arc sagitta scale
    period: float = 0.9  # sine period along x
    channel_halfwidth: float = 0.08
    vessel_count: int = 64
    speed_min: float = 0.012
    speed_max: float = 0.028
    maneuver_prob: float = 0.15
    maneuver_amp: float = 0.05
    ais_noise: float = 0.0
    pixel_noise: float = 0.0
    t_obs: int = 8
    t_fut: int = 12
    raster_size: int = 64
    frame_w: float = 1.0
    frame_h: float = 1.0
    bbox_half: float = 4.0  # raster pixels
    density_radius: float = 0.12
    density_low_max: int = 2  # neighbor count thresholds for the labels
    density_med_max: int = 5
    homography: tuple[float, ...] = field(
        default=(0.82, 0.06, 0.06, 0.04, 0.80, 0.10, 0.05, 0.08, 1.00)
    )

    def matrix(self) -> np.ndarray:
        return np.asarray(self.homography, dtype=np.float64).reshape(3, 3)

    def validate(self) -> None:
        if self.channel_halfwidth <= 0:
            raise ValueError("channel_halfwidth must be positive")
        if self.centerline not in ("sine", "arc", "straight"):
            raise ValueError(f"unknown centerline kind '{self.centerline}'")
        det = float(np.linalg.det(self.matrix()))
        if abs(det) <= 1e-9:
            raise ValueError(f"homography is not invertible (det={det:g})")
        if self.vessel_count < 1 or self.t_obs < 1 or self.t_fut < 1:
            raise ValueError("vessel_count, t_obs, t_fut must be positive")
