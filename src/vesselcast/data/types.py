"""Sample and scenario-configuration types.

Positions use normalized planar coordinates on the unit square; camera
tracks use normalized image coordinates in [0, frame_w) x [0, frame_h).
A sample's scene frames are two arrays with one row per observed step:
rasters, 3-channel float32 grids (channel 0 the navigable-channel mask,
channel 1 other-vessel occupancy, channel 2 the target marker), and the
target's box in raster coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DENSITY_LEVELS = ("low", "medium", "high")


class FieldError(ValueError):
    """A value that cannot be right; `field` names the attribute holding it."""

    def __init__(self, field: str, detail: str):
        self.field = field
        self.detail = detail
        super().__init__(f"{field} {detail}")


@dataclass
class VesselSample:
    """One vessel's aligned observation window plus ground-truth future."""

    vessel_id: str
    obs_ais: np.ndarray  # (T_obs, 2)
    ais_mask: np.ndarray  # (T_obs,) bool; False where the broadcast is missing
    obs_cctv: np.ndarray  # (T_obs, 2)
    rasters: np.ndarray  # (T_obs, 3, H, W) float32 in [0, 1]: one scene frame per step
    boxes: np.ndarray  # (T_obs, 4) float64 target box per frame, raster coords, x_min < x_max
    fut_ais: np.ndarray  # (T_fut, 2)
    fut_cctv: np.ndarray  # (T_fut, 2)
    density: str = "low"

    @property
    def t_obs(self) -> int:
        return self.obs_ais.shape[0]

    @property
    def t_fut(self) -> int:
        return self.fut_ais.shape[0]

    def validate(self) -> None:
        """Check every rule one record obeys on its own; the FieldError names
        the field that breaks one, and the step for a per-step rule.

        `density` is one of `DENSITY_LEVELS`; tracks are (T, 2); rasters are
        (T, 3, H, W) and boxes (T, 4), both reported as `scenes.*`; every
        observed series has one step per obs_ais row, and fut_cctv one per
        fut_ais row; every track and raster is finite, except obs_ais at
        masked steps, which nothing reads; every box has x_min < x_max and
        y_min < y_max.
        """
        if self.density not in DENSITY_LEVELS:
            raise FieldError("density", f"got {self.density!r}")
        for name in ("obs_ais", "obs_cctv", "fut_ais", "fut_cctv"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[1] != 2:
                raise FieldError(name, f"must be (T, 2), got {shape}")
        if self.rasters.ndim != 4 or self.rasters.shape[1] != 3:
            raise FieldError("scenes.raster", f"must be (T, 3, H, W), got {self.rasters.shape}")
        if self.boxes.shape != (len(self.rasters), 4):
            raise FieldError("scenes.bbox", f"must be ({len(self.rasters)}, 4), got {self.boxes.shape}")
        for name, steps in (("ais_mask", self.ais_mask), ("obs_cctv", self.obs_cctv), ("scenes", self.rasters)):
            if len(steps) != self.t_obs:
                raise FieldError(name, f"has {len(steps)} steps for {self.t_obs} obs_ais rows")
        if len(self.fut_cctv) != self.t_fut:
            raise FieldError("fut_cctv", f"has {len(self.fut_cctv)} steps for {self.t_fut} fut_ais rows")
        for name, arr in (("obs_ais", self.obs_ais), ("obs_cctv", self.obs_cctv), ("fut_ais", self.fut_ais),
                          ("fut_cctv", self.fut_cctv), ("scenes.raster", self.rasters)):
            bad = ~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))  # per step; a 0-step track passes
            if name == "obs_ais":
                bad &= np.asarray(self.ais_mask, dtype=bool)  # masked steps are never read
            if bad.any():
                raise FieldError(name, f"is not finite at step {np.flatnonzero(bad)[0]}")
        x0, y0, x1, y1 = self.boxes.T
        bad = ~((x0 < x1) & (y0 < y1))  # a NaN coordinate fails too
        if bad.any():
            t = np.flatnonzero(bad)[0]
            raise FieldError("scenes.bbox", f"is degenerate: {tuple(self.boxes[t].tolist())} at step {t}")


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
        """Reject a field no scenario can be generated from, naming it; every
        comparison is written so that a NaN fails it."""
        if len(self.homography) != 9:
            raise FieldError("homography", f"must hold 9 values, got {len(self.homography)}")
        matrix = self.matrix()
        det = float(np.linalg.det(matrix)) if np.isfinite(matrix).all() else math.nan
        if not abs(det) > 1e-9:
            raise FieldError("homography", f"must be invertible, got det={det:g}")
        rules = (
            ("centerline", self.centerline in ("sine", "arc", "straight"), "must be one of sine, arc, straight"),
            ("vessel_count", self.vessel_count >= 1, "must be positive"),
            ("t_obs", self.t_obs >= 1, "must be positive"),
            ("t_fut", self.t_fut >= 1, "must be positive"),
            ("channel_halfwidth", self.channel_halfwidth > 0, "must be positive"),
            ("period", self.period > 0 or self.centerline != "sine", "must be positive for a sine centerline"),
            ("amplitude", math.isfinite(self.amplitude), "must be finite"),
            ("frame_w", self.frame_w > 0, "must be positive"),
            ("frame_h", self.frame_h > 0, "must be positive"),
            ("ais_noise", self.ais_noise >= 0, "must be >= 0"),
            ("pixel_noise", self.pixel_noise >= 0, "must be >= 0"),
            ("speed_min", 0 <= self.speed_min <= self.speed_max, f"must be in [0, speed_max={self.speed_max}]"),
            ("maneuver_prob", 0 <= self.maneuver_prob <= 1, "must be in [0, 1]"),
            ("maneuver_amp", math.isfinite(self.maneuver_amp), "must be finite"),
            ("raster_size", self.raster_size >= 1, "must be positive"),
            ("bbox_half", 0 < 2 * self.bbox_half <= self.raster_size,
             f"must be positive with 2 * bbox_half <= raster_size={self.raster_size}"),
            ("density_radius", self.density_radius >= 0, "must be >= 0"),
            ("density_low_max", self.density_low_max <= self.density_med_max,
             f"must be <= density_med_max={self.density_med_max}"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise FieldError(name, f"{rule}, got {getattr(self, name)!r}")
