"""Synthetic waterway scenario generation and window handling."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..engine.rng import Rng
from .types import VesselSample, WaterwayConfig

# arc geometry (centerline == "arc"): circle segment sweeping the unit square
_ARC_CENTER = (0.5, -0.35)
_ARC_RADIUS = 0.85
_ARC_THETA = (2.20, 0.94)


class WindowError(ValueError):
    """Track too short for the requested observed/future split."""


class ProjectionError(ValueError):
    """Point mapped to the plane at infinity (w ~ 0)."""


def split_window(track: np.ndarray, t_obs: int, t_fut: int) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous split into the last-t_obs-first part and the following t_fut."""
    n = len(track)
    if n < t_obs + t_fut:
        raise WindowError(f"track of length {n} cannot supply t_obs={t_obs} + t_fut={t_fut}")
    return np.array(track[:t_obs]), np.array(track[t_obs : t_obs + t_fut])


def project_geo_to_pixels(points: np.ndarray, homography: np.ndarray) -> np.ndarray:
    """Projective transform with w-division; points is (N, 2)."""
    pts = np.asarray(points, dtype=np.float64)
    ones = np.ones((pts.shape[0], 1))
    homog = np.hstack([pts, ones]) @ np.asarray(homography, dtype=np.float64).T
    w = homog[:, 2]
    if np.any(np.abs(w) < 1e-12):
        raise ProjectionError("point projects to w ~ 0")
    return homog[:, :2] / w[:, None]


def _centerline_point(cfg: WaterwayConfig, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centerline position and unit normal at parameter s (vectorized)."""
    s = np.asarray(s, dtype=np.float64)
    if cfg.centerline == "straight":
        pos = np.stack([s, np.full_like(s, 0.5)], axis=-1)
        normal = np.broadcast_to(np.array([0.0, 1.0]), pos.shape).copy()
        return pos, normal
    if cfg.centerline == "sine":
        k = 2.0 * math.pi / cfg.period
        y = 0.5 + cfg.amplitude * np.sin(k * s)
        pos = np.stack([s, y], axis=-1)
        ty = cfg.amplitude * k * np.cos(k * s)
        norm = np.sqrt(1.0 + ty * ty)
        normal = np.stack([-ty / norm, 1.0 / norm], axis=-1)
        return pos, normal
    # arc: radial normal points away from the circle center
    th0, th1 = _ARC_THETA
    theta = th0 + s * (th1 - th0)
    cx, cy = _ARC_CENTER
    radial = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pos = np.array([cx, cy]) + _ARC_RADIUS * radial
    return pos, radial


@dataclass
class VesselPlan:
    vessel_id: str
    s0: float
    speed: float
    offset: float
    maneuver: bool
    maneuver_sign: float


def plan_vessels(cfg: WaterwayConfig, seed: int) -> list[VesselPlan]:
    """Per-vessel kinematic draws; the maneuvering minority swerves and returns."""
    rng = Rng(seed)
    t_total = cfg.t_obs + cfg.t_fut
    s_span = cfg.speed_max * (t_total - 1)
    plans = []
    for i in range(cfg.vessel_count):
        vid = f"v{i:04d}"
        s0 = rng.uniform(0.0, max(1.0 - s_span, 1e-6))
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        offset = rng.uniform(-0.8 * cfg.channel_halfwidth, 0.8 * cfg.channel_halfwidth)
        maneuver = rng.uniform() < cfg.maneuver_prob
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        plans.append(VesselPlan(vid, s0, speed, offset, maneuver, sign))
    return plans


def _geo_tracks(cfg: WaterwayConfig, plans: list[VesselPlan]) -> np.ndarray:
    """True positions, shape (N, T_total, 2)."""
    t_total = cfg.t_obs + cfg.t_fut
    steps = np.arange(t_total, dtype=np.float64)
    tracks = np.zeros((len(plans), t_total, 2))
    for i, plan in enumerate(plans):
        s = plan.s0 + plan.speed * steps
        lateral = np.full(t_total, plan.offset)
        if plan.maneuver:
            # smooth out-and-back avoidance swerve over the whole window
            u = steps / max(t_total - 1, 1)
            lateral = lateral + plan.maneuver_sign * cfg.maneuver_amp * np.sin(math.pi * u) ** 2
        pos, normal = _centerline_point(cfg, s)
        tracks[i] = pos + lateral[:, None] * normal
    return tracks


def _channel_mask(cfg: WaterwayConfig) -> np.ndarray:
    """Static waterway raster channel: 1 where a pixel center lies in the channel."""
    size = cfg.raster_size
    h_inv = np.linalg.inv(cfg.matrix())
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    px = np.stack(
        [(cc.ravel() + 0.5) / size * cfg.frame_w, (rr.ravel() + 0.5) / size * cfg.frame_h],
        axis=-1,
    )
    geo = project_geo_to_pixels(px, h_inv)
    s_samples = np.linspace(-0.2, 1.2, 512)
    line, _ = _centerline_point(cfg, s_samples)
    d2 = ((geo[:, None, :] - line[None, :, :]) ** 2).sum(axis=-1)
    mask = np.sqrt(d2.min(axis=1)) <= cfg.channel_halfwidth
    return mask.reshape(size, size).astype(np.float32)


def _to_raster(cfg: WaterwayConfig, pixels: np.ndarray) -> np.ndarray:
    scale = np.array([cfg.raster_size / cfg.frame_w, cfg.raster_size / cfg.frame_h])
    return pixels * scale


def _paint_occupancy(grid: np.ndarray, points: np.ndarray) -> None:
    size = grid.shape[0]
    for x, y in points:
        c = int(np.floor(x))
        r = int(np.floor(y))
        grid[max(r - 1, 0) : min(r + 2, size), max(c - 1, 0) : min(c + 2, size)] = 1.0


def _target_boxes(cfg: WaterwayConfig, centers: np.ndarray) -> np.ndarray:
    """(T, 4) boxes of side 2 * bbox_half around (T, 2) raster centers, shifted inside the raster."""
    size, bh = float(cfg.raster_size), cfg.bbox_half
    lo = np.minimum(np.maximum(centers - bh, 0.0), size - 2 * bh)
    return np.concatenate([lo, lo + 2 * bh], axis=1)


def _marker_channels(size: int, boxes: np.ndarray) -> np.ndarray:
    """(T, size, size) float32: 1 where a pixel center lies inside step t's box."""
    x0, y0, x1, y1 = boxes.T[:, :, None]  # each (T, 1)
    centers = np.arange(size) + 0.5
    inside = ((centers >= y0) & (centers < y1))[:, :, None] & ((centers >= x0) & (centers < x1))[:, None, :]
    return inside.astype(np.float32)


def generate_scenario(cfg: WaterwayConfig, seed: int) -> list[VesselSample]:
    """Simulate all vessels on a shared timeline and cut one window per vessel.

    Deterministic for a given (cfg, seed): vessel plans, then observation
    noise, are drawn in fixed (vessel, timestep, coordinate) order.
    """
    cfg.validate()
    plans = plan_vessels(cfg, seed)
    geo = _geo_tracks(cfg, plans)
    n, t_total = geo.shape[0], geo.shape[1]

    noise_rng = Rng(seed).child("observation-noise")
    ais = geo.copy()
    if cfg.ais_noise > 0:
        for i in range(n):
            draws = np.array(noise_rng.normals(t_total * 2)).reshape(t_total, 2)
            ais[i] += cfg.ais_noise * draws
    homography = cfg.matrix()
    cctv = np.zeros_like(geo)
    for i in range(n):
        cam = project_geo_to_pixels(geo[i], homography)
        if cfg.pixel_noise > 0:
            draws = np.array(noise_rng.normals(t_total * 2)).reshape(t_total, 2)
            cam = cam + cfg.pixel_noise * draws
        cctv[i, :, 0] = np.clip(cam[:, 0], 0.0, cfg.frame_w * (1 - 1e-9))
        cctv[i, :, 1] = np.clip(cam[:, 1], 0.0, cfg.frame_h * (1 - 1e-9))

    channel = _channel_mask(cfg)
    raster_pos = np.zeros_like(geo)
    for i in range(n):
        raster_pos[i] = _to_raster(cfg, project_geo_to_pixels(geo[i], homography))

    ref_t = cfg.t_obs - 1  # density measured at the most recent observed step
    samples = []
    for i in range(n):
        dist = np.sqrt(((geo[:, ref_t] - geo[i, ref_t]) ** 2).sum(axis=1))
        neighbors = int((dist <= cfg.density_radius).sum()) - 1
        if neighbors <= cfg.density_low_max:
            density = "low"
        elif neighbors <= cfg.density_med_max:
            density = "medium"
        else:
            density = "high"

        boxes = _target_boxes(cfg, raster_pos[i, : cfg.t_obs])
        rasters = np.zeros((cfg.t_obs, 3, cfg.raster_size, cfg.raster_size), dtype=np.float32)
        rasters[:, 0] = channel
        for t in range(cfg.t_obs):
            _paint_occupancy(rasters[t, 1], np.concatenate([raster_pos[:i, t], raster_pos[i + 1 :, t]]))
        rasters[:, 2] = _marker_channels(cfg.raster_size, boxes)

        obs_a, fut_a = split_window(ais[i], cfg.t_obs, cfg.t_fut)
        obs_c, fut_c = split_window(cctv[i], cfg.t_obs, cfg.t_fut)
        samples.append(
            VesselSample(
                vessel_id=plans[i].vessel_id,
                obs_ais=obs_a,
                ais_mask=np.ones(cfg.t_obs, dtype=bool),
                obs_cctv=obs_c,
                rasters=rasters,
                boxes=boxes,
                fut_ais=fut_a,
                fut_cctv=fut_c,
                density=density,
                is_dark=False,
            )
        )
    return samples


def apply_dark_vessels(samples: list[VesselSample], rho: float, seed: int) -> list[VesselSample]:
    """Mark floor(rho * N) vessels as having no position broadcast at all.

    Selection shuffles the vessel ids in sorted order, so it does not depend
    on how the input list happens to be ordered. Futures stay untouched;
    only availability flags and is_dark change.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    n_dark = int(math.floor(rho * len(samples)))
    ids = sorted(s.vessel_id for s in samples)
    Rng(seed).shuffle(ids)
    chosen = set(ids[:n_dark])
    out = []
    for s in samples:
        if s.vessel_id in chosen:
            out.append(
                dataclasses.replace(
                    s, ais_mask=np.zeros(s.t_obs, dtype=bool), is_dark=True
                )
            )
        else:
            out.append(s)
    return out
