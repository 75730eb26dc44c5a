"""Synthetic waterway scenario generation and dark-vessel masking."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..engine.rng import Rng
from .types import DENSITY_LEVELS, VesselSample, WaterwayConfig

# arc geometry (centerline == "arc"): circle segment sweeping the unit square
_ARC_CENTER = (0.5, -0.35)
_ARC_RADIUS = 0.85
_ARC_THETA = (2.20, 0.94)


class ProjectionError(ValueError):
    """Point mapped to the plane at infinity (w ~ 0)."""


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
class FleetPlan:
    """Per-vessel kinematic draws, one (N,) array per field, row i for vessel i."""

    s0: np.ndarray
    speed: np.ndarray
    offset: np.ndarray
    maneuver: np.ndarray  # bool
    sign: np.ndarray  # +1.0 or -1.0: the side a maneuvering vessel swerves to


def plan_vessels(cfg: WaterwayConfig, seed: int) -> FleetPlan:
    """Per-vessel kinematic draws; the maneuvering minority swerves and returns.

    One `Rng(seed).uniforms(5 * N)` draw, row i of its (N, 5) reshape for
    vessel i: start, speed, offset, maneuver and sign, in that order. These
    are, bit for bit, the values of scalar `uniform` calls in (vessel, field)
    order.
    """
    u = Rng(seed).uniforms(5 * cfg.vessel_count).reshape(-1, 5).T
    s_span = cfg.speed_max * (cfg.t_obs + cfg.t_fut - 1)
    lo, hi = -0.8 * cfg.channel_halfwidth, 0.8 * cfg.channel_halfwidth
    return FleetPlan(
        s0=max(1.0 - s_span, 1e-6) * u[0],
        speed=cfg.speed_min + (cfg.speed_max - cfg.speed_min) * u[1],
        offset=lo + (hi - lo) * u[2],
        maneuver=u[3] < cfg.maneuver_prob,
        sign=np.where(u[4] < 0.5, 1.0, -1.0),
    )


def _geo_tracks(cfg: WaterwayConfig, plan: FleetPlan) -> np.ndarray:
    """True positions, shape (N, T_total, 2)."""
    t_total = cfg.t_obs + cfg.t_fut
    steps = np.arange(t_total, dtype=np.float64)
    s = plan.s0[:, None] + plan.speed[:, None] * steps
    # smooth out-and-back avoidance swerve over the whole window
    swerve = np.sin(math.pi * (steps / max(t_total - 1, 1))) ** 2
    offset = plan.offset[:, None]
    lateral = np.where(plan.maneuver[:, None], offset + plan.sign[:, None] * cfg.maneuver_amp * swerve, offset)
    pos, normal = _centerline_point(cfg, s)
    return pos + lateral[..., None] * normal


def _channel_mask(cfg: WaterwayConfig) -> np.ndarray:
    """Static waterway raster channel: 1 where a pixel center lies in the channel.

    A pixel center, mapped to the geo frame by the inverse homography, is in
    the channel when it lies within `channel_halfwidth` of the nearest of 512
    centerline samples over s in [-0.2, 1.2]. The squared distance is formed
    as `dx ** 2 + dy ** 2` from separate x and y differences. That is the same
    bits as summing the squared (x, y) differences over a length-2 axis:
    numpy's `x ** 2` is `x * x`, a two-element sum is `x0 + x1`, and the
    minimum is exact. The decision stays `sqrt(d2) <= channel_halfwidth`;
    comparing `d2` with the squared halfwidth rounds differently.
    """
    size = cfg.raster_size
    h_inv = np.linalg.inv(cfg.matrix())
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    px = np.stack(
        [(cc.ravel() + 0.5) / size * cfg.frame_w, (rr.ravel() + 0.5) / size * cfg.frame_h],
        axis=-1,
    )
    geo = project_geo_to_pixels(px, h_inv).reshape(size, size, 2)
    line, _ = _centerline_point(cfg, np.linspace(-0.2, 1.2, 512))
    lx, ly = line.T
    # nearest centerline sample one raster row at a time: the (size, 512)
    # differences of a row stay small where the whole raster's would not
    d2 = np.empty((size, size))
    for r, (gx, gy) in enumerate(geo.transpose(0, 2, 1)):
        dx = gx[:, None] - lx
        dy = gy[:, None] - ly
        d2[r] = (dx ** 2 + dy ** 2).min(axis=1)
    return (np.sqrt(d2) <= cfg.channel_halfwidth).astype(np.float32)


def _occupancy(size: int, raster_pos: np.ndarray) -> np.ndarray:
    """(N, T, size, size) float32 other-vessel occupancy from (N, T, 2) raster positions.

    Each vessel covers the 3x3 square of cells around the cell its position
    floors to, clipped to the raster; vessel i's map is 1 where more squares
    cover a cell than its own does, that is where another vessel's square does.
    """
    near = np.abs(np.arange(size) - np.floor(raster_pos)[..., None]) <= 1  # (N, T, 2, size)
    square = near[:, :, 1, :, None] & near[:, :, 0, None, :]
    return (square.sum(axis=0) > square).astype(np.float32)


def _target_boxes(cfg: WaterwayConfig, centers: np.ndarray) -> np.ndarray:
    """(..., 4) boxes of side 2 * bbox_half around (..., 2) raster centers, shifted inside the raster."""
    size, bh = float(cfg.raster_size), cfg.bbox_half
    lo = np.minimum(np.maximum(centers - bh, 0.0), size - 2 * bh)
    return np.concatenate([lo, lo + 2 * bh], axis=-1)


def _marker_channels(size: int, boxes: np.ndarray) -> np.ndarray:
    """(..., size, size) float32: 1 where a pixel center lies inside the (..., 4) box."""
    x0, y0, x1, y1 = np.moveaxis(boxes, -1, 0)[..., None]  # each (..., 1)
    centers = np.arange(size) + 0.5
    inside = ((centers >= y0) & (centers < y1))[..., :, None] & ((centers >= x0) & (centers < x1))[..., None, :]
    return inside.astype(np.float32)


def generate_scenario(cfg: WaterwayConfig, seed: int) -> list[VesselSample]:
    """Simulate all vessels on a shared timeline and cut one window per vessel.

    Every stage runs once over the leading vessel axis. Deterministic for a
    given (cfg, seed): `plan_vessels` draws the kinematics; the
    "observation-noise" child stream then draws every vessel's AIS noise,
    then every vessel's camera noise, each in (vessel, timestep, coordinate)
    order, and only when its scale is positive. Density counts the vessels
    within `density_radius` at the last observed step. Each sample holds row
    views of the scenario's arrays.
    """
    cfg.validate()
    geo = _geo_tracks(cfg, plan_vessels(cfg, seed))
    n, t_obs, size = cfg.vessel_count, cfg.t_obs, cfg.raster_size

    noise_rng = Rng(seed).child("observation-noise")
    ais = geo
    if cfg.ais_noise > 0:
        ais = geo + cfg.ais_noise * np.reshape(noise_rng.normals(geo.size), geo.shape)
    pixels = project_geo_to_pixels(geo.reshape(-1, 2), cfg.matrix()).reshape(geo.shape)
    cam = pixels
    if cfg.pixel_noise > 0:
        cam = pixels + cfg.pixel_noise * np.reshape(noise_rng.normals(geo.size), geo.shape)
    cctv = np.clip(cam, 0.0, [cfg.frame_w * (1 - 1e-9), cfg.frame_h * (1 - 1e-9)])

    ref = geo[:, t_obs - 1]
    dist = np.sqrt(((ref[:, None] - ref[None]) ** 2).sum(axis=-1))
    neighbors = (dist <= cfg.density_radius).sum(axis=1) - 1
    level = np.searchsorted([cfg.density_low_max, cfg.density_med_max], neighbors)

    raster_pos = pixels[:, :t_obs] * [size / cfg.frame_w, size / cfg.frame_h]
    boxes = _target_boxes(cfg, raster_pos)
    channel = _channel_mask(cfg)
    rasters = np.empty((n, t_obs, 3, size, size), dtype=np.float32)
    rasters[:, :, 0] = channel
    rasters[:, :, 1] = _occupancy(size, raster_pos)
    rasters[:, :, 2] = _marker_channels(size, boxes)
    ais_mask = np.ones((n, t_obs), dtype=bool)
    return [
        VesselSample(
            vessel_id=f"v{i:04d}",
            obs_ais=ais[i, :t_obs],
            ais_mask=ais_mask[i],
            obs_cctv=cctv[i, :t_obs],
            rasters=rasters[i],
            boxes=boxes[i],
            fut_ais=ais[i, t_obs:],
            fut_cctv=cctv[i, t_obs:],
            density=DENSITY_LEVELS[level[i]],
        )
        for i in range(n)
    ]


def apply_dark_vessels(samples: list[VesselSample], rho: float, seed: int) -> list[VesselSample]:
    """Mark floor(rho * N) vessels as having no position broadcast at all.

    Selection shuffles the vessel ids in sorted order, so it does not depend
    on how the input list happens to be ordered. Futures stay untouched;
    only the chosen vessels' `ais_mask` changes, to all false.
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
            out.append(dataclasses.replace(s, ais_mask=np.zeros(s.t_obs, dtype=bool)))
        else:
            out.append(s)
    return out
