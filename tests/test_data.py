import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from vesselcast.data import (
    DatasetFormatError,
    ProjectionError,
    WaterwayConfig,
    WindowError,
    apply_dark_vessels,
    generate_scenario,
    plan_vessels,
    project_geo_to_pixels,
    read_dataset,
    split_window,
    write_dataset,
)
from vesselcast.engine import Rng


def small_cfg(**overrides):
    base = dict(vessel_count=8, t_obs=4, t_fut=6, raster_size=16, bbox_half=2.0)
    base.update(overrides)
    return WaterwayConfig(**base)


def test_split_window_partition():
    track = np.arange(40.0).reshape(20, 2)
    obs, fut = split_window(track, 8, 12)
    assert obs.shape == (8, 2) and fut.shape == (12, 2)
    # the first future element is the 9th track element
    assert np.array_equal(fut[0], track[8])


def test_split_window_exact_boundary():
    track = np.arange(40.0).reshape(20, 2)
    obs, fut = split_window(track, 8, 12)
    assert np.array_equal(np.vstack([obs, fut]), track)


def test_split_window_too_short():
    with pytest.raises(WindowError, match="19"):
        split_window(np.zeros((19, 2)), 8, 12)


def test_project_identity():
    pts = np.array([[0.2, 0.3], [0.9, 0.1]])
    assert np.array_equal(project_geo_to_pixels(pts, np.eye(3)), pts)


def test_project_scaling():
    pts = np.array([[0.2, 0.3]])
    out = project_geo_to_pixels(pts, np.diag([2.0, 2.0, 1.0]))
    assert np.allclose(out, [[0.4, 0.6]])


def test_project_round_trip():
    rng = Rng(5)
    h = np.array(rng.uniforms(9, -0.3, 0.3)).reshape(3, 3) + np.eye(3)
    assert abs(np.linalg.det(h)) > 1e-6
    pts = np.array(rng.uniforms(40)).reshape(20, 2)
    back = project_geo_to_pixels(project_geo_to_pixels(pts, h), np.linalg.inv(h))
    assert np.allclose(back, pts, atol=1e-9)


def test_project_w_zero_errors():
    h = np.array([[1.0, 0, 0], [0, 1, 0], [-1.0, 0, 1]])  # w = 1 - x
    with pytest.raises(ProjectionError):
        project_geo_to_pixels(np.array([[1.0, 0.5]]), h)


def test_noiseless_straight_centerline_is_collinear():
    cfg = small_cfg(centerline="straight", maneuver_prob=0.0, vessel_count=6)
    samples = generate_scenario(cfg, seed=3)
    for s in samples:
        track = np.vstack([s.obs_ais, s.fut_ais])
        p0, p1 = track[0], track[-1]
        d = p1 - p0
        d /= np.linalg.norm(d)
        # max point-to-line distance
        rel = track - p0
        cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
        assert cross.max() < 1e-9


def test_generator_deterministic_files(tmp_path):
    cfg = small_cfg()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(a, generate_scenario(cfg, seed=11))
    write_dataset(b, generate_scenario(cfg, seed=11))
    assert a.read_bytes() == b.read_bytes()


def test_maneuver_fraction_binomial():
    cfg = small_cfg(vessel_count=200, maneuver_prob=0.15)
    plans = plan_vessels(cfg, seed=21)
    frac = sum(p.maneuver for p in plans) / len(plans)
    assert 0.10 <= frac <= 0.20


def test_zero_noise_cctv_equals_projected_ais():
    cfg = small_cfg(ais_noise=0.0, pixel_noise=0.0)
    samples = generate_scenario(cfg, seed=2)
    h = cfg.matrix()
    for s in samples:
        proj = project_geo_to_pixels(s.obs_ais, h)
        assert np.array_equal(proj, s.obs_cctv)


def test_cctv_points_inside_frame():
    cfg = small_cfg(pixel_noise=0.02, ais_noise=0.005)
    for s in generate_scenario(cfg, seed=9):
        for track in (s.obs_cctv, s.fut_cctv):
            assert np.all(track[:, 0] >= 0) and np.all(track[:, 0] < cfg.frame_w)
            assert np.all(track[:, 1] >= 0) and np.all(track[:, 1] < cfg.frame_h)


def test_marker_channel_matches_bbox():
    cfg = small_cfg()
    for s in generate_scenario(cfg, seed=4)[:3]:
        for frame in s.scenes:
            x0, y0, x1, y1 = frame.bbox
            marker = frame.raster[2]
            size = marker.shape[0]
            cols = np.arange(size) + 0.5
            rows = np.arange(size) + 0.5
            inside = ((rows >= y0) & (rows < y1))[:, None] & ((cols >= x0) & (cols < x1))[None, :]
            assert np.array_equal(marker > 0, inside)


def test_dark_vessels_rho_zero_and_one():
    cfg = small_cfg()
    samples = generate_scenario(cfg, seed=6)
    same = apply_dark_vessels(samples, 0.0, seed=1)
    assert all(not s.is_dark and s.ais_mask.all() for s in same)
    dark = apply_dark_vessels(samples, 1.0, seed=1)
    assert all(s.is_dark and not s.ais_mask.any() for s in dark)
    for before, after in zip(samples, dark):
        assert np.array_equal(before.fut_ais, after.fut_ais)
        assert np.array_equal(before.obs_ais, after.obs_ais)  # coordinates untouched


def test_dark_vessels_count_and_determinism():
    cfg = small_cfg(vessel_count=20)
    samples = generate_scenario(cfg, seed=7)
    d1 = apply_dark_vessels(samples, 0.3, seed=5)
    d2 = apply_dark_vessels(list(reversed(samples)), 0.3, seed=5)
    picked1 = {s.vessel_id for s in d1 if s.is_dark}
    picked2 = {s.vessel_id for s in d2 if s.is_dark}
    assert len(picked1) == 6
    assert picked1 == picked2  # input order must not matter


def test_dataset_round_trip(tmp_path):
    cfg = small_cfg(ais_noise=0.004, pixel_noise=0.01, vessel_count=10)
    samples = generate_scenario(cfg, seed=13)
    path = tmp_path / "d.jsonl"
    write_dataset(path, samples)
    back = read_dataset(path)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.vessel_id == b.vessel_id
        assert a.density == b.density
        assert np.array_equal(a.obs_ais, b.obs_ais)
        assert np.array_equal(a.ais_mask, b.ais_mask)
        assert np.array_equal(a.fut_cctv, b.fut_cctv)
        for fa, fb in zip(a.scenes, b.scenes):
            assert np.array_equal(fa.raster, fb.raster)
            assert fa.bbox == fb.bbox
    # second write is byte-identical
    path2 = tmp_path / "d2.jsonl"
    write_dataset(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_dataset(path) == []


def test_missing_field_names_line(tmp_path):
    cfg = small_cfg(vessel_count=3)
    samples = generate_scenario(cfg, seed=1)
    path = tmp_path / "bad.jsonl"
    write_dataset(path, samples)
    _corrupt_line(path, lambda rec: rec.pop("fut_ais"))
    with pytest.raises(DatasetFormatError, match="line 2.*fut_ais"):
        read_dataset(path)


def _corrupt_line(path, edit):
    """Apply edit(record) to the dataset's second line."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def _two_channel_raster(rec):
    frame = rec["scenes"][0]
    c, h, w = frame["shape"]
    frame["shape"] = [2, h, w]
    raw = base64.b64decode(frame["raster"])
    frame["raster"] = base64.b64encode(raw[: 2 * h * w * 4]).decode("ascii")


def _inverted_bbox(rec):
    x0, y0, x1, y1 = rec["scenes"][0]["bbox"]
    rec["scenes"][0]["bbox"] = [x1, y0, x0, y1]


def _short_mask(rec):
    rec["ais_mask"] = rec["ais_mask"][:-1]


@pytest.mark.parametrize(
    "edit, field",
    [(_two_channel_raster, "scenes.raster"), (_inverted_bbox, "scenes.bbox"), (_short_mask, "ais_mask")],
)
def test_bad_frame_or_mask_names_field(tmp_path, edit, field):
    path = tmp_path / "bad.jsonl"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))
    _corrupt_line(path, edit)
    with pytest.raises(DatasetFormatError, match=rf"line 2: bad field '{field}'"):
        read_dataset(path)
