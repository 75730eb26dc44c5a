import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import corrupt_in_place
from vesselcast.data import (
    DatasetFormatError,
    ProjectionError,
    WaterwayConfig,
    apply_dark_vessels,
    generate_scenario,
    plan_vessels,
    project_geo_to_pixels,
    read_dataset,
    write_dataset,
)
from vesselcast.data.types import FieldError
from vesselcast.engine import Rng


def small_cfg(**overrides):
    base = dict(vessel_count=8, t_obs=4, t_fut=6, raster_size=16, bbox_half=2.0)
    base.update(overrides)
    return WaterwayConfig(**base)


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
    frac = plan_vessels(cfg, seed=21).maneuver.mean()
    assert 0.10 <= frac <= 0.20


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_plan_vessels_equals_scalar_draws_in_vessel_field_order(seed):
    cfg = small_cfg(vessel_count=13)
    rng = Rng(seed)
    s_hi = max(1.0 - cfg.speed_max * (cfg.t_obs + cfg.t_fut - 1), 1e-6)
    half = 0.8 * cfg.channel_halfwidth
    rows = [
        (rng.uniform(0.0, s_hi), rng.uniform(cfg.speed_min, cfg.speed_max), rng.uniform(-half, half),
         rng.uniform() < cfg.maneuver_prob, 1.0 if rng.uniform() < 0.5 else -1.0)
        for _ in range(cfg.vessel_count)
    ]
    plan = plan_vessels(cfg, seed)
    for name, want in zip(("s0", "speed", "offset", "maneuver", "sign"), zip(*rows)):
        got = getattr(plan, name)
        assert got.shape == (cfg.vessel_count,), name
        assert got.tolist() == list(want), name


def test_occupancy_is_the_union_of_the_other_vessels_squares_clipped_to_the_raster():
    """A homography that maps part of the waterway left of the frame: each
    occupancy map is the union of the other vessels' 3x3 squares, cells off
    the raster dropped, and a vessel far off the raster paints nothing."""
    cfg = small_cfg(vessel_count=6, homography=(0.82, 0.06, -0.3, 0.04, 0.80, 0.10, 0.05, 0.08, 1.0))
    samples = generate_scenario(cfg, seed=3)
    size = cfg.raster_size
    pixels = np.stack([project_geo_to_pixels(s.obs_ais, cfg.matrix()) for s in samples])  # frame is the unit square
    cells = np.floor(pixels * size).astype(int)  # (vessel, step, (column, row))
    assert (cells < -2).any(), "the config must put some vessel off the raster"
    for i, s in enumerate(samples):
        for t in range(cfg.t_obs):
            want = np.zeros((size, size), dtype=np.float32)
            for c, r in np.delete(cells[:, t], i, axis=0):
                for rr in range(r - 1, r + 2):
                    for cc in range(c - 1, c + 2):
                        if 0 <= rr < size and 0 <= cc < size:
                            want[rr, cc] = 1.0
            assert np.array_equal(s.rasters[t, 1], want), (i, t)


def test_density_labels_count_the_neighbours_at_the_last_observed_step():
    cfg = small_cfg(vessel_count=24, density_radius=0.15, density_low_max=1, density_med_max=3)
    samples = generate_scenario(cfg, seed=5)  # noiseless: obs_ais is the true track
    labels = []
    for s in samples:
        near = sum(np.sqrt(((o.obs_ais[-1] - s.obs_ais[-1]) ** 2).sum()) <= cfg.density_radius for o in samples) - 1
        labels.append("low" if near <= 1 else "medium" if near <= 3 else "high")
    assert [s.density for s in samples] == labels
    assert set(labels) == {"low", "medium", "high"}


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
        for raster, (x0, y0, x1, y1) in zip(s.rasters, s.boxes):
            marker = raster[2]
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
        assert np.array_equal(a.rasters, b.rasters) and b.rasters.dtype == np.float32
        assert np.array_equal(a.boxes, b.boxes) and b.boxes.dtype == np.float64
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


def _nan_raster(rec):
    frame = rec["scenes"][1]
    raster = np.frombuffer(base64.b64decode(frame["raster"]), dtype="<f4").copy()
    raster[5] = np.nan
    frame["raster"] = base64.b64encode(raster.tobytes()).decode("ascii")


def _short_cctv(rec):
    rec["obs_cctv"] = rec["obs_cctv"][:-1]


def _short_scenes(rec):
    rec["scenes"] = rec["scenes"][:-1]


def _empty_scenes(rec):
    rec["scenes"] = []


def _short_future_cctv(rec):
    rec["fut_cctv"] = rec["fut_cctv"][:-1]


def _all_nan_future(rec):
    rec["fut_ais"] = [[float("nan"), float("nan")] for _ in rec["fut_ais"]]


def _three_column_track(rec):
    rec["obs_cctv"] = [p + [0.0] for p in rec["obs_cctv"]]


def _nan_camera_step(rec):
    rec["obs_cctv"][1] = [float("nan"), 0.0]


def _nan_broadcast_step(rec):
    rec["ais_mask"][1] = True
    rec["obs_ais"][1] = [0.0, float("nan")]


def _smaller_second_frame(rec):
    frame = rec["scenes"][1]
    c, h, w = frame["shape"]
    raster = np.frombuffer(base64.b64decode(frame["raster"]), dtype="<f4").reshape(c, h, w)
    frame["shape"] = [c, h - 1, w - 1]
    frame["raster"] = base64.b64encode(raster[:, :-1, :-1].tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "edit, field",
    [
        (_two_channel_raster, "scenes.raster"),
        (_inverted_bbox, "scenes.bbox"),
        (_short_mask, "ais_mask"),
        (_nan_raster, "scenes.raster"),
        (_short_cctv, "obs_cctv"),
        (_short_scenes, "scenes"),
        (_empty_scenes, "scenes"),
        (_short_future_cctv, "fut_cctv"),
        (_all_nan_future, "fut_ais"),
        (_three_column_track, "obs_cctv"),
        (_nan_camera_step, "obs_cctv"),
        (_nan_broadcast_step, "obs_ais"),
        (_smaller_second_frame, "scenes.raster"),
    ],
)
def test_bad_frame_or_mask_names_field(tmp_path, edit, field):
    path = tmp_path / "bad.jsonl"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))
    _corrupt_line(path, edit)
    with pytest.raises(DatasetFormatError, match=rf"line 2: bad field '{field}'"):
        read_dataset(path)


def _rasters_3d(s):
    return {"rasters": s.rasters[:, 0]}


def _two_channel_rasters(s):
    return {"rasters": s.rasters[:, :2]}


def _three_value_boxes(s):
    return {"boxes": s.boxes[:, :3]}


def _nan_raster_at_step_1(s):
    rasters = s.rasters.copy()
    rasters[1, 0, 2, 3] = np.nan
    return {"rasters": rasters}


def _inverted_box_at_step_1(s):
    boxes = s.boxes.copy()
    boxes[1] = boxes[1, [2, 1, 0, 3]]
    return {"boxes": boxes}


def _nan_box_at_step_1(s):
    boxes = s.boxes.copy()
    boxes[1, 3] = np.nan
    return {"boxes": boxes}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rasters_3d, r"scenes.raster must be \(T, 3, H, W\), got \(4, 16, 16\)"),
        (_two_channel_rasters, r"scenes.raster must be \(T, 3, H, W\), got \(4, 2, 16, 16\)"),
        (_three_value_boxes, r"scenes.bbox must be \(4, 4\), got \(4, 3\)"),
        (_nan_raster_at_step_1, r"scenes.raster is not finite at step 1"),
        (_inverted_box_at_step_1, r"scenes.bbox is degenerate: .* at step 1"),
        (_nan_box_at_step_1, r"scenes.bbox is degenerate: .*nan.* at step 1"),
    ],
)
def test_in_memory_frames_break_a_rule_naming_field_and_step(edit, message):
    sample = generate_scenario(small_cfg(vessel_count=3), seed=1)[0]
    bad = dataclasses.replace(sample, **edit(sample))
    with pytest.raises(FieldError, match=message):
        bad.validate()


def test_sample_without_a_future_validates():
    """Inference needs no ground truth: a 0-step future breaks no rule."""
    sample = generate_scenario(small_cfg(vessel_count=3), seed=1)[0]
    dataclasses.replace(sample, fut_ais=np.zeros((0, 2)), fut_cctv=np.zeros((0, 2))).validate()


def test_nan_under_a_masked_step_reads(tmp_path):
    path = tmp_path / "masked.jsonl"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))

    def nan_at_masked_step(rec):
        rec["ais_mask"][0] = False
        rec["obs_ais"][0] = [float("nan"), float("nan")]

    _corrupt_line(path, nan_at_masked_step)
    sample = read_dataset(path)[1]
    assert not sample.ais_mask[0] and np.isnan(sample.obs_ais[0]).all()


def test_every_truncation_and_flip_of_a_dataset_reads_or_fails_naming_the_line(tmp_path, micro_samples):
    """Each truncation of a one-vessel file, and the 0x01 and 0x80 flip of
    each of its bytes, reads or raises DatasetFormatError; never a raw
    decode, json or numpy error."""
    path = tmp_path / "one.jsonl"
    write_dataset(path, micro_samples[:1])
    for _ in corrupt_in_place(path, masks=(0x01, 0x80)):
        try:
            read_dataset(path)
        except DatasetFormatError as exc:
            assert str(exc).startswith(f"dataset line {exc.line_no}: bad field")
