import dataclasses
import json
import struct
import tracemalloc

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
from vesselcast.data.generate import _centerline_point, _channel_mask
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
    a, b = tmp_path / "a.vcds", tmp_path / "b.vcds"
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


def _channel_mask_all_at_once(cfg):
    """Reference: every pixel against every centerline sample in one array."""
    size = cfg.raster_size
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    px = np.stack([(cc.ravel() + 0.5) / size * cfg.frame_w, (rr.ravel() + 0.5) / size * cfg.frame_h], axis=-1)
    geo = project_geo_to_pixels(px, np.linalg.inv(cfg.matrix()))
    line, _ = _centerline_point(cfg, np.linspace(-0.2, 1.2, 512))
    d2 = ((geo[:, None, :] - line[None, :, :]) ** 2).sum(axis=-1)
    return (np.sqrt(d2.min(axis=1)) <= cfg.channel_halfwidth).reshape(size, size).astype(np.float32)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"centerline": "arc", "raster_size": 16},
        {"centerline": "straight", "raster_size": 17, "channel_halfwidth": 0.2},
        {"period": 0.5, "amplitude": 0.1, "frame_w": 2.0, "frame_h": 1.5, "raster_size": 24},
        {"homography": (0.82, 0.06, -0.3, 0.04, 0.80, 0.10, 0.05, 0.08, 1.0), "raster_size": 1, "bbox_half": 0.5},
        {"homography": (0.82, 0.06, -0.3, 0.04, 0.80, 0.10, 0.05, 0.08, 1.0), "raster_size": 32},
        {"centerline": "straight", "raster_size": 64, "frame_w": 2.0, "frame_h": 1.5},
    ],
)
def test_channel_mask_equals_the_all_at_once_reference(overrides):
    cfg = WaterwayConfig(**overrides)
    got = _channel_mask(cfg)
    assert got.dtype == np.float32 and got.tobytes() == _channel_mask_all_at_once(cfg).tobytes()


@pytest.mark.parametrize(
    "overrides",
    [{}, {"vessel_count": 12, "density_radius": 0.12, "density_low_max": 1, "density_med_max": 3}],
    ids=["default", "eval-benchmark"],
)
def test_written_dataset_bytes_do_not_depend_on_how_the_mask_is_computed(tmp_path, monkeypatch, overrides):
    cfg = WaterwayConfig(**overrides)
    write_dataset(tmp_path / "row.vcds", generate_scenario(cfg, seed=13))
    monkeypatch.setattr("vesselcast.data.generate._channel_mask", _channel_mask_all_at_once)
    write_dataset(tmp_path / "all.vcds", generate_scenario(cfg, seed=13))
    assert (tmp_path / "row.vcds").read_bytes() == (tmp_path / "all.vcds").read_bytes()


def test_channel_mask_allocates_one_raster_row_of_differences_at_a_time():
    """At raster 64 the all-at-once differences are 33.5 MB; a row's x and y differences are 0.26 MB each."""
    tracemalloc.start()
    try:
        _channel_mask(WaterwayConfig(raster_size=64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


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
    assert all(s.ais_mask.all() for s in same)
    dark = apply_dark_vessels(samples, 1.0, seed=1)
    assert all(not s.ais_mask.any() for s in dark)
    for before, after in zip(samples, dark):
        assert np.array_equal(before.fut_ais, after.fut_ais)
        assert np.array_equal(before.obs_ais, after.obs_ais)  # coordinates untouched


def test_dark_vessels_count_and_determinism():
    cfg = small_cfg(vessel_count=20)
    samples = generate_scenario(cfg, seed=7)
    d1 = apply_dark_vessels(samples, 0.3, seed=5)
    d2 = apply_dark_vessels(list(reversed(samples)), 0.3, seed=5)
    picked1 = {s.vessel_id for s in d1 if not s.ais_mask.any()}
    picked2 = {s.vessel_id for s in d2 if not s.ais_mask.any()}
    assert len(picked1) == 6
    assert picked1 == picked2  # input order must not matter


def test_dataset_round_trip(tmp_path):
    cfg = small_cfg(ais_noise=0.004, pixel_noise=0.01, vessel_count=10)
    samples = generate_scenario(cfg, seed=13)
    path = tmp_path / "d.vcds"
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
    path2 = tmp_path / "d2.vcds"
    write_dataset(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_read_rasters_are_read_only_rows_of_one_buffer(tmp_path):
    """A pool read from one file holds its rasters once: sample i's rasters
    are row i of one read-only block over the file's bytes, not a copy."""
    samples = generate_scenario(small_cfg(vessel_count=4), seed=2)
    path = tmp_path / "d.vcds"
    write_dataset(path, samples)
    back = read_dataset(path)
    assert not any(s.rasters.flags.writeable for s in back)
    with pytest.raises(ValueError, match="read-only"):
        back[0].rasters[0, 0, 0, 0] = 1.0
    first = back[0].rasters
    assert all(s.rasters.base is first.base for s in back)
    assert [s.rasters.ctypes.data - first.ctypes.data for s in back] == [i * first.nbytes for i in range(len(back))]


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.vcds"
    path.write_text("")
    assert read_dataset(path) == []
    write_dataset(path, [])
    assert path.read_bytes() == b""


_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header byte length


def _corrupt(path, edit):
    """Rewrite the dataset at `path` after edit(header, block); `block` is a
    writable copy of the rasters, and the edit returns the block to store."""
    blob = path.read_bytes()
    magic, version, head_len = _PREAMBLE.unpack_from(blob)
    header = json.loads(blob[_PREAMBLE.size:_PREAMBLE.size + head_len])
    block = np.frombuffer(blob, "<f4", offset=_PREAMBLE.size + head_len).reshape(header["shape"]).copy()
    block = edit(header, block)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    path.write_bytes(_PREAMBLE.pack(magic, version, len(head)) + head + block.tobytes())


def test_missing_field_names_record(tmp_path):
    cfg = small_cfg(vessel_count=3)
    samples = generate_scenario(cfg, seed=1)
    path = tmp_path / "bad.vcds"
    write_dataset(path, samples)

    def drop_future(header, block):
        del header["records"][1]["fut_ais"]
        return block

    _corrupt(path, drop_future)
    with pytest.raises(DatasetFormatError, match="record 1: bad field 'fut_ais' \\(missing\\)"):
        read_dataset(path)


def test_a_repeated_vessel_id_names_the_record_and_the_id(tmp_path):
    """Noise streams and dark selection are keyed by the vessel_id, so a file
    in which two records share one is refused where it is read, with its path."""
    path = tmp_path / "twins.vcds"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))

    def twins(header, block):  # write_dataset refuses them, so they are edited in
        for i in (0, 2):
            header["records"][i]["vessel_id"] = "twin"
        return block

    _corrupt(path, twins)
    with pytest.raises(DatasetFormatError, match=r"^dataset record 2: bad field 'vessel_id' "
                                                 r"\(repeats 'twin' of record 0\)") as info:
        read_dataset(path)
    assert info.value.path == path


def test_writing_a_repeated_vessel_id_fails_naming_both_samples_before_any_byte(tmp_path):
    """No file is written that `read_dataset` would refuse."""
    samples = [dataclasses.replace(s, vessel_id="twin") if i in (1, 3) else s
               for i, s in enumerate(generate_scenario(small_cfg(vessel_count=4), seed=1))]
    path = tmp_path / "twins.vcds"
    with pytest.raises(FieldError, match=r"^vessel_id of sample 3 repeats 'twin' of sample 1$"):
        write_dataset(path, samples)
    assert not path.exists()


def _two_channel_raster(header, block):
    header["shape"][2] = 2
    return block[:, :, :2]


def _inverted_bbox(header, block):
    boxes = header["records"][1]["boxes"]
    x0, y0, x1, y1 = boxes[0]
    boxes[0] = [x1, y0, x0, y1]
    return block


def _short_mask(header, block):
    rec = header["records"][1]
    rec["ais_mask"] = rec["ais_mask"][:-1]
    return block


def _nan_raster(header, block):
    block[1, 1, 0, 0, 5] = np.nan
    return block


def _short_cctv(header, block):
    rec = header["records"][1]
    rec["obs_cctv"] = rec["obs_cctv"][:-1]
    return block


def _short_scenes(header, block):
    """One observed step more than the record has frames."""
    rec = header["records"][1]
    for key in ("obs_ais", "ais_mask", "obs_cctv"):
        rec[key].append(rec[key][-1])
    return block


def _empty_scenes(header, block):
    header["shape"][1] = 0
    return block[:, :0]


def _short_future_cctv(header, block):
    rec = header["records"][1]
    rec["fut_cctv"] = rec["fut_cctv"][:-1]
    return block


def _all_nan_future(header, block):
    rec = header["records"][1]
    rec["fut_ais"] = [[float("nan"), float("nan")] for _ in rec["fut_ais"]]
    return block


def _three_column_track(header, block):
    rec = header["records"][1]
    rec["obs_cctv"] = [p + [0.0] for p in rec["obs_cctv"]]
    return block


def _nan_camera_step(header, block):
    header["records"][1]["obs_cctv"][1] = [float("nan"), 0.0]
    return block


def _nan_broadcast_step(header, block):
    rec = header["records"][1]
    rec["ais_mask"][1] = True
    rec["obs_ais"][1] = [0.0, float("nan")]
    return block


def _smaller_second_frame(header, block):
    """Record 1's second frame stored one row and one column short."""
    return np.concatenate([block[:1].ravel(), block[1, :1].ravel(), block[1, 1, :, :-1, :-1].ravel(),
                           block[1, 2:].ravel(), block[2:].ravel()])


# these edits reshape the whole block, so the file fails as a whole, or at
# its first record; every other edit breaks record 1 alone
_BLOCK_WIDE = {_two_channel_raster: "dataset record 0", _empty_scenes: "dataset", _smaller_second_frame: "dataset"}


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
    path = tmp_path / "bad.vcds"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))
    _corrupt(path, edit)
    where = _BLOCK_WIDE.get(edit, "dataset record 1")
    with pytest.raises(DatasetFormatError, match=rf"^{where}: bad field '{field}'"):
        read_dataset(path)


def _set_bytes(offset, value):
    return lambda blob: blob[:offset] + value + blob[offset + len(value):]


def _header_text(edit_text):
    """Replace the header by edit_text(header text), fixing its declared length."""
    def edit(blob):
        (n,) = struct.unpack_from("<Q", blob, 8)
        head = edit_text(blob[16:16 + n].decode("utf-8")).encode("utf-8")
        return blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + n:]
    return edit


def _first_record_a_list(text):
    header = json.loads(text)
    header["records"][0] = []
    return json.dumps(header)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set_bytes(0, b"VCDX"), r"^dataset: bad field 'magic' \(got b'VCDX'", id="magic"),
        pytest.param(lambda blob: blob[:10], r"^dataset: bad field 'magic' \(the file holds 10 bytes",
                     id="short-preamble"),
        pytest.param(_set_bytes(4, struct.pack("<I", 3)), r"^dataset: bad field 'version' \(got 3, only 2 is read\)",
                     id="version"),
        pytest.param(_set_bytes(8, struct.pack("<Q", 1 << 40)),
                     r"^dataset: bad field 'header' \(declares 1099511627776 bytes", id="header-length"),
        pytest.param(_set_bytes(17, b"\xff"), r"^dataset: bad field 'header' \(.*utf-8", id="header-not-utf8"),
        pytest.param(_header_text(lambda text: text[:-40]), r"^dataset: bad field 'header'", id="header-not-json"),
        pytest.param(_header_text(lambda text: "[" + text + "]"),
                     r"^dataset: bad field 'header' \(a list, not an object\)", id="header-not-object"),
        pytest.param(_header_text(lambda text: text.replace('"records"', '"recs"')),
                     r"^dataset: bad field 'records' \(missing\)", id="records-missing"),
        pytest.param(_header_text(lambda text: text.replace('"shape":[3,', '"shape":[2,')),
                     r"^dataset: bad field 'records' \(must be a list of 2 records", id="records-count"),
        pytest.param(_header_text(lambda text: text.replace('"shape":[3,', '"shape":[3.0,')),
                     r"^dataset: bad field 'shape' \(must be 5 non-negative ints", id="shape-float"),
        pytest.param(_header_text(lambda text: text.replace('"shape":[3,', '"shape":[3,1,')),
                     r"^dataset: bad field 'shape' \(must be 5 non-negative ints", id="shape-rank"),
        pytest.param(lambda blob: blob[:-4],
                     r"^dataset: bad field 'scenes.raster' \(the block holds \d+ bytes; .* needs \d+\)",
                     id="block-short"),
        pytest.param(lambda blob: blob + b"\0" * 4,
                     r"^dataset: bad field 'scenes.raster' \(4 trailing bytes after the block", id="trailing-bytes"),
        pytest.param(_header_text(_first_record_a_list),
                     r"^dataset record 0: bad field '<record>' \(a list, not an object\)", id="record-not-object"),
        pytest.param(_header_text(lambda text: text.replace('"vessel_id":"v0001",', "", 1)),
                     r"^dataset record 1: bad field 'vessel_id' \(missing\)", id="record-field-missing"),
        pytest.param(_header_text(lambda text: text.replace('"density":', '"density":7,"x":', 1)),
                     r"^dataset record 0: bad field 'density' \(got 7\)", id="record-density"),
        pytest.param(_header_text(lambda text: text.replace('"boxes":', '"boxes":{},"x":', 1)),
                     r"^dataset record 0: bad field 'boxes' \(.*float", id="record-boxes-object"),
        pytest.param(_header_text(lambda text: text.replace('"ais_mask":', '"ais_mask":true,"x":', 1)),
                     r"^dataset record 0: bad field 'ais_mask' \(must have 1 axes, got shape \(\)\)",
                     id="record-mask-scalar"),
    ],
)
def test_a_bad_file_fails_naming_the_field(tmp_path, edit, message):
    """Defects of the preamble, header and block; a file-wide one names no record."""
    path = tmp_path / "bad.vcds"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset(path)


def test_a_record_with_a_stale_is_dark_key_reads_with_its_mask_as_stored(tmp_path):
    """Darkness is an all-false `ais_mask`; an `is_dark` key that older files
    carry is ignored, even where it contradicts the mask."""
    samples = generate_scenario(small_cfg(vessel_count=3), seed=1)
    assert all(s.ais_mask.all() for s in samples)
    path = tmp_path / "stale.vcds"
    write_dataset(path, samples)
    path.write_bytes(_header_text(lambda text: text.replace('"density":', '"is_dark":true,"density":'))(
        path.read_bytes()))
    assert path.read_bytes().count(b'"is_dark":true') == 3
    back = read_dataset(path)
    for before, after in zip(samples, back):
        assert np.array_equal(after.ais_mask, before.ais_mask)
        assert np.array_equal(after.obs_ais, before.obs_ais)
        assert not hasattr(after, "is_dark")


def test_a_v1_json_lines_file_fails_naming_the_format(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text('{"vessel_id":"v0000","density":"low","is_dark":false,"scenes":[]}\n')
    with pytest.raises(DatasetFormatError, match="bad field 'magic' \\(a v1 JSON-lines dataset; regenerate it "
                                                 "with `vesselcast generate`\\)"):
        read_dataset(path)


def test_writing_rasters_of_different_shapes_fails_naming_the_vessel(tmp_path):
    samples = generate_scenario(small_cfg(vessel_count=3), seed=1)
    samples[2] = dataclasses.replace(samples[2], rasters=samples[2].rasters[:, :, :-1, :-1])
    path = tmp_path / "ragged.vcds"
    with pytest.raises(FieldError, match=r"scenes.raster of vessel v0002 has shape \(4, 3, 15, 15\), "
                                         r"not \(4, 3, 16, 16\) as vessel v0000"):
        write_dataset(path, samples)
    assert not path.exists()


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
    path = tmp_path / "masked.vcds"
    write_dataset(path, generate_scenario(small_cfg(vessel_count=3), seed=1))

    def nan_at_masked_step(header, block):
        rec = header["records"][1]
        rec["ais_mask"][0] = False
        rec["obs_ais"][0] = [float("nan"), float("nan")]
        return block

    _corrupt(path, nan_at_masked_step)
    sample = read_dataset(path)[1]
    assert not sample.ais_mask[0] and np.isnan(sample.obs_ais[0]).all()


def test_every_truncation_and_flip_of_a_dataset_reads_or_fails_naming_the_record(tmp_path, micro_samples):
    """Each truncation of a one-vessel file, and the 0x01 and 0x80 flip of
    each of its bytes, reads or raises DatasetFormatError; never a raw
    decode, json, struct or numpy error."""
    path = tmp_path / "one.vcds"
    write_dataset(path, micro_samples[:1])
    for _ in corrupt_in_place(path, masks=(0x01, 0x80)):
        try:
            read_dataset(path)
        except DatasetFormatError as exc:
            where = "dataset" if exc.record is None else f"dataset record {exc.record}"
            assert str(exc).startswith(f"{where}: bad field")
