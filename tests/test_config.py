import ast
import dataclasses
import math
import re
from pathlib import Path

import pytest

import vesselcast
from vesselcast.config import (
    TrainConfig,
    architecture_hash,
    config_from_mapping,
    load_train_config,
    parse_flat,
)
from vesselcast.data.types import FieldError, WaterwayConfig


def test_parse_flat_comments_and_blanks():
    text = "a = 1\n\n# comment\nb = two  # trailing\n"
    assert parse_flat(text) == {"a": "1", "b": "two"}


def test_parse_flat_rejects_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_flat("a = 1\nnot a pair\n")


def test_coercion_types():
    cfg = config_from_mapping(
        TrainConfig,
        {"lr": "0.002", "epochs": "7", "use_cctv": "false", "stem_channels": "4, 8, 8"},
    )
    assert cfg.lr == 0.002
    assert cfg.epochs == 7
    assert cfg.use_cctv is False
    assert cfg.stem_channels == (4, 8, 8)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_mapping(TrainConfig, {"nope": "1"})


@pytest.mark.parametrize("key", ["bank_clusters", "use_bank", "fusion_direction"])
def test_removed_keys_rejected(key):
    with pytest.raises(ValueError, match=f"unknown config keys for TrainConfig: \\['{key}'\\]"):
        config_from_mapping(TrainConfig, {key: "1"})


def test_every_train_field_is_read():
    """Each TrainConfig field is read as an attribute by some package module
    other than config.py. The data package is left out: it reads
    WaterwayConfig, whose fields share some of these names."""
    package = Path(vesselcast.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        if path.name == "config.py" or "data" in path.relative_to(package).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in read]
    assert not unread, f"TrainConfig fields no module reads: {unread}"


def test_validation_rejects_odd_d():
    cfg = TrainConfig(d_model=7, heads=7)
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("heads", 0),
        ("stem_channels", (8, 16)),
        ("stem_channels", (8, 0, 16)),
        ("raster_size", 0),
        ("roi_size", 0),
        ("bbox_dim", 0),
        ("offset_hidden", 0),
    ],
)
def test_validation_rejects_a_bad_dimension_naming_it(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        cfg.validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr", math.nan),
        ("lr", math.inf),
        ("lr", 0.0),
        ("kl_weight", math.nan),
        ("kl_weight", -1.0),
        ("kl_weight", math.inf),
        ("decay", math.nan),
        ("decay", -0.1),
        ("offset_scale", math.inf),
        ("offset_scale", math.nan),
        ("scheduler_factor", math.nan),
        ("scheduler_factor", 2.0),
        ("scheduler_factor", 1.0),
        ("scheduler_factor", 0.0),
        ("scheduler_threshold", math.nan),
        ("scheduler_threshold", -1e-4),
        ("scheduler_patience", 0),
    ],
)
def test_train_validation_names_the_field_no_run_can_use(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must .*, got {value!r}$"):
        TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize(
    "cls, key, value, expected",
    [
        (TrainConfig, "epochs", "1.5", "int"),
        (TrainConfig, "use_scene", "maybe", "bool"),
        (TrainConfig, "stem_channels", "(4,4,4)", "tuple[int, int, int]"),
        (TrainConfig, "lr", "fast", "float"),
        (WaterwayConfig, "vessel_count", "12.0", "int"),
        (WaterwayConfig, "amplitude", "0.1.2", "float"),
        (WaterwayConfig, "homography", "1, 0, x", "tuple[float, ...]"),
    ],
)
def test_an_unparsable_value_names_its_key_and_type(cls, key, value, expected):
    message = rf"^{cls.__name__} key '{key}': cannot parse {re.escape(repr(value))} as {re.escape(expected)} \("
    with pytest.raises(ValueError, match=message):
        config_from_mapping(cls, {key: value})


def test_architecture_hash_ignores_training_fields():
    a = TrainConfig(lr=1e-4, epochs=10)
    b = TrainConfig(lr=5e-3, epochs=99)
    assert architecture_hash(a) == architecture_hash(b)
    c = TrainConfig(d_model=16, latent_dim=8)
    assert architecture_hash(a) != architecture_hash(c)


def test_default_architecture_hash_is_pinned():
    # checkpoints store this fingerprint; a changed value would reject every saved file
    assert architecture_hash(TrainConfig()) == 4704665362604012


def test_waterway_validation():
    with pytest.raises(ValueError, match="halfwidth"):
        WaterwayConfig(channel_halfwidth=0.0).validate()
    with pytest.raises(ValueError, match="invertible"):
        WaterwayConfig(homography=(1, 0, 0, 2, 0, 0, 3, 0, 0)).validate()
    with pytest.raises(ValueError, match="invertible"):
        WaterwayConfig(homography=(float("nan"), 0, 0, 0, 1, 0, 0, 0, 1)).validate()


NAN = float("nan")


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(period=0.0), "period"),
        (dict(period=NAN), "period"),
        (dict(frame_w=0.0), "frame_w"),
        (dict(frame_h=NAN), "frame_h"),
        (dict(ais_noise=-0.01), "ais_noise"),
        (dict(pixel_noise=NAN), "pixel_noise"),
        (dict(speed_min=0.05), "speed_min"),
        (dict(speed_min=-0.01), "speed_min"),
        (dict(speed_max=NAN), "speed_min"),
        (dict(maneuver_prob=1.5), "maneuver_prob"),
        (dict(maneuver_prob=NAN), "maneuver_prob"),
        (dict(bbox_half=40.0, raster_size=16), "bbox_half"),
        (dict(bbox_half=0.0), "bbox_half"),
        (dict(density_radius=NAN), "density_radius"),
        (dict(density_radius=-0.1), "density_radius"),
        (dict(density_low_max=6), "density_low_max"),
        (dict(channel_halfwidth=NAN), "channel_halfwidth"),
        (dict(amplitude=NAN), "amplitude"),
        (dict(raster_size=0), "raster_size"),
        (dict(homography=(1.0, 0.0, 0.0)), "homography"),
        (dict(homography=(1, 0, 0, 2, 0, 0, 3, 0, 0)), "homography"),
        (dict(homography=(NAN, 0, 0, 0, 1, 0, 0, 0, 1)), "homography"),
        (dict(centerline="spiral"), "centerline"),
        (dict(vessel_count=0), "vessel_count"),
        (dict(t_obs=0), "t_obs"),
        (dict(t_fut=0), "t_fut"),
        (dict(t_fut=NAN), "t_fut"),
    ],
)
def test_waterway_validation_names_the_field_no_scenario_can_use(overrides, field):
    with pytest.raises(FieldError, match=rf"^{field} must") as err:
        WaterwayConfig(**overrides).validate()
    assert err.value.field == field


def test_a_non_sine_centerline_needs_no_period():
    WaterwayConfig(centerline="arc", period=0.0).validate()


def test_load_train_config_defaults(tmp_path):
    cfg = load_train_config(None)
    assert cfg.lr == 1e-4
    assert cfg.scheduler_factor == 0.5
    assert cfg.scheduler_patience == 10
    assert cfg.kl_weight == 0.01
    assert cfg.latent_dim == 16
    path = tmp_path / "c.cfg"
    path.write_text("lr = 3e-3\nepochs = 2\n")
    cfg2 = load_train_config(path)
    assert cfg2.lr == 3e-3 and cfg2.epochs == 2
