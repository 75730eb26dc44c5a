"""Run configuration and the flat `key = value` config-file format."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .data.types import FieldError, WaterwayConfig
from .hashutil import config_fingerprint


@dataclass
class TrainConfig:
    # optimization
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 16
    scheduler_factor: float = 0.5
    scheduler_patience: int = 10
    scheduler_threshold: float = 1e-4  # relative improvement below this is a plateau
    seed: int = 0
    kl_weight: float = 0.01
    # windows and modes
    t_obs: int = 8
    t_fut: int = 12
    modes: int = 5
    # model dimensions
    d_model: int = 32
    heads: int = 2
    latent_dim: int = 16
    stem_channels: tuple[int, int, int] = (8, 16, 16)
    roi_size: int = 7
    bbox_dim: int = 64
    raster_size: int = 64  # side of every scene raster; the data must match
    decay: float = 0.1
    # bank refinement (the bank's size is set when it is built)
    offset_scale: float = 0.5
    offset_hidden: int = 64
    # modality ablations
    use_cctv: bool = True
    use_scene: bool = True

    def validate(self) -> None:
        """Reject a value no run can use, naming its field; every comparison
        is written so that a NaN fails it."""
        for name in ("epochs", "batch_size", "t_obs", "t_fut", "modes", "d_model", "heads",
                     "latent_dim", "roi_size", "bbox_dim", "raster_size", "offset_hidden"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "must be positive")
        if self.d_model % 2 != 0 or self.d_model % self.heads != 0:
            raise FieldError("d_model", f"must be even and divisible by heads={self.heads}, got {self.d_model}")
        if len(self.stem_channels) != 3 or min(self.stem_channels) <= 0:
            raise FieldError("stem_channels", f"must be 3 positive channel counts, got {self.stem_channels!r}")
        rules = (
            ("lr", 0 < self.lr < math.inf, "must be finite and positive"),
            ("kl_weight", 0 <= self.kl_weight < math.inf, "must be finite and >= 0"),
            # temporal_context weights frames by exp(-decay * age), which must lie in (0, 1]
            ("decay", 0 <= self.decay < math.inf, "must be finite and >= 0"),
            ("offset_scale", math.isfinite(self.offset_scale), "must be finite"),
            ("scheduler_factor", 0 < self.scheduler_factor < 1, "must be in (0, 1)"),
            ("scheduler_patience", self.scheduler_patience >= 1, "must be >= 1"),
            ("scheduler_threshold", 0 <= self.scheduler_threshold < math.inf, "must be finite and >= 0"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise FieldError(name, f"{rule}, got {getattr(self, name)!r}")


# fields that define the parameter layout and forward semantics; their
# fingerprint is stored in checkpoints and re-checked on load
ARCHITECTURE_FIELDS = (
    "t_obs",
    "t_fut",
    "modes",
    "d_model",
    "heads",
    "latent_dim",
    "stem_channels",
    "roi_size",
    "bbox_dim",
    "raster_size",
    "decay",
    "offset_scale",
    "offset_hidden",
    "use_cctv",
    "use_scene",
)


def architecture_text(cfg: TrainConfig) -> str:
    return "".join(f"{name} = {getattr(cfg, name)!r}\n" for name in ARCHITECTURE_FIELDS)


def architecture_hash(cfg: TrainConfig) -> int:
    return config_fingerprint(architecture_text(cfg))


def parse_flat(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str, target_type):
    origin = typing.get_origin(target_type)
    if origin in (tuple, list):
        args = typing.get_args(target_type)
        elem = args[0] if args else str
        parts = [v.strip() for v in value.split(",") if v.strip()]
        return tuple(_coerce(v, elem) for v in parts)
    if target_type is bool:
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    return value


def config_from_mapping(cls, mapping: dict[str, str]):
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(mapping) - known
    if unknown:
        raise ValueError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = _coerce(value, hints[key])
        except ValueError as e:
            expected = hints[key].__name__ if isinstance(hints[key], type) else str(hints[key])
            raise ValueError(f"{cls.__name__} key '{key}': cannot parse {value!r} as {expected} ({e})") from e
    return cls(**kwargs)


def _load_config(cls, path: str | Path | None):
    """The validated `cls` config of the flat file at `path`, or the defaults
    when it is None; any fault in the file is a FieldError naming the file."""
    if path is None:
        return cls()
    try:
        cfg = config_from_mapping(cls, parse_flat(Path(path).read_text(encoding="utf-8")))
        cfg.validate()
    except ValueError as e:
        raise FieldError(str(path), f"is not a valid {cls.__name__} file: {e}") from e
    return cfg


def load_train_config(path: str | Path | None) -> TrainConfig:
    return _load_config(TrainConfig, path)


def load_waterway_config(path: str | Path | None) -> WaterwayConfig:
    return _load_config(WaterwayConfig, path)
