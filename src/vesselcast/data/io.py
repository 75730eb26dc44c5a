"""JSON-lines dataset persistence.

One vessel sample per line, one `{raster, shape, bbox}` entry per scene frame
(the raster base64 of its little-endian float32 buffer); all other numbers are
plain JSON (floats serialize via repr, so write -> read -> write is
byte-identical).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .types import DENSITY_LEVELS, FieldError, VesselSample


class DatasetFormatError(ValueError):
    def __init__(self, line_no: int, field: str, detail: str = ""):
        self.line_no = line_no
        self.field = field
        msg = f"dataset line {line_no}: bad field '{field}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _points(arr: np.ndarray) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in arr]


def _encode_scene(raster: np.ndarray, bbox: np.ndarray) -> dict:
    raster = np.ascontiguousarray(raster, dtype="<f4")
    return {
        "raster": base64.b64encode(raster.tobytes()).decode("ascii"),
        "shape": list(raster.shape),
        "bbox": [float(v) for v in bbox],
    }


def write_dataset(path: str | Path, samples: list[VesselSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {
                "vessel_id": s.vessel_id,
                "density": s.density,
                "is_dark": bool(s.is_dark),
                "obs_ais": _points(s.obs_ais),
                "ais_mask": [bool(b) for b in s.ais_mask],
                "obs_cctv": _points(s.obs_cctv),
                "fut_ais": _points(s.fut_ais),
                "fut_cctv": _points(s.fut_cctv),
                "scenes": [_encode_scene(r, b) for r, b in zip(s.rasters, s.boxes)],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


_REQUIRED = (
    "vessel_id",
    "density",
    "is_dark",
    "obs_ais",
    "ais_mask",
    "obs_cctv",
    "fut_ais",
    "fut_cctv",
    "scenes",
)


def _decode_scenes(entries: list, line_no: int) -> tuple[np.ndarray, np.ndarray]:
    """A record's frame entries, one per step, as (T, C, H, W) rasters and (T, 4) boxes."""
    if not entries:
        raise DatasetFormatError(line_no, "scenes", "holds no frames")
    rasters, boxes = [], []
    for t, entry in enumerate(entries):
        for key in ("raster", "shape", "bbox"):
            if key not in entry:
                raise DatasetFormatError(line_no, f"scenes.{key}", f"missing at step {t}")
        shape = tuple(entry["shape"])
        raster = np.frombuffer(base64.b64decode(entry["raster"]), dtype="<f4")
        if raster.size != int(np.prod(shape)):
            raise DatasetFormatError(line_no, "scenes.raster", f"payload does not match shape {shape} at step {t}")
        if rasters and shape != rasters[0].shape:  # stored apart, frames can only be ragged here
            raise DatasetFormatError(line_no, "scenes.raster", f"at step {t} has shape {shape}, not {rasters[0].shape}")
        if len(entry["bbox"]) != 4:
            raise DatasetFormatError(line_no, "scenes.bbox", f"needs 4 values, got {len(entry['bbox'])} at step {t}")
        rasters.append(raster.reshape(shape))
        boxes.append([float(v) for v in entry["bbox"]])
    return np.stack(rasters), np.array(boxes, dtype=np.float64)


def read_dataset(path: str | Path) -> list[VesselSample]:
    samples = []
    # a line carries its base64 rasters (about 0.5 MB at the default size): a
    # large buffer keeps `readline` from joining a line out of many small chunks
    with open(path, "rb", buffering=1 << 20) as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DatasetFormatError(line_no, "<utf-8>", str(e)) from e
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(line_no, "<json>", str(e)) from e
            if not isinstance(record, dict):
                raise DatasetFormatError(line_no, "<json>", f"a {type(record).__name__}, not an object")
            for key in _REQUIRED:
                if key not in record:
                    raise DatasetFormatError(line_no, key, "missing")
            if record["density"] not in DENSITY_LEVELS:
                raise DatasetFormatError(line_no, "density", f"got '{record['density']}'")
            try:
                rasters, boxes = _decode_scenes(record["scenes"], line_no)
                sample = VesselSample(
                    vessel_id=str(record["vessel_id"]),
                    obs_ais=np.asarray(record["obs_ais"], dtype=np.float64),
                    ais_mask=np.asarray(record["ais_mask"], dtype=bool),
                    obs_cctv=np.asarray(record["obs_cctv"], dtype=np.float64),
                    rasters=rasters,
                    boxes=boxes,
                    fut_ais=np.asarray(record["fut_ais"], dtype=np.float64),
                    fut_cctv=np.asarray(record["fut_cctv"], dtype=np.float64),
                    density=record["density"],
                    is_dark=bool(record["is_dark"]),
                )
                sample.validate()
            except FieldError as e:
                raise DatasetFormatError(line_no, e.field, e.detail) from e
            except DatasetFormatError:
                raise
            except (TypeError, ValueError) as e:
                raise DatasetFormatError(line_no, "<record>", str(e)) from e
            samples.append(sample)
    return samples
