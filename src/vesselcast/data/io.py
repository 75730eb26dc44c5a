"""JSON-lines dataset persistence.

One vessel sample per line. Scene rasters are base64 of the little-endian
float32 buffer; all other numbers are plain JSON (floats serialize via repr,
so write -> read -> write is byte-identical).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .types import DENSITY_LEVELS, FieldError, SceneFrame, VesselSample


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


def _encode_scene(frame: SceneFrame) -> dict:
    raster = np.ascontiguousarray(frame.raster, dtype="<f4")
    return {
        "raster": base64.b64encode(raster.tobytes()).decode("ascii"),
        "shape": list(raster.shape),
        "bbox": [float(v) for v in frame.bbox],
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
                "scenes": [_encode_scene(fr) for fr in s.scenes],
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


def _decode_scene(entry: dict, line_no: int) -> SceneFrame:
    for key in ("raster", "shape", "bbox"):
        if key not in entry:
            raise DatasetFormatError(line_no, f"scenes.{key}", "missing")
    shape = tuple(entry["shape"])
    raw = base64.b64decode(entry["raster"])
    raster = np.frombuffer(raw, dtype="<f4")
    if raster.size != int(np.prod(shape)):
        raise DatasetFormatError(line_no, "scenes.raster", f"payload does not match shape {shape}")
    frame = SceneFrame(raster=raster.reshape(shape).copy(), bbox=tuple(float(v) for v in entry["bbox"]))
    try:
        frame.validate()
    except FieldError as e:
        raise DatasetFormatError(line_no, f"scenes.{e.field}", str(e)) from e
    return frame


def read_dataset(path: str | Path) -> list[VesselSample]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(line_no, "<json>", str(e)) from e
            for key in _REQUIRED:
                if key not in record:
                    raise DatasetFormatError(line_no, key, "missing")
            if record["density"] not in DENSITY_LEVELS:
                raise DatasetFormatError(line_no, "density", f"got '{record['density']}'")
            try:
                sample = VesselSample(
                    vessel_id=str(record["vessel_id"]),
                    obs_ais=np.asarray(record["obs_ais"], dtype=np.float64),
                    ais_mask=np.asarray(record["ais_mask"], dtype=bool),
                    obs_cctv=np.asarray(record["obs_cctv"], dtype=np.float64),
                    scenes=[_decode_scene(e, line_no) for e in record["scenes"]],
                    fut_ais=np.asarray(record["fut_ais"], dtype=np.float64),
                    fut_cctv=np.asarray(record["fut_cctv"], dtype=np.float64),
                    density=record["density"],
                    is_dark=bool(record["is_dark"]),
                )
                if len(sample.ais_mask) != len(sample.obs_ais):
                    raise DatasetFormatError(
                        line_no, "ais_mask", f"{len(sample.ais_mask)} flags for {len(sample.obs_ais)} obs_ais rows"
                    )
            except DatasetFormatError:
                raise
            except (TypeError, ValueError) as e:
                raise DatasetFormatError(line_no, "<record>", str(e)) from e
            samples.append(sample)
    return samples
