"""Dataset persistence: one file holds a pool of vessel samples.

Layout (integers little-endian):

    magic       4 bytes  b"VCDS"
    version     u32      2
    header_len  u64      byte length of the header
    header      UTF-8 JSON object, padded with spaces so that the block
                starts at a multiple of 8 bytes (the raster views are
                then aligned)
    block       float32 little-endian, C order, of the header's `shape`
                (V, T, 3, H, W): every vessel's rasters, one row per vessel

The header holds `shape` and `records`, one object per vessel in block row
order with every field but the rasters: `vessel_id`, `density`, `obs_ais`,
`ais_mask`, `obs_cctv`, `fut_ais`, `fut_cctv` and `boxes`; a key outside
these is ignored. A dark vessel is one whose `ais_mask` is all false. Floats
serialize via repr, so write -> read -> write is byte-identical. A sample
read back holds row i of the block as its `rasters`: a read-only view of the
file's bytes, not a copy, so a pool read from one file holds its rasters
once, in those bytes (`parse_dataset` decodes bytes a caller already holds).
A 0-byte file is the empty pool. Version 1, one JSON line per vessel with
base64 rasters, is not read; such a file fails naming the format.

There is no checksum. Every single-bit flip either reads or fails naming the
field: a flip in the block reads as another float32 or fails as a
non-finite `scenes.raster`, and one in the preamble or header breaks the
magic, the version, the header's JSON or one of the rules checked here or
by `VesselSample.validate`.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .types import FieldError, VesselSample

MAGIC = b"VCDS"
VERSION = 2
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header byte length
_ALIGN = 8
_FIELDS = ("vessel_id", "density", "obs_ais", "ais_mask", "obs_cctv", "fut_ais", "fut_cctv", "boxes")


class DatasetFormatError(ValueError):
    """A dataset file that cannot be right; `record` is the index of the
    vessel record at fault, or None for the file as a whole."""

    def __init__(self, record: int | None, field: str, detail: str = ""):
        self.record = record
        self.field = field
        self.path = None  # the file, where the reader was given one
        where = "dataset" if record is None else f"dataset record {record}"
        msg = f"{where}: bad field '{field}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _floats(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=np.float64).tolist()


def _record(s: VesselSample) -> dict:
    return {
        "vessel_id": s.vessel_id,
        "density": s.density,
        "obs_ais": _floats(s.obs_ais),
        "ais_mask": np.asarray(s.ais_mask, dtype=bool).tolist(),
        "obs_cctv": _floats(s.obs_cctv),
        "fut_ais": _floats(s.fut_ais),
        "fut_cctv": _floats(s.fut_cctv),
        "boxes": _floats(s.boxes),
    }


def write_dataset(path: str | Path, samples: list[VesselSample]) -> None:
    """Write `samples` as one file that `read_dataset` reads back; rasters of two
    shapes or a repeated `vessel_id` fail naming both vessels, before any byte."""
    if not samples:
        Path(path).write_bytes(b"")
        return
    first, seen = samples[0], {}
    for i, s in enumerate(samples):
        if s.rasters.shape != first.rasters.shape:
            raise FieldError("scenes.raster", f"of vessel {s.vessel_id} has shape {s.rasters.shape}, "
                             f"not {first.rasters.shape} as vessel {first.vessel_id}")
        if seen.setdefault(s.vessel_id, i) != i:
            raise FieldError("vessel_id", f"of sample {i} repeats {s.vessel_id!r} of sample {seen[s.vessel_id]}")
    block = np.stack([s.rasters for s in samples]).astype("<f4", copy=False)
    header = {"shape": list(block.shape), "records": [_record(s) for s in samples]}
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head += b" " * (-(_PREAMBLE.size + len(head)) % _ALIGN)
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(MAGIC, VERSION, len(head)))
        fh.write(head)
        fh.write(block)


def _array(record: dict, index: int, key: str, dtype, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(record[key], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(index, key, str(e)) from e
    if arr.ndim != ndim:
        raise DatasetFormatError(index, key, f"must have {ndim} axes, got shape {arr.shape}")
    return arr


def _header(blob: bytes) -> tuple[list[int], list, int]:
    """The checked header of a non-empty file: (shape, records, block offset)."""
    if blob[:1] == b"{":
        raise DatasetFormatError(None, "magic", "a v1 JSON-lines dataset; regenerate it with `vesselcast generate`")
    if len(blob) < _PREAMBLE.size:
        raise DatasetFormatError(None, "magic", f"the file holds {len(blob)} bytes, short of the preamble")
    magic, version, head_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise DatasetFormatError(None, "magic", f"got {bytes(magic)!r}, not {MAGIC!r}")
    if version != VERSION:
        raise DatasetFormatError(None, "version", f"got {version}, only {VERSION} is read")
    start = _PREAMBLE.size + head_len
    if start > len(blob):
        raise DatasetFormatError(None, "header", f"declares {head_len} bytes; "
                                 f"{len(blob) - _PREAMBLE.size} follow the preamble")
    try:
        header = json.loads(blob[_PREAMBLE.size:start].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError alike
        raise DatasetFormatError(None, "header", str(e)) from e
    if not isinstance(header, dict):
        raise DatasetFormatError(None, "header", f"a {type(header).__name__}, not an object")
    for key in ("shape", "records"):
        if key not in header:
            raise DatasetFormatError(None, key, "missing")
    shape, records = header["shape"], header["records"]
    if not (isinstance(shape, list) and len(shape) == 5 and all(type(n) is int and n >= 0 for n in shape)):
        raise DatasetFormatError(None, "shape", f"must be 5 non-negative ints (V, T, 3, H, W), got {shape!r}")
    if not (isinstance(records, list) and len(records) == shape[0]):
        raise DatasetFormatError(None, "records", f"must be a list of {shape[0]} records, one per block row")
    if shape[1] == 0:
        raise DatasetFormatError(None, "scenes", "holds no frames")
    need, have = 4 * math.prod(shape), len(blob) - start
    if have < need:
        raise DatasetFormatError(None, "scenes.raster", f"the block holds {have} bytes; shape {shape} needs {need}")
    if have > need:
        raise DatasetFormatError(None, "scenes.raster", f"{have - need} trailing bytes after the block of shape {shape}")
    return shape, records, start


def read_dataset(path: str | Path) -> list[VesselSample]:
    """Read and check a dataset file: `parse_dataset` of its bytes."""
    return parse_dataset(Path(path).read_bytes(), path)


def parse_dataset(blob: bytes, path: str | Path | None = None) -> list[VesselSample]:
    """Decode and check the bytes of a dataset file, the one at `path` if
    given. Every defect raises DatasetFormatError naming the field, and the
    record for a per-vessel one, with its `path` set; each sample also passes
    `VesselSample.validate`, and no two share a `vessel_id`. The samples'
    rasters are read-only views of `blob`, which they keep alive."""
    try:
        return _samples(blob)
    except DatasetFormatError as e:
        e.path = path
        raise


def _samples(blob: bytes) -> list[VesselSample]:
    if not blob:
        return []
    shape, records, start = _header(blob)
    block = np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=start).reshape(shape)
    samples, first_record = [], {}
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise DatasetFormatError(i, "<record>", f"a {type(record).__name__}, not an object")
        for key in _FIELDS:
            if key not in record:
                raise DatasetFormatError(i, key, "missing")
        vessel_id = str(record["vessel_id"])
        if first_record.setdefault(vessel_id, i) != i:
            raise DatasetFormatError(i, "vessel_id", f"repeats {vessel_id!r} of record {first_record[vessel_id]}")
        sample = VesselSample(
            vessel_id=vessel_id,
            obs_ais=_array(record, i, "obs_ais", np.float64, 2),
            ais_mask=_array(record, i, "ais_mask", bool, 1),
            obs_cctv=_array(record, i, "obs_cctv", np.float64, 2),
            rasters=block[i],
            boxes=_array(record, i, "boxes", np.float64, 2),
            fut_ais=_array(record, i, "fut_ais", np.float64, 2),
            fut_cctv=_array(record, i, "fut_cctv", np.float64, 2),
            density=record["density"],
        )
        try:
            sample.validate()
        except FieldError as e:
            raise DatasetFormatError(i, e.field, e.detail) from e
        samples.append(sample)
    return samples
