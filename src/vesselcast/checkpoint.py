"""Binary checkpoint format: the one container for fixed arrays, holding
model checkpoints (`save_model`) and trajectory banks (`bank.save_bank`).

Layout (all integers little-endian):

    magic    4 bytes  b"CMIV"
    version  u32          2, the only version written or read
    count    u32          number of tensors
    per tensor:
        name_len u32, name UTF-8 bytes
        rank     u32
        dims     rank x u64
        payload  prod(dims) x f64 little-endian
    checksum u64

The checksum is the 8-byte BLAKE2b digest of every byte before it (magic,
version, count, names, ranks, dims and payloads), stored as is, i.e. the
digest read as a little-endian u64. The reader verifies it before it parses
the tensor table, so a corrupt or truncated file fails as a checksum
mismatch before any name is decoded or any dim is trusted.

Tensor names are unique. A bank holds exactly the tensors "bank.obs" and
"bank.fut" (`bank.load_bank` checks the rest of its rules). A model
checkpoint also holds its architecture fingerprint as the reserved
1-element tensor "meta.architecture_hash" (an integer below 2^53, exact in
f64); the model loader requires it.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .hashutil import fnv1a64  # noqa: F401  unused here; perfbench's tracer patches this name

MAGIC = b"CMIV"
VERSION = 2
HASH_KEY = "meta.architecture_hash"
_HEADER = struct.Struct("<4sII")  # magic, version, count
_CHECKSUM_BYTES = 8


class CheckpointError(ValueError):
    """A checkpoint or bank file that cannot be right; the message names the path."""


def _digest(body) -> bytes:
    return hashlib.blake2b(body, digest_size=_CHECKSUM_BYTES).digest()


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    chunks = [_HEADER.pack(MAGIC, VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        n = len(encoded)
        chunks.append(struct.pack(f"<I{n}sI{arr.ndim}Q", n, encoded, arr.ndim, *arr.shape))
        chunks.append(arr)  # joined from the array's buffer, not a copy of it
    body = b"".join(chunks)
    with open(path, "wb") as f:
        f.write(body)
        f.write(_digest(body))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read and verify a checkpoint; returns its tensors by name.

    Every defect, a repeated tensor name included, raises CheckpointError
    naming the path.
    """
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated at byte {len(blob)}")
    magic, version, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"checkpoint {path} has bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported version {version}")
    if _digest(view[:-_CHECKSUM_BYTES]) != blob[-_CHECKSUM_BYTES:]:
        raise CheckpointError(f"checkpoint {path} checksum mismatch: the file is corrupt or truncated")
    pos = _HEADER.size

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"checkpoint {path} is truncated at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint {path}: field 'name' of tensor {i} is not UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank)) if rank else ()
        size = 1
        for dim in dims:
            size *= dim
        payload = take(8 * size)
        if name in tensors:
            raise CheckpointError(f"checkpoint {path}: tensor name '{name}' is repeated at tensor {i}")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {path}: field 'dims' of tensor '{name}' is invalid: {dims}"
            ) from exc
    take(_CHECKSUM_BYTES)
    if pos != len(blob):
        raise CheckpointError(f"checkpoint {path} has {len(blob) - pos} trailing bytes")
    return tensors


def save_model(path: str | Path, model) -> None:
    tensors = dict(model.state_arrays())
    tensors[HASH_KEY] = np.array([float(model.architecture_hash())])
    save_checkpoint(path, tensors)


def load_model(path: str | Path, cfg):
    """Instantiate a model from cfg and fill it from the checkpoint.

    Shape disagreements name the offending tensor; an architecture-hash
    mismatch with matching shapes means cfg differs in a non-shape field.
    The stored hash is required and must be exactly one finite, integer-valued entry.
    """
    from .model import Model

    tensors = load_checkpoint(path)
    stored_hash = tensors.pop(HASH_KEY, None)
    if stored_hash is None:
        raise CheckpointError(f"checkpoint {path} has no tensor '{HASH_KEY}'")
    if not (stored_hash.size == 1 and np.isfinite(stored_hash).all() and stored_hash.flat[0] % 1 == 0):
        raise CheckpointError(
            f"checkpoint {path}: tensor '{HASH_KEY}' must hold one finite integer, "
            f"got shape {stored_hash.shape} with values {stored_hash.ravel()[:4].tolist()}"
        )
    model = Model(cfg, seed=0)
    for name, param in model.named.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint {path} is missing tensor '{name}'")
        if tensors[name].shape != param.data.shape:
            raise CheckpointError(
                f"checkpoint {path}: tensor '{name}' has shape {tensors[name].shape}, "
                f"config expects {param.data.shape}"
            )
    extra = set(tensors) - set(model.named)
    if extra:
        raise CheckpointError(f"checkpoint {path} has unexpected tensors: {sorted(extra)}")
    if int(stored_hash.flat[0]) != model.architecture_hash():
        raise CheckpointError(
            f"checkpoint {path} was written under a different architecture config"
        )
    for name, param in model.named.items():
        param.data[...] = tensors[name]
    return model
