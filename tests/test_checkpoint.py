import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from conftest import micro_config
from vesselcast.checkpoint import (
    HASH_KEY,
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from vesselcast.engine import Rng
from vesselcast.model import Model


def _small_tensors() -> dict[str, np.ndarray]:
    return {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.0, 2.0])}


def test_round_trip_bit_exact(tmp_path):
    rng = Rng(1)
    tensors = {
        "a.w": np.array(rng.uniforms(12)).reshape(3, 4),
        "a.b": np.array(rng.uniforms(4)),
        "scalarish": np.array([rng.uniform()]),
        "deep": np.array(rng.uniforms(24)).reshape(2, 3, 4),
    }
    p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    save_checkpoint(p1, tensors)
    loaded = load_checkpoint(p1)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float64
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic_names_path(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(path, {"x": np.ones(3)})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad.bin"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.bin"
    save_checkpoint(path, {"x": np.ones(10)})
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_payload_corruption_fails_checksum(tmp_path):
    path = tmp_path / "flip.bin"
    save_checkpoint(path, {"x": np.ones(10)})
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_model_save_load_identity(tmp_path):
    cfg = micro_config()
    model = Model(cfg)
    path = tmp_path / "model.bin"
    save_model(path, model)
    loaded = load_model(path, cfg)
    for name, tens in model.named.items():
        assert np.array_equal(tens.data, loaded.named[name].data), name


def test_shape_mismatch_names_offending_tensor(tmp_path):
    cfg_big = micro_config(d_model=8)
    cfg_small = micro_config(d_model=4)
    model = Model(cfg_big)
    path = tmp_path / "big.bin"
    save_model(path, model)
    with pytest.raises(CheckpointError, match=r"shape"):
        load_model(path, cfg_small)
    # the error names a concrete tensor
    try:
        load_model(path, cfg_small)
    except CheckpointError as e:
        assert "." in str(e) and "(" in str(e)


def test_architecture_hash_mismatch(tmp_path):
    cfg_a = micro_config(decay=0.1)
    cfg_b = micro_config(decay=0.2)  # same shapes, different forward semantics
    model = Model(cfg_a)
    path = tmp_path / "arch.bin"
    save_model(path, model)
    with pytest.raises(CheckpointError, match="architecture"):
        load_model(path, cfg_b)


def _v2_blob(entries: list[tuple[str, np.ndarray]]) -> bytes:
    """The version-2 layout, built by hand from (name, array) pairs so that a
    name may repeat, with a valid checksum."""
    chunks = [struct.pack("<4sII", b"CMIV", 2, len(entries))]
    for name, arr in entries:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack(f"<I{len(encoded)}sI{arr.ndim}Q", len(encoded), encoded, arr.ndim, *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    return body + hashlib.blake2b(body, digest_size=8).digest()


@pytest.mark.parametrize("entry", ["empty", "nan", "fractional", "two-entries"])
def test_malformed_architecture_hash_fails_naming_it(tmp_path, entry):
    """A valid-checksum file whose hash entry is not exactly one finite integer is refused."""
    cfg = micro_config(decay=0.3)  # its hash is below 2^52, so hash + 0.5 keeps its fraction in f64
    model = Model(cfg)
    value = float(model.architecture_hash())
    assert (value + 0.5) % 1 == 0.5
    tensors = dict(model.state_arrays())
    tensors[HASH_KEY] = {
        "empty": np.array([]),
        "nan": np.array([np.nan]),
        "fractional": np.array([value + 0.5]),
        "two-entries": np.array([value, value]),
    }[entry]
    path = tmp_path / "hash.bin"
    save_checkpoint(path, tensors)
    with pytest.raises(CheckpointError, match=HASH_KEY):
        load_model(path, cfg)


def test_missing_architecture_hash_fails_naming_it(tmp_path):
    """A checkpoint without its architecture hash cannot show which config it
    was trained under, so it does not load, even under a config whose shapes fit."""
    cfg = micro_config()
    path = tmp_path / "nohash.bin"
    save_checkpoint(path, Model(cfg).state_arrays())
    for other in (cfg, dataclasses.replace(cfg, use_cctv=False, decay=0.7, offset_scale=3.0)):
        with pytest.raises(CheckpointError, match=HASH_KEY):
            load_model(path, other)


def test_repeated_tensor_name_fails_naming_it(tmp_path):
    """A second copy of a tensor may not silently replace the first."""
    cfg = micro_config()
    model = Model(cfg)
    entries = list(model.state_arrays().items())
    entries.append((HASH_KEY, np.array([float(model.architecture_hash())])))
    path = tmp_path / "twice.bin"
    path.write_bytes(_v2_blob(entries))
    load_model(path, cfg)  # the hand-built file is valid without the repeat
    entries.insert(1, ("scene.stem1.kernel", np.zeros_like(model.named["scene.stem1.kernel"].data)))
    path.write_bytes(_v2_blob(entries))
    with pytest.raises(CheckpointError, match="'scene.stem1.kernel' is repeated"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="'scene.stem1.kernel' is repeated"):
        load_model(path, cfg)


def test_unknown_version_rejected_naming_it(tmp_path):
    """Version 2 is the only layout read; the retired version 1 is refused too."""
    save_checkpoint(tmp_path / "v2.bin", _small_tensors())
    for version in (1, 3):
        blob = bytearray((tmp_path / "v2.bin").read_bytes())
        blob[4:8] = struct.pack("<I", version)
        path = tmp_path / f"v{version}.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unsupported version {version}"):
            load_checkpoint(path)


def test_every_bit_flip_and_truncation_fails_cleanly(tmp_path):
    """Each single-bit flip and each truncation of a small file raises
    CheckpointError naming the path; the checksum covers every byte before
    it, so none of them loads."""
    save_checkpoint(tmp_path / "v2.bin", _small_tensors())
    blob = (tmp_path / "v2.bin").read_bytes()
    cases = [blob[:n] for n in range(len(blob))]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases.append(bytes(flipped))
    path = tmp_path / "case.bin"
    for case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)
        else:
            raise AssertionError(f"corrupt file of {len(case)} bytes loaded")
