import dataclasses
import hashlib
import re
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


def _entry(name: bytes, dims: tuple, payload: bytes) -> bytes:
    """One tensor-table entry as raw bytes, whatever its name bytes and dims."""
    return struct.pack(f"<I{len(name)}sI{len(dims)}Q", len(name), name, len(dims), *dims) + payload


def _sealed(count: int, table: bytes) -> bytes:
    """A version-2 file declaring `count` tensors over the raw `table`, with a valid checksum."""
    body = struct.pack("<4sII", b"CMIV", 2, count) + table
    return body + hashlib.blake2b(body, digest_size=8).digest()


def _table(entries: list[tuple[str, np.ndarray]]) -> bytes:
    """The tensor table of (name, array) pairs, in which a name may repeat."""
    arrays = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in entries]
    return b"".join(_entry(name.encode("utf-8"), arr.shape, arr.tobytes()) for name, arr in arrays)


def _v2_blob(entries: list[tuple[str, np.ndarray]]) -> bytes:
    """The version-2 layout, built by hand from (name, array) pairs so that a
    name may repeat, with a valid checksum."""
    return _sealed(len(entries), _table(entries))


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


def _model_entries(model) -> list[tuple[str, np.ndarray]]:
    return [*model.state_arrays().items(), (HASH_KEY, np.array([float(model.architecture_hash())]))]


def test_repeated_tensor_name_fails_naming_it(tmp_path):
    """A second copy of a tensor may not silently replace the first."""
    cfg = micro_config()
    model = Model(cfg)
    entries = _model_entries(model)
    path = tmp_path / "twice.bin"
    path.write_bytes(_v2_blob(entries))
    load_model(path, cfg)  # the hand-built file is valid without the repeat
    entries.insert(1, ("scene.stem1.kernel", np.zeros_like(model.named["scene.stem1.kernel"].data)))
    path.write_bytes(_v2_blob(entries))
    with pytest.raises(CheckpointError, match="'scene.stem1.kernel' is repeated"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="'scene.stem1.kernel' is repeated"):
        load_model(path, cfg)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda e: _sealed(len(e), _table(e)[:-8]), r" is truncated at byte \d+$", id="table-cut-short"),
        pytest.param(lambda e: _sealed(len(e), _entry(b"\xff", (1,), bytes(8)) + _table(e[1:])),
                     r": field 'name' of tensor 0 is not UTF-8$", id="name-not-utf8"),
        pytest.param(lambda e: _sealed(len(e) + 1, _table(e) + _entry(b"w", (1,) * 65, bytes(8))),
                     r": field 'dims' of tensor 'w' is invalid: \(1, 1, ", id="rank-65"),
        pytest.param(lambda e: _sealed(len(e) + 1, _table(e) + _entry(b"w", (2**62, 0, 4), b"")),
                     rf": field 'dims' of tensor 'w' is invalid: \({2**62}, 0, 4\)$", id="dims-too-big"),
        pytest.param(lambda e: _sealed(len(e), _table(e) + bytes(3)), r" has 3 trailing bytes$",
                     id="bytes-before-the-digest"),
        pytest.param(lambda e: _v2_blob([entry for entry in e if entry[0] != "scene.stem1.kernel"]),
                     r" is missing tensor 'scene.stem1.kernel'$", id="missing-tensor"),
        pytest.param(lambda e: _v2_blob([*e, ("extra.w", np.ones(2))]),
                     r" has unexpected tensors: \['extra.w'\]$", id="unexpected-tensor"),
    ],
)
def test_a_defect_under_a_valid_digest_fails_naming_the_path_and_the_field(tmp_path, edit, message):
    """The table and model checks after a matching BLAKE2b digest: each
    defect fails as a CheckpointError that names the path and the field."""
    cfg = micro_config()
    entries = _model_entries(Model(cfg))
    path = tmp_path / "defect.bin"
    path.write_bytes(_v2_blob(entries))
    load_model(path, cfg)  # the hand-built file is valid before the edit
    path.write_bytes(edit(entries))
    with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {path}") + message):
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
