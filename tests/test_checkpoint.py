"""Binary tensor container: round trips, atomicity, and corruption errors."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from tricodec.checkpoint import CheckpointError, load_tensors, save_tensors


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "enc.w": rng.standard_normal((3, 4)).astype(np.float32),
        "vq.base": rng.standard_normal((8, 2)),
        "meta/step": np.asarray(17, dtype=np.int64),
        "ids": np.array([1, 2, 70000], dtype=np.uint32),
        "small": np.array([3, 4], dtype=np.uint16),
        "state": np.array([2**64 - 1, 0, 12345], dtype=np.uint64),
        "blob": np.frombuffer(b"hello", dtype=np.uint8).copy(),  # odd length, like the config JSON
    }


def assert_arena_view(arr, name):
    """A loaded tensor is a C-contiguous, writeable, 64-byte-aligned slice."""
    assert arr.flags.c_contiguous and arr.flags.writeable, name
    assert arr.ctypes.data % 64 == 0, name


def test_round_trip_all_dtypes(tmp_path):
    p = tmp_path / "a.tckp"
    arrays = sample_arrays()
    save_tensors(p, arrays)
    back = load_tensors(p)
    assert list(back.keys()) == list(arrays.keys())  # insertion order kept
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype, name
        assert np.array_equal(back[name], arr), name
        assert_arena_view(back[name], name)


def test_round_trip_zero_dim_and_empty(tmp_path):
    p = tmp_path / "b.tckp"
    arrays = {"scalar": np.asarray(2.5), "empty": np.zeros((0, 3), dtype=np.float32)}
    save_tensors(p, arrays)
    back = load_tensors(p)
    assert back["scalar"].shape == ()
    assert back["scalar"] == 2.5
    assert back["empty"].shape == (0, 3)


def test_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tckp", tmp_path / "b.tckp"
    save_tensors(a, sample_arrays())
    save_tensors(b, sample_arrays())
    assert a.read_bytes() == b.read_bytes()


def test_no_temp_files_left(tmp_path):
    save_tensors(tmp_path / "c.tckp", sample_arrays())
    assert os.listdir(tmp_path) == ["c.tckp"]


def test_overwrite_replaces_atomically(tmp_path):
    p = tmp_path / "d.tckp"
    save_tensors(p, {"x": np.ones(4)})
    save_tensors(p, {"y": np.zeros(2, dtype=np.int64)})
    back = load_tensors(p)
    assert list(back.keys()) == ["y"]


def test_header_layout(tmp_path):
    p = tmp_path / "e.tckp"
    save_tensors(p, {"x": np.ones(1)})
    raw = p.read_bytes()
    assert raw[:4] == b"TCKP"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == 1
    assert count == 1


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "f.tckp"
    save_tensors(p, {"x": np.ones(1)})
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "magic" in str(e.value).lower()


def test_bad_version_rejected(tmp_path):
    p = tmp_path / "g.tckp"
    save_tensors(p, {"x": np.ones(1)})
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "version" in str(e.value).lower()


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "h.tckp"
    save_tensors(p, {"x": np.ones(100)})
    raw = p.read_bytes()
    p.write_bytes(raw[:-40])
    with pytest.raises(CheckpointError):
        load_tensors(p)


def test_truncated_later_payload_rejected(tmp_path):
    p = tmp_path / "h2.tckp"
    save_tensors(p, sample_arrays())
    raw = p.read_bytes()
    # cut inside the payload of the last record (5 bytes of "hello")
    p.write_bytes(raw[:-3])
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "'blob'" in str(e.value) and "truncated" in str(e.value)


def test_non_utf8_name_rejected(tmp_path):
    p = tmp_path / "h3.tckp"
    save_tensors(p, {"ab": np.ones(1)})
    raw = bytearray(p.read_bytes())
    raw[4 + 4 + 4 + 2] = 0xFF  # first name byte
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "utf-8" in str(e.value).lower()


def test_impossible_zero_size_dims_rejected(tmp_path):
    p = tmp_path / "h4.tckp"
    record = struct.pack("<H1sBB2Q", 1, b"x", 1, 2, 0, 2**63)
    p.write_bytes(b"TCKP" + struct.pack("<II", 1, 1) + record)
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "dims" in str(e.value)


def test_load_peak_memory_is_one_copy(tmp_path):
    p = tmp_path / "big.tckp"
    n_bytes = 8 << 20
    save_tensors(p, {"w": np.ones(n_bytes // 8)})
    tracemalloc.start()
    try:
        back = load_tensors(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back["w"].nbytes == n_bytes
    assert peak < 1.5 * n_bytes, f"peak {peak / n_bytes:.2f}x the tensor size"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_converts_floating_tensors(tmp_path, dtype):
    p = tmp_path / "c.tckp"
    arrays = sample_arrays()
    save_tensors(p, arrays)
    back = load_tensors(p, dtype=dtype)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        want = arr.astype(dtype) if arr.dtype.kind == "f" else arr
        assert back[name].dtype == want.dtype, name
        assert np.array_equal(back[name], want), name
        assert_arena_view(back[name], name)


def test_load_prefixes_reads_only_matching_records(tmp_path):
    p = tmp_path / "p.tckp"
    arrays = sample_arrays()
    save_tensors(p, arrays)
    back = load_tensors(p, dtype=np.float32, prefixes=("vq.", "meta/", "blob"))
    assert list(back) == ["vq.base", "meta/step", "blob"]
    assert back["vq.base"].dtype == np.float32
    assert np.array_equal(back["vq.base"], arrays["vq.base"].astype(np.float32))
    assert np.array_equal(back["blob"], arrays["blob"])


def test_load_prefixes_checks_skipped_records(tmp_path):
    # a record that is skipped unread must still lie within the file, and
    # bytes after the last record are still refused
    p = tmp_path / "q.tckp"
    save_tensors(p, sample_arrays())
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])  # inside the last record, "blob"
    with pytest.raises(CheckpointError) as e:
        load_tensors(p, prefixes=("enc.",))
    assert "'blob'" in str(e.value) and "truncated" in str(e.value)
    p.write_bytes(raw + b"junk")
    with pytest.raises(CheckpointError) as e:
        load_tensors(p, prefixes=("enc.",))
    assert "trailing" in str(e.value)


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "i.tckp"
    save_tensors(p, {"x": np.ones(2)})
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CheckpointError):
        load_tensors(p)


def test_unknown_dtype_code_rejected(tmp_path):
    p = tmp_path / "j.tckp"
    save_tensors(p, {"ab": np.ones(1)})
    raw = bytearray(p.read_bytes())
    # dtype code sits right after the u16 name length and 2-byte name
    off = 4 + 4 + 4 + 2 + 2
    raw[off] = 250
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as e:
        load_tensors(p)
    assert "dtype" in str(e.value).lower()


def test_unsupported_array_dtype_on_save(tmp_path):
    with pytest.raises(CheckpointError):
        save_tensors(tmp_path / "k.tckp", {"x": np.ones(2, dtype=np.complex128)})


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises((FileNotFoundError, CheckpointError)):
        load_tensors(tmp_path / "absent.tckp")
