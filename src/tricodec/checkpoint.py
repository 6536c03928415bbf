"""Binary container for named tensors.

Layout, all little-endian:

    magic  4 bytes  b"TCKP"
    u32    format version (currently 1)
    u32    tensor count
    then per tensor, in insertion order:
    u16    name byte length, followed by that many UTF-8 bytes
    u8     dtype code (see _DTYPES)
    u8     rank
    u64[rank]  dims
    raw    payload, C order, little-endian

Writes are atomic (temp file in the same directory, then rename), so a
reader never observes a half-written checkpoint.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["CheckpointError", "save_tensors", "load_tensors", "MAGIC", "VERSION"]

MAGIC = b"TCKP"
VERSION = 1

_DTYPES = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<i8"),
    3: np.dtype("<u8"),
    4: np.dtype("<u2"),
    5: np.dtype("<u4"),
    6: np.dtype("u1"),
}
_CODES = {v: k for k, v in _DTYPES.items()}
_ALIGN = 64  # bytes; where each tensor starts within a load's arena


class CheckpointError(Exception):
    pass


def save_tensors(path, tensors: dict) -> None:
    """Write ``{name: ndarray}`` to ``path`` atomically, preserving order.

    Each record goes to the temp file as it is produced, so the write holds
    no serialized copy of the tensors."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                dt = arr.dtype.newbyteorder("<")
                if dt not in _CODES:
                    raise CheckpointError(f"tensor '{name}': unsupported dtype {arr.dtype}")
                nb = name.encode("utf-8")
                if len(nb) > 0xFFFF:
                    raise CheckpointError(f"tensor name too long ({len(nb)} bytes)")
                rank = arr.ndim
                f.write(struct.pack(f"<H{len(nb)}sBB{rank}Q", len(nb), nb, _CODES[dt], rank, *arr.shape))
                f.write(np.ascontiguousarray(arr.astype(dt, copy=False)))  # C-order bytes
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(f, fmt: str, path, i: int) -> tuple:
    n = struct.calcsize(fmt)
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointError(f"{path}: truncated header in tensor record {i}")
    return struct.unpack(fmt, raw)


def load_tensors(path, dtype=None, prefixes=None) -> dict:
    """Read a container written by ``save_tensors``; returns ``{name: ndarray}``.

    Every record header is read and checked first, so a truncated record
    or trailing bytes are refused before any payload is allocated. The
    selected payloads are then read into one arena, each into its own
    64-byte-aligned slice, and the arrays returned are views into it. The
    arena exists for the page size: numpy asks the kernel for transparent
    huge pages only for allocations of at least 4 MiB, so on their own the
    101 tensors of 1 or 2 MiB in a ``full`` checkpoint would fault in 4 KiB
    pages; the arena takes huge pages where the kernel grants them. The
    peak is unchanged: one copy of the tensors, plus padding of under 64
    bytes per tensor.
    With ``dtype``, every floating-point tensor is converted to it; a
    tensor stored in another dtype is read into a one-tensor temporary and
    cast into its slice, so the stored-dtype copy of at most one tensor
    exists at a time; other tensors keep their stored dtype. With
    ``prefixes`` (a tuple of strings), only the records whose names start
    with one of them are read; the payloads of the others are seeked past,
    though still checked to lie within the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12:
            raise CheckpointError(f"{path}: too short for a checkpoint header")
        if head[:4] != MAGIC:
            raise CheckpointError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        version, count = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}, expected {VERSION}")

        records = []  # (name, stored dtype, loaded dtype, dims, payload offset, arena offset)
        total = 0
        for i in range(count):
            (nlen,) = _read_header(f, "<H", path, i)
            (nb,) = _read_header(f, f"<{nlen}s", path, i)
            try:
                name = nb.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor record {i} name is not valid UTF-8") from None
            code, rank = _read_header(f, "<BB", path, i)
            dims = _read_header(f, f"<{rank}Q", path, i)
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: tensor '{name}' has unknown dtype code {code}")
            dt = _DTYPES[code]
            nbytes = dt.itemsize * math.prod(dims)
            # checked before allocating, so corrupt dims cannot demand a huge array
            if f.tell() + nbytes > size:
                raise CheckpointError(f"{path}: tensor '{name}' payload truncated")
            if prefixes is None or name.startswith(prefixes):
                kind = np.dtype(dtype) if dtype is not None and dt.kind == "f" else dt
                records.append((name, dt, kind, dims, f.tell(), total))
                total += -(-kind.itemsize * math.prod(dims) // _ALIGN) * _ALIGN
            f.seek(nbytes, os.SEEK_CUR)
        trailing = size - f.tell()
        if trailing:
            raise CheckpointError(f"{path}: {trailing} trailing bytes after the last tensor")

        arena = np.empty(total + _ALIGN, np.uint8)
        arena = arena[-arena.ctypes.data % _ALIGN :]
        out = {}
        for name, dt, kind, dims, offset, start in records:
            try:
                arr = arena[start : start + kind.itemsize * math.prod(dims)].view(kind).reshape(dims)
            except ValueError:  # a zero-size shape can still exceed numpy's dimension limit
                raise CheckpointError(f"{path}: tensor '{name}' has impossible dims {dims}") from None
            buf = arr if kind == dt else np.empty(dims, dt)
            f.seek(offset)
            if f.readinto(buf.reshape(-1).view(np.uint8)) != buf.nbytes:
                raise CheckpointError(f"{path}: tensor '{name}' payload truncated")
            if buf is not arr:
                arr[...] = buf
            out[name] = arr
    return out
