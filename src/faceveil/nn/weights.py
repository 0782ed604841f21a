"""Named float32 tensors with a bit-exact binary file format.

File layout (all integers little-endian): magic "MPRW", u32 version = 1,
u32 tensor count, then per tensor: u16 name byte-length, UTF-8 name,
u8 rank, rank x u32 dims, product(dims) x float32 values, row-major.
Convolution weights are stored as (out_channels, in_channels, kh, kw).
Every value must be finite: loading a NaN or infinity fails.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping

import numpy as np

from ..errors import (
    BadMagicError,
    ConfigError,
    DuplicateTensorError,
    TruncatedFileError,
    WeightLoadError,
)

MAGIC = b"MPRW"
VERSION = 1
_F32LE = np.dtype("<f4")


def as_tensor(values, shape=None):
    """Validate and return a float32, C-contiguous array.

    Every dimension must be >= 1 and, when an explicit shape is given, the
    value count must equal its product.
    """
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        shape = tuple(int(d) for d in shape)
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise ConfigError(f"{arr.size} values cannot fill shape {shape}")
        arr = arr.reshape(shape)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if any(d < 1 for d in arr.shape):
        raise ConfigError(f"tensor dimensions must be >= 1, got {arr.shape}")
    return np.ascontiguousarray(arr)


class WeightStore(Mapping):
    """Immutable name -> tensor map; arrays are frozen at construction."""

    def __init__(self, tensors):
        store = {}
        for name, values in tensors.items():
            arr = as_tensor(values)
            arr.flags.writeable = False
            store[str(name)] = arr
        self._tensors = store

    def __getitem__(self, name):
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self):
        return len(self._tensors)

    def __eq__(self, other):
        if not isinstance(other, WeightStore):
            return NotImplemented
        if set(self._tensors) != set(other._tensors):
            return False
        return all(
            a.shape == other._tensors[n].shape and a.tobytes() == other._tensors[n].tobytes()
            for n, a in self._tensors.items()
        )

    @classmethod
    def merge(cls, *stores):
        """Combine stores; a name occurring twice is a configuration error."""
        merged = {}
        for store in stores:
            for name in store:
                if name in merged:
                    raise ConfigError(f"duplicate tensor {name!r} while merging weight stores")
                merged[name] = store[name]
        return cls(merged)


def save_weights(store, path):
    """Write a WeightStore (or plain mapping of arrays) to an MPRW file.

    A tensor holding a NaN or an infinity raises ConfigError and no file
    is written, so ``load_weights`` reads back every file this writes.
    """
    if not isinstance(store, WeightStore):
        store = WeightStore(store)
    for name, arr in store.items():  # all checked first, so a refusal leaves no file
        if not np.isfinite(arr).all():
            raise ConfigError(f"tensor {name!r} holds a non-finite value; not written")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(store)))
        for name, arr in store.items():
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ConfigError(f"tensor name too long: {len(raw)} bytes")
            if arr.ndim > 0xFF:
                raise ConfigError(f"tensor rank too large: {arr.ndim}")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype=_F32LE).tobytes())


def _take(buf, offset, n, what):
    """The next ``n`` bytes of a memoryview, as a view (no copy)."""
    if offset + n > len(buf):
        raise TruncatedFileError(f"file ends inside {what}")
    return buf[offset : offset + n], offset + n


def load_weights(path):
    """Read an MPRW file back into a WeightStore; every value must be finite."""
    with open(path, "rb") as f:
        buf = memoryview(f.read())
    head, off = _take(buf, 0, 4, "magic")
    if head != MAGIC:
        raise BadMagicError(f"bad magic {bytes(head)!r}, expected {MAGIC!r}")
    raw, off = _take(buf, off, 8, "header")
    version, count = struct.unpack("<II", raw)
    if version != VERSION:
        raise WeightLoadError(f"unsupported version {version}")
    tensors = {}
    for _ in range(count):
        raw, off = _take(buf, off, 2, "name length")
        (name_len,) = struct.unpack("<H", raw)
        raw, off = _take(buf, off, name_len, "name")
        try:
            name = str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise WeightLoadError(f"tensor name is not valid UTF-8: {e}") from e
        raw, off = _take(buf, off, 1, "rank")
        rank = raw[0]
        raw, off = _take(buf, off, 4 * rank, "dims")
        dims = struct.unpack(f"<{rank}I", raw)
        if any(d < 1 for d in dims):
            raise WeightLoadError(f"tensor {name!r} has a zero dimension")
        n_values = math.prod(dims)  # exact: a forged shape must not wrap around
        raw, off = _take(buf, off, 4 * n_values, f"values of {name!r}")
        if name in tensors:
            raise DuplicateTensorError(f"tensor {name!r} appears twice")
        values = np.frombuffer(raw, dtype=_F32LE).astype(np.float32).reshape(dims)
        if not np.isfinite(values).all():  # fail closed before any frame reaches the net
            raise WeightLoadError(f"tensor {name!r} holds a non-finite value")
        tensors[name] = values
    if off != len(buf):
        raise WeightLoadError(f"{len(buf) - off} trailing bytes after last tensor")
    return WeightStore(tensors)
