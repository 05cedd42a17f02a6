"""Versioned binary container of named tensors.

Layout (all integers little-endian):
  magic   4 bytes  b"CVID"
  version u32      currently 1
  prec    u8       32 or 64 (bits per element)
  count   u32      number of entries
entry:
  name_len u16, name utf-8, rank u8, extents u32 * rank,
  payload  IEEE-754 little-endian floats (f4 or f8 per prec)
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ParseError

MAGIC = b"CVID"
VERSION = 1


def save_checkpoint(tensors: dict[str, "np.ndarray | object"], path: str,
                    precision: int | None = None) -> None:
    arrays = {name: np.asarray(getattr(t, "data", t)) for name, t in tensors.items()}
    if precision is None:
        precision = 64 if any(a.dtype == np.float64 for a in arrays.values()) else 32
    dtype = "<f8" if precision == 64 else "<f4"
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBI", VERSION, precision, len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=dtype)
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Returns (name -> array, precision bits)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read checkpoint: {e}") from e
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ParseError(f"{path}: offset {off}: truncated (needed {n} bytes)")
        out = blob[off:off + n]
        off += n
        return out

    if take(4) != MAGIC:
        raise ParseError(f"{path}: offset 0: bad magic")
    version, precision, count = struct.unpack("<IBI", take(9))
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    if precision not in (32, 64):
        raise ParseError(f"{path}: bad precision tag {precision}")
    dtype = "<f8" if precision == 64 else "<f4"
    itemsize = 8 if precision == 64 else 4
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        entry_at = off
        (name_len,) = struct.unpack("<H", take(2))
        name_at = off
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: offset {name_at}: tensor name is not valid UTF-8") from None
        if name in out:
            raise ParseError(f"{path}: offset {entry_at}: repeated tensor name {name!r}")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        arr = np.frombuffer(take(math.prod(shape) * itemsize), dtype=dtype).reshape(shape)
        out[name] = arr.copy()
    if off != len(blob):
        raise ParseError(f"{path}: offset {off}: {len(blob) - off} trailing bytes")
    return out, precision
