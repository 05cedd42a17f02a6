"""Named tensors as one .npy file: np.save of a 0-d structured record with
one field per tensor, named as the tensor, in name order, of the tensor's
shape, and all '<f4' or all '<f8' (32- or 64-bit precision). read_array is
the package's one .npy reader; synthvid reads its dataset files with it too.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError

# numpy's default bound, 10,000 bytes, holds about 240 fields: paper scale's
# 239 tensors take 9,910.
MAX_HEADER_SIZE = 1 << 20


def read_array(file: str) -> np.ndarray:
    """The one array of a .npy file; ValueError for anything else."""
    with open(file, "rb") as fh:
        array = np.lib.format.read_array(fh, allow_pickle=False,
                                         max_header_size=MAX_HEADER_SIZE)
        if fh.read(1):
            raise ValueError("trailing bytes after the array")
    return array


def save_checkpoint(tensors: dict[str, "np.ndarray | object"], path: str,
                    precision: int | None = None) -> None:
    arrays = {name: np.asarray(getattr(t, "data", t)) for name, t in sorted(tensors.items())}
    if precision is None:
        precision = 64 if any(a.dtype == np.float64 for a in arrays.values()) else 32
    dtype = "<f8" if precision == 64 else "<f4"
    record = np.array(tuple(arrays.values()), [(n, dtype, a.shape) for n, a in arrays.items()])
    with open(path, "wb") as fh:             # np.save on a path would append ".npy"
        np.save(fh, record, allow_pickle=False)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Returns (name -> array, precision bits)."""
    try:
        record = read_array(path)
        if record.ndim or not record.dtype.names:
            raise ValueError(f"not a 0-d record of named tensors: {record.ndim}-D "
                             f"{record.dtype}")
        kinds = {name: record.dtype[name].base.str for name in record.dtype.names}
        for name, kind in kinds.items():
            if kind not in ("<f4", "<f8"):
                raise ValueError(f"tensor {name!r} is {kind}, not <f4 or <f8")
        if len(set(kinds.values())) > 1:
            raise ValueError("tensors mix <f4 and <f8")
    except (OSError, ValueError) as e:
        raise ParseError(f"checkpoint {path}: {e}") from e
    return {name: record[name].copy() for name in kinds}, 8 * record.dtype[0].base.itemsize
