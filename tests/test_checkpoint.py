import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from clipvid.errors import ParseError


def test_round_trip(tmp_path, rng):
    tensors = {
        "a.w": ad.param(rng.normal(size=(3, 4))),
        "a.b": ad.param(rng.normal(size=(4,))),
        "scalarish": ad.param(rng.normal(size=(1,))),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(tensors, str(path), precision=64)
    loaded, prec = load_checkpoint(str(path))
    assert prec == 64
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k].data)


def test_header_magic_and_precision(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"x": np.zeros((2, 2), dtype=np.float32)}, str(path), precision=32)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    _, prec = load_checkpoint(str(path))
    assert prec == 32


def test_32bit_payload_is_float32_exact(tmp_path, rng):
    arr = rng.normal(size=(5,)).astype(np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint({"x": arr}, str(path), precision=32)
    loaded, _ = load_checkpoint(str(path))
    assert np.array_equal(loaded["x"].astype(np.float32), arr)


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"x": np.ones((4, 4))}, str(path), precision=64)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError) as exc:
        load_checkpoint(str(path))
    assert "offset" in str(exc.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_checkpoint(str(path))


def test_repeated_tensor_name_rejected(tmp_path):
    """Two entries named w: the second is refused at its offset rather than
    silently replacing the first."""
    entry = lambda values: (struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 2)
                            + np.asarray(values, dtype="<f8").tobytes())
    header = MAGIC + struct.pack("<IBI", VERSION, 64, 2)
    first = entry([1.0, 2.0])
    path = tmp_path / "m.ckpt"
    path.write_bytes(header + first + entry([3.0, 4.0]))
    with pytest.raises(ParseError) as exc:
        load_checkpoint(str(path))
    assert f"offset {len(header) + len(first)}: repeated tensor name 'w'" in str(exc.value)


def test_extent_product_past_int64_is_truncated(tmp_path):
    """Extents whose product wraps in int64 are counted exactly, so the
    entry is refused as truncated at its payload's offset."""
    header = MAGIC + struct.pack("<IBI", VERSION, 64, 1)
    entry = struct.pack("<H", 1) + b"w" + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1)
    path = tmp_path / "m.ckpt"
    path.write_bytes(header + entry)
    with pytest.raises(ParseError, match=f"offset {len(header) + len(entry)}: truncated"):
        load_checkpoint(str(path))
