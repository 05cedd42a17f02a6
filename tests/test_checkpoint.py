import io
import struct

import numpy as np
import pytest

from clipvid import autodiff as ad
from clipvid.checkpoint import load_checkpoint, save_checkpoint
from clipvid.errors import ParseError


def _saved(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _npy(descr: str, payload: bytes = b"") -> bytes:
    """A version 1.0 .npy file of a 0-d array whose header holds descr as
    written, so numpy's own dtype checks see it unchanged."""
    header = f"{{'descr': {descr}, 'fortran_order': False, 'shape': (), }}"
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return (np.lib.format.magic(1, 0) + struct.pack("<H", len(header)) + header.encode()
            + payload)


_GOOD = _saved(np.zeros((), [("w", "<f8", (4, 4))]))
# A malformed checkpoint file's bytes, and the words its ParseError holds
# after the file name (None: numpy's own message).
MALFORMED = {
    "old_layout": (b"CVID" + struct.pack("<IBIH", 1, 64, 1, 1) + b"w"
                   + struct.pack("<BI", 1, 2) + bytes(16), None),
    "truncated": (_GOOD[:-8], None),
    "trailing_bytes": (_GOOD + b"\x00", "trailing bytes after the array"),
    "not_0d": (_saved(np.zeros(2, [("w", "<f8", (2,))])), "not a 0-d record"),
    "plain_array": (_saved(np.zeros(())), "not a 0-d record"),
    "big_endian": (_saved(np.zeros((), [("w", ">f4", (2,))])), "'w' is >f4, not <f4 or <f8"),
    "integer": (_saved(np.zeros((), [("w", "<i4", (2,))])), "'w' is <i4, not <f4 or <f8"),
    "object": (_npy("[('w', '|O')]", bytes(8)), None),
    "mixed": (_saved(np.zeros((), [("a", "<f4"), ("b", "<f8")])), "tensors mix <f4 and <f8"),
    "repeated_name": (_npy("[('w', '<f8', (2,)), ('w', '<f8', (2,))]", bytes(32)), None),
    "overflowing_extent": (_npy("[('w', '<f8', (4294967295, 4294967295))]"), None),
}


def test_round_trip(tmp_path, rng):
    tensors = {
        "a.w": ad.param(rng.normal(size=(3, 4))),
        "a.b": ad.param(rng.normal(size=(4,))),
        "scalarish": ad.param(rng.normal(size=(1,))),
        "scalar": np.float64(rng.normal()),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(tensors, str(path), precision=64)
    loaded, prec = load_checkpoint(str(path))
    assert prec == 64
    assert list(loaded) == sorted(tensors)
    for k, t in tensors.items():
        assert loaded[k].dtype == np.float64
        assert np.array_equal(loaded[k], getattr(t, "data", t))


def test_header_magic_and_precision(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"x": np.zeros((2, 2), dtype=np.float32)}, str(path), precision=32)
    blob = path.read_bytes()
    assert blob[:6] == b"\x93NUMPY"
    _, prec = load_checkpoint(str(path))
    assert prec == 32


def test_32bit_payload_is_float32_exact(tmp_path, rng):
    arr = rng.normal(size=(5,)).astype(np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint({"x": arr}, str(path), precision=32)
    loaded, _ = load_checkpoint(str(path))
    assert loaded["x"].dtype == np.float32
    assert np.array_equal(loaded["x"], arr)


def test_header_past_numpy_default_bound_round_trips(tmp_path, rng):
    """About 400 named tensors make a header above numpy's default bound of
    10,000 bytes; they still load, bit for bit."""
    tensors = {f"layer{i:03d}.block.w": rng.normal(size=(2,)) for i in range(400)}
    path = tmp_path / "m.ckpt"
    save_checkpoint(tensors, str(path), precision=64)
    assert path.read_bytes().index(b"\n") > 10_000          # the header's end
    loaded, _ = load_checkpoint(str(path))
    assert list(loaded) == sorted(tensors)
    assert all(np.array_equal(loaded[k], v) for k, v in tensors.items())


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_checkpoint_is_parse_error_naming_file(tmp_path, case):
    blob, words = MALFORMED[case]
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=f"^checkpoint {path}: ") as exc:
        load_checkpoint(str(path))
    assert words is None or words in str(exc.value)
