"""Property tests of the SDPF pair-file and SDCK checkpoint formats (hypothesis).

* Any well-formed file, including arbitrary feature or parameter bits (NaN
  payloads, infinities, subnormals), reads back and re-saves to the same
  bytes.
* A one-byte corruption with the CRC re-stamped either still parses or
  raises ``DataFormatError``, never another exception.
"""

import struct
import zlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from samediff import DataFormatError, load_model, load_pairs, save_model, save_pairs  # noqa: E402

INT64 = st.integers(-(2**63), 2**63 - 1)
SETTINGS = settings(max_examples=150, deadline=None)


def stamp(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


@st.composite
def sdpf_files(draw):
    """(file bytes, inline flag) of a well-formed pair file."""
    inline = draw(st.booleans())
    n = draw(st.integers(0, 10))
    t = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if inline:
        dim = draw(st.integers(0, 3))
        size = 16 * dim
        feats = draw(st.binary(min_size=size * n, max_size=size * n))
        body = b"".join(feats[size * k:size * (k + 1)] + bytes([t[k]]) for k in range(n))
    else:
        dim = 0
        ends = st.tuples(INT64, INT64).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(ends, min_size=n, max_size=n))
        body = b"".join(struct.pack("<qqB", min(p), max(p), tk) for p, tk in zip(pairs, t))
    return stamp(b"SDPF" + struct.pack("<HHIQ", 1, int(inline), dim, n) + body), inline


@SETTINGS
@given(sdpf_files())
def test_save_load_save_is_byte_identical(tmp_path_factory, case):
    blob, inline = case
    d = tmp_path_factory.mktemp("rt")
    (d / "in.sdpf").write_bytes(blob)
    save_pairs(load_pairs(str(d / "in.sdpf")), str(d / "out.sdpf"), inline=inline)
    assert (d / "out.sdpf").read_bytes() == blob


@SETTINGS
@given(sdpf_files(), st.data())
def test_one_byte_corruption_parses_or_is_a_format_error(tmp_path_factory, case, data):
    blob, _ = case
    payload = bytearray(blob[:-4])
    offset = data.draw(st.integers(0, len(payload) - 1))
    payload[offset] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.mktemp("bad") / "p.sdpf"
    path.write_bytes(stamp(bytes(payload)))
    try:
        load_pairs(str(path))
    except DataFormatError:
        pass


@st.composite
def sdck_files(draw):
    """Bytes of a well-formed checkpoint: a binary head (one bias-free row,
    two classes) or one row per class with or without biases."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    layers = b""
    for fan_in, fan_out in zip(widths, widths[1:]):
        params = draw(st.binary(min_size=8 * (fan_in + 1) * fan_out,
                                max_size=8 * (fan_in + 1) * fan_out))
        layers += struct.pack("<IIB", fan_in, fan_out, draw(st.integers(0, 1))) + params
    rows = draw(st.integers(1, 4))
    biased = rows > 1 and draw(st.booleans())
    class_count = max(rows, 2)
    head = draw(st.binary(min_size=8 * rows * (widths[-1] + biased),
                          max_size=8 * rows * (widths[-1] + biased)))
    radius = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    header = struct.pack("<HHdqII", 1, int(biased), radius, draw(INT64), class_count,
                         len(widths) - 1)
    return stamp(b"SDCK" + header + layers + struct.pack("<II", rows, widths[-1]) + head)


@SETTINGS
@given(sdck_files())
def test_checkpoint_load_save_is_byte_identical(tmp_path_factory, blob):
    d = tmp_path_factory.mktemp("ck")
    (d / "in.ckpt").write_bytes(blob)
    model, seed = load_model(str(d / "in.ckpt"))
    save_model(model, str(d / "out.ckpt"), seed=seed)
    assert (d / "out.ckpt").read_bytes() == blob


@SETTINGS
@given(sdck_files(), st.data())
def test_checkpoint_one_byte_corruption_parses_or_is_a_format_error(
    tmp_path_factory, blob, data
):
    payload = bytearray(blob[:-4])
    offset = data.draw(st.integers(0, len(payload) - 1))
    payload[offset] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.mktemp("badck") / "m.ckpt"
    path.write_bytes(stamp(bytes(payload)))
    try:
        load_model(str(path))
    except DataFormatError:
        pass
