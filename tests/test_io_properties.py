"""Property tests of the file formats (hypothesis).

* SDPF pair files and SDCK checkpoints: any well-formed file, including
  arbitrary feature bits (NaN payloads, infinities, subnormals) and
  arbitrary finite parameter bits (signed zeros, subnormals), reads back
  and re-saves to the same bytes; a checkpoint with a NaN or infinite
  parameter is not well-formed.  A one-byte
  corruption with the CRC re-stamped either raises ``DataFormatError``,
  never another exception, or loads and re-saves to exactly its own bytes:
  no header a save would not write back is accepted.
* Dataset CSVs: ``load_csv`` makes the same decision as the per-line
  parser it replaced (``reference_load_csv``), with bitwise-equal arrays
  and the same message; any bytes at all load or raise ``DataFormatError``.
* IDX files: well-formed pairs load exactly, and any header value, byte
  or length change loads or raises ``DataFormatError``.

Each test draws at least 150 examples, more under a profile that asks for
more (see conftest.py).
"""

import re
import struct
import zlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from samediff import (  # noqa: E402
    DataFormatError,
    EmbeddedFeatures,
    FullyLabeledDataset,
    load_csv,
    load_idx,
    load_model,
    load_pairs,
    save_model,
    save_pairs,
    validate_dataset,
)

INT64 = st.integers(-(2**63), 2**63 - 1)
SETTINGS = settings(max_examples=max(150, settings.default.max_examples), deadline=None)


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
    d = tmp_path_factory.mktemp("bad")
    corrupt = stamp(bytes(payload))
    (d / "in.sdpf").write_bytes(corrupt)
    try:
        pairs = load_pairs(str(d / "in.sdpf"))
    except DataFormatError:
        return
    save_pairs(pairs, str(d / "out.sdpf"), inline=isinstance(pairs.source, EmbeddedFeatures))
    assert (d / "out.sdpf").read_bytes() == corrupt


def finite_params(draw, count):
    """count float64 parameters of arbitrary bits, except that every NaN or
    infinite word is made finite by clearing the top bit of its exponent."""
    words = np.frombuffer(draw(st.binary(min_size=8 * count, max_size=8 * count)),
                          dtype="<u8").copy()
    words[((words >> 52) & 0x7FF) == 0x7FF] &= ~np.uint64(1 << 62)
    return words.tobytes()


@st.composite
def sdck_files(draw):
    """Bytes of a well-formed checkpoint: a binary head (one bias-free row,
    two classes) or one row per class with or without biases, and the one
    hidden layout, activation byte 1 on every inner layer and 0 on the last."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    layers = b""
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), start=2):
        params = finite_params(draw, (fan_in + 1) * fan_out)
        layers += struct.pack("<IIB", fan_in, fan_out, int(i < len(widths))) + params
    rows = draw(st.integers(1, 4))
    biased = rows > 1 and draw(st.booleans())
    class_count = max(rows, 2)
    head = finite_params(draw, rows * (widths[-1] + biased))
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
    d = tmp_path_factory.mktemp("badck")
    corrupt = stamp(bytes(payload))
    (d / "in.ckpt").write_bytes(corrupt)
    try:
        model, seed = load_model(str(d / "in.ckpt"))
    except DataFormatError:
        return
    save_model(model, str(d / "out.ckpt"), seed=seed)
    assert (d / "out.ckpt").read_bytes() == corrupt


# -- dataset CSV ----------------------------------------------------------


def reference_load_csv(path, class_count=None):
    """``load_csv`` as it was before the single-call parser: one line and one
    ``float()``/``int()`` at a time.  A label beyond int64 escapes it as an
    ``OverflowError``."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1].strip() != "label":
        raise DataFormatError(f"{path}: line 1: header must end with a 'label' column")
    d = len(header) - 1
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {d + 1} fields, got {len(parts)}"
            )
        try:
            xs.append([float(v) for v in parts[:-1]])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric feature") from None
        try:
            ys.append(int(parts[-1]))
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-integer label") from None
        if class_count is not None and not 0 <= ys[-1] < class_count:
            raise DataFormatError(
                f"{path}: line {lineno}: label {ys[-1]} outside [0, {class_count})"
            )
    if not xs:
        raise DataFormatError(f"{path}: no data rows")
    ds = FullyLabeledDataset.from_arrays(
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.int64), class_count
    )
    problems = validate_dataset(ds)
    if problems:
        raise DataFormatError(f"{path}: invalid dataset: " + "; ".join(problems))
    return ds


def outcome(load, path, class_count):
    """What a CSV loader decides, with every array as bytes."""
    try:
        ds = load(str(path), class_count)
    except DataFormatError as e:
        return "reject", str(e)
    except OverflowError:
        return ("overflow",)
    return ("accept", ds.x.dtype.str, ds.x.shape, ds.x.tobytes(), ds.y.dtype.str,
            ds.y.tobytes(), ds.ids.tobytes(), ds.class_count)


def line_of(message):
    return int(re.search(r": line (\d+): ", message).group(1))


# Field texts at the edges of float()/int() syntax; np.loadtxt reads several differently.
ODD_FEATURES = ["1_0", "1_000.5", "inf", "-Infinity", "nan", "-nan", "+1.5", ".5", "5.", "1e400",
                "-1e-400", "\u0663", "\uff11\uff12", "x", "", "1.2.3", "0x10", "1e", "--1", "nan(1)",
                "1 2", '"1"', "#1", "True"]
ODD_LABELS = ["1_0", "\u0663", "\uff11", "3.0", "1e3", "x", "", "+2", "007", "-0", "0x1",
              "\U0009c6ca", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
              "99999999999999999999", "1 0", "True"]
PADS = ["", "", " ", "\t", "  ", "\u00a0", "\u2003", "\x1f", "\x0b", "\x00"]


def padded(field):
    return st.tuples(st.sampled_from(PADS), field, st.sampled_from(PADS)).map("".join)


@st.composite
def csv_files(draw):
    """(text, class_count) of a CSV whose fields are clean or, at a drawn
    rate, odd or padded, with blank or whitespace-only lines and rows of the
    wrong width."""
    d = draw(st.integers(1, 3))
    class_count = draw(st.one_of(st.none(), st.integers(1, 5)))
    odd_rate = draw(st.sampled_from([0, 1, 3]))   # in tenths
    feature = st.floats(width=draw(st.sampled_from([16, 32, 64]))).map(repr)
    label = st.integers(0, (class_count or 3) - 1).map(str)
    odd_feature = st.one_of(padded(feature), st.sampled_from(ODD_FEATURES),
                            padded(st.sampled_from(ODD_FEATURES)))
    odd_label = st.one_of(padded(label), st.integers(-(2**66), 2**66).map(str),
                          st.sampled_from(ODD_LABELS), padded(st.sampled_from(ODD_LABELS)))

    def field(clean, odd):
        return draw(odd if draw(st.integers(0, 9)) < odd_rate else clean)

    lines = [",".join([f"f{j}" for j in range(d)] + [draw(st.sampled_from(["label", " label\t"]))])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "wrong width"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t ", "\u3000"])))
            continue
        width = d + 1
        if kind == "wrong width" and odd_rate:
            width = draw(st.integers(1, d + 3).filter(lambda w: w != d + 1))
        lines.append(",".join([field(feature, odd_feature) for _ in range(width - 1)]
                              + [field(label, odd_label)]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), class_count


@SETTINGS
@given(csv_files())
def test_load_csv_decides_as_the_per_line_parser(tmp_path_factory, case):
    """Same accept or reject decision, bitwise-equal x, y and ids, the same
    class count and the same message.  The one exception is a label beyond
    int64: the reference let an OverflowError escape (or went on to a later
    line's fault), the loader names that label's line."""
    text, class_count = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(reference_load_csv, path, class_count)
    got = outcome(load_csv, path, class_count)
    if got[0] == "reject" and "label outside the int64 range" in got[1]:
        assert want[0] == "overflow" or line_of(want[1]) > line_of(got[1])
    else:
        assert got == want


@SETTINGS
@given(csv_files(), st.data())
def test_load_csv_bytes_load_or_are_a_format_error(tmp_path_factory, case, data):
    """Any bytes: the text of a drawn CSV with one byte changed, or raw
    bytes after a valid header."""
    text, class_count = case
    blob = bytearray(text.encode("utf-8"))
    if data.draw(st.booleans()):
        blob += data.draw(st.binary(max_size=40))
    elif blob:
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.mktemp("csvb") / "d.csv"
    path.write_bytes(bytes(blob))
    try:
        ds = load_csv(str(path), class_count)
    except DataFormatError:
        return
    assert ds.x.dtype == np.float64 and ds.x.ndim == 2 and ds.x.flags.c_contiguous
    assert ds.y.dtype == np.int64 and len(ds.y) == len(ds.x) == len(ds.ids)
    assert validate_dataset(ds) == []


# -- IDX ------------------------------------------------------------------


@st.composite
def idx_files(draw):
    """(images bytes, labels bytes, pixels, labels) of a well-formed pair."""
    n, rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pixels = draw(st.binary(min_size=n * rows * cols, max_size=n * rows * cols))
    labels = draw(st.binary(min_size=n, max_size=n))
    images = struct.pack(">llll", 2051, n, rows, cols) + pixels
    return images, struct.pack(">ll", 2049, n) + labels, (n, rows * cols, pixels), labels


def write_pair(tmp_path_factory, images, labels):
    d = tmp_path_factory.mktemp("idx")
    (d / "im.idx").write_bytes(images)
    (d / "lb.idx").write_bytes(labels)
    return str(d / "im.idx"), str(d / "lb.idx")


@SETTINGS
@given(idx_files(), st.one_of(st.none(), st.integers(1, 300)))
def test_idx_loads_exactly_or_refuses_its_labels(tmp_path_factory, case, class_count):
    images, labels, (n, dim, pixels), label_bytes = case
    k = class_count if class_count is not None else (max(label_bytes) + 1 if n else 2)
    try:
        ds = load_idx(*write_pair(tmp_path_factory, images, labels), class_count)
    except DataFormatError as e:
        assert "invalid dataset" in str(e)
        assert k < 2 or max(label_bytes) >= k
        return
    want = np.frombuffer(pixels, dtype=np.uint8).reshape(n, dim) / 255.0
    assert ds.x.tobytes() == want.tobytes() and ds.x.shape == (n, dim)
    np.testing.assert_array_equal(ds.y, list(label_bytes))
    assert ds.class_count == k


@SETTINGS
@given(idx_files(), st.one_of(st.none(), st.integers(1, 300)), st.data())
def test_idx_damage_loads_or_is_a_format_error(tmp_path_factory, case, class_count, data):
    """A header count set to any int32, one byte changed, or bytes cut or
    added: the pair loads or raises ``DataFormatError``, never another
    exception (a hostile count must not reach an allocation)."""
    files = [bytearray(case[0]), bytearray(case[1])]
    which = data.draw(st.integers(0, 1))
    blob = files[which]
    damage = data.draw(st.sampled_from(["count", "byte", "cut", "extend"]))
    if damage == "count":
        offset = data.draw(st.sampled_from([4, 8, 12] if which == 0 else [4]))
        blob[offset:offset + 4] = struct.pack(">l", data.draw(st.integers(-(2**31), 2**31 - 1)))
    elif damage == "byte":
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    elif damage == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=40))
    try:
        ds = load_idx(*write_pair(tmp_path_factory, bytes(files[0]), bytes(files[1])), class_count)
    except DataFormatError:
        return
    assert ds.x.dtype == np.float64 and ds.x.ndim == 2
    assert validate_dataset(ds) == []
