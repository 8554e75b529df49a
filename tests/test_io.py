"""File formats: CSV, IDX, pair files, checkpoints, synthetic generators."""

import hashlib
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from samediff import (
    DataFormatError,
    FullyLabeledDataset,
    HiddenNetwork,
    Layer,
    LinearHead,
    TwoPartClassifier,
    cli_main,
    generate_synthetic,
    load_csv,
    load_idx,
    load_model,
    load_pairs,
    pair_exhaustive,
    pair_sampled,
    PairingConfig,
    save_csv,
    save_model,
    save_pairs,
)
from conftest import checkpoint_bytes, params_equal, tiny_model


def roundtrip_ds(rng, n=17, dim=3):
    x = rng.normal(size=(n, dim)) * np.array([1e-3, 1.0, 1e6])
    y = rng.integers(0, 3, size=n)
    y[:3] = [0, 1, 2]  # keep every class populated
    return FullyLabeledDataset.from_arrays(x, y, 3)


def patch_crc(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42)
        path = str(tmp_path / "d.csv")
        save_csv(ds, path)
        back = load_csv(path, class_count=3)
        np.testing.assert_array_equal(ds.x, back.x)
        np.testing.assert_array_equal(ds.y, back.y)
        assert back.class_count == 3

    def test_save_is_byte_stable(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_csv(ds, p1)
        save_csv(ds, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_header_must_end_with_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,target\n0.0,0.0,0\n")
        with pytest.raises(DataFormatError, match="line 1.*label"):
            load_csv(str(path))

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n0.0,0.0,0\n1.0,1\n")
        with pytest.raises(DataFormatError, match="line 3: expected 3 fields, got 2"):
            load_csv(str(path))

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nx,0\n")
        with pytest.raises(DataFormatError, match="line 2: non-numeric feature"):
            load_csv(str(path))

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,zero\n")
        with pytest.raises(DataFormatError, match="line 2: non-integer label"):
            load_csv(str(path))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,0\n0.6,5\n")
        with pytest.raises(DataFormatError, match=r"line 3: label 5 outside \[0, 2\)"):
            load_csv(str(path), class_count=2)

    def test_non_finite_feature_fails_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nnan,0\n1.0,1\n")
        with pytest.raises(DataFormatError, match="invalid dataset"):
            load_csv(str(path))

    def test_empty_and_headerless(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(DataFormatError, match="empty file"):
            load_csv(str(empty))
        hdr = tmp_path / "h.csv"
        hdr.write_text("f0,label\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(str(hdr))

    @pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809"])
    def test_label_beyond_int64_names_line(self, tmp_path, label):
        path = tmp_path / "big.csv"
        path.write_text(f"f0,label\n0.5,0\n0.6,{label}\n0.7,1\n")
        with pytest.raises(DataFormatError, match="line 3: label outside the int64 range"):
            load_csv(str(path))

    def test_int64_extremes_parse(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("f0,label\n0.5,0\n0.6,9223372036854775807\n")
        np.testing.assert_array_equal(load_csv(str(path)).y, [0, 2**63 - 1])
        path.write_text("f0,label\n0.5,0\n0.6,-9223372036854775808\n")
        with pytest.raises(DataFormatError, match=r"labels outside \[0, 1\) in rows \[1\]"):
            load_csv(str(path))

    def test_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"f0,label\n0.5,0\n\xe9,1\n")
        with pytest.raises(DataFormatError, match="not UTF-8 text"):
            load_csv(str(path))

    def test_python_number_syntax_is_accepted(self, tmp_path):
        """Padded fields, digit separators, full-width and Arabic-Indic
        digits, blank and whitespace-only lines, CRLF endings: whatever
        float() and int() take."""
        path = tmp_path / "py.csv"
        path.write_bytes(" f0 ,f1, label \r\n 1_0 ,\t-2.5e-1,0\r\n\r\n   \r\n"
                         "\uff13,\u0663.5, 1_0 \r\n".encode("utf-8"))
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.x, [[10.0, -0.25], [3.0, 3.5]])
        np.testing.assert_array_equal(ds.y, [0, 10])
        assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous
        assert ds.class_count == 11

    @pytest.mark.parametrize("field,message", [
        ("3\x1f", "non-integer label"),         # numpy would pad-strip \x1f
        ("\U0009c6ca", "non-integer label"),    # numpy 2.4 would read 640666
        ("3.0", "non-integer label"),
        ("1e3", "non-integer label"),
    ])
    def test_labels_int_rejects_stay_rejected(self, tmp_path, field, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n0.5,0\n0.6,{field}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line 3: {message}"):
            load_csv(str(path))

    def test_out_of_range_label_reports_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,0\n0.6,1\nx,1\n0.7,-1\n")
        with pytest.raises(DataFormatError, match="line 4: non-numeric feature"):
            load_csv(str(path), class_count=2)
        path.write_text("f0,label\n0.5,0\n0.6,2\n0.7,-1\n")
        with pytest.raises(DataFormatError, match=r"line 3: label 2 outside \[0, 2\)"):
            load_csv(str(path), class_count=2)


def write_idx(images, labels, images_path, labels_path):
    """Write (n, rows, cols) uint8 images and uint8 labels as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    Path(images_path).write_bytes(struct.pack(">llll", 2051, *images.shape) + images.tobytes())
    Path(labels_path).write_bytes(struct.pack(">ll", 2049, len(labels)) + labels.tobytes())


class TestIdx:
    def test_round_trip(self, tmp_path, rng42):
        images = rng42.integers(0, 256, size=(11, 5, 4), dtype=np.uint8)
        labels = rng42.integers(0, 10, size=11).astype(np.uint8)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(images, labels, ip, lp)
        ds = load_idx(ip, lp, class_count=10)
        assert ds.x.shape == (11, 20)
        np.testing.assert_allclose(ds.x, images.reshape(11, 20) / 255.0)
        np.testing.assert_array_equal(ds.y, labels)

    def test_image_magic_mismatch(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 1234, 1, 2, 2) + bytes(4))
        lp.write_bytes(struct.pack(">ll", 2049, 1) + bytes(1))
        with pytest.raises(DataFormatError, match="magic mismatch: expected 2051, got 1234"):
            load_idx(str(ip), str(lp))

    def test_label_magic_mismatch(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 1, 2, 2) + bytes(4))
        lp.write_bytes(struct.pack(">ll", 99, 1) + bytes(1))
        with pytest.raises(DataFormatError, match="magic mismatch: expected 2049"):
            load_idx(str(ip), str(lp))

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 2, 1, 1) + bytes(2))
        lp.write_bytes(struct.pack(">ll", 2049, 3) + bytes(3))
        with pytest.raises(DataFormatError, match="count mismatch: 2 images vs 3 labels"):
            load_idx(str(ip), str(lp))

    def test_truncated_payload(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 4, 3, 3) + bytes(10))
        lp.write_bytes(struct.pack(">ll", 2049, 4) + bytes(4))
        with pytest.raises(DataFormatError, match="truncated: wanted 36 bytes, got 10"):
            load_idx(str(ip), str(lp))

    def test_hostile_image_count_is_checked_before_reading(self, tmp_path):
        """2^30 images of 2^15 x 2^15 over a 16-byte body: refused from the
        header, without trying to allocate the claimed 2^60 bytes."""
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 2**30, 2**15, 2**15) + bytes(16))
        lp.write_bytes(struct.pack(">ll", 2049, 1) + bytes(1))
        with pytest.raises(DataFormatError, match=f"truncated: wanted {2**60} bytes, got 16"):
            load_idx(str(ip), str(lp))

    def test_hostile_label_count_is_checked_before_reading(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 1, 1, 1) + bytes(1))
        lp.write_bytes(struct.pack(">ll", 2049, 2**31 - 1) + bytes(3))
        with pytest.raises(DataFormatError, match=f"truncated: wanted {2**31 - 1} bytes, got 3"):
            load_idx(str(ip), str(lp))

    @pytest.mark.parametrize("counts", [(-1, 2, 2), (1, -2, -2), (2, 2, -1)])
    def test_negative_image_counts_are_refused(self, tmp_path, counts):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, *counts) + bytes(16))
        lp.write_bytes(struct.pack(">ll", 2049, 1) + bytes(1))
        with pytest.raises(DataFormatError, match="negative count in header"):
            load_idx(str(ip), str(lp))

    def test_negative_label_count_is_refused(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(struct.pack(">llll", 2051, 1, 1, 1) + bytes(1))
        lp.write_bytes(struct.pack(">ll", 2049, -1) + bytes(1))
        with pytest.raises(DataFormatError, match=r"lb.idx: negative count in header: \[-1\]"):
            load_idx(str(ip), str(lp))

    def test_labels_are_validated(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(images, np.array([0, 1, 7, 9]), ip, lp)
        message = r"lb.idx: invalid dataset: labels outside \[0, 2\) in rows \[2, 3\]"
        with pytest.raises(DataFormatError, match=message):
            load_idx(ip, lp, class_count=2)
        assert load_idx(ip, lp).class_count == 10
        write_idx(images, np.zeros(4), ip, lp)
        with pytest.raises(DataFormatError, match="class_count must be at least 2"):
            load_idx(ip, lp)


class TestPairFiles:
    def test_id_form_round_trip_and_byte_stability(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=12)
        pairs = pair_exhaustive(ds)
        p1, p2 = str(tmp_path / "a.sdpf"), str(tmp_path / "b.sdpf")
        save_pairs(pairs, p1)
        back = load_pairs(p1, source=ds)
        np.testing.assert_array_equal(back.a_ids, pairs.a_ids)
        np.testing.assert_array_equal(back.b_ids, pairs.b_ids)
        np.testing.assert_array_equal(back.t, pairs.t)
        save_pairs(back, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_inline_round_trip(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=10)
        pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=15, seed=0))
        p1, p2 = str(tmp_path / "a.sdpf"), str(tmp_path / "b.sdpf")
        save_pairs(pairs, p1, inline=True)
        back = load_pairs(p1)
        xa0, xb0, t0 = pairs.gather()
        xa1, xb1, t1 = back.gather()
        np.testing.assert_array_equal(xa0, xa1)
        np.testing.assert_array_equal(xb0, xb1)
        np.testing.assert_array_equal(t0, t1)
        np.testing.assert_array_equal(back.a_ids, np.arange(0, 30, 2))
        save_pairs(back, p2, inline=True)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_unresolved_without_source(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=6)
        path = str(tmp_path / "p.sdpf")
        save_pairs(pair_exhaustive(ds), path)
        back = load_pairs(path)
        with pytest.raises(ValueError, match="no feature source attached"):
            back.gather()

    def test_flipped_byte_fails_checksum(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=8)
        path = tmp_path / "p.sdpf"
        save_pairs(pair_exhaustive(ds), str(path))
        blob = bytearray(path.read_bytes())
        blob[25] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum failure"):
            load_pairs(str(path))

    def test_version_mismatch(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=8)
        path = tmp_path / "p.sdpf"
        save_pairs(pair_exhaustive(ds), str(path))
        blob = bytearray(path.read_bytes())
        saved = bytes(blob)
        blob[4:6] = struct.pack("<H", 2)  # crc re-stamped so only version differs
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="version mismatch: 2"):
            load_pairs(str(path))
        # Header fields no save writes back: a flags bit above bit 0, and a
        # nonzero dim in an id-form file.
        for at, fmt, value, message in [
            (6, "<H", 0b10, "unknown flags 0x0002: only bit 0 is defined"),
            (6, "<H", 0x8001, "unknown flags 0x8001: only bit 0 is defined"),
            (8, "<I", 3, "dim 3 in an id-form pair file, expected 0"),
        ]:
            blob = bytearray(saved)
            blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
            path.write_bytes(patch_crc(bytes(blob)))
            with pytest.raises(DataFormatError, match=re.escape(message)):
                load_pairs(str(path))

    def test_truncated_header_and_wrong_magic(self, tmp_path):
        short = tmp_path / "s.sdpf"
        # the 20-byte header needs its 4-byte crc after it
        for blob in [b"SDPF\x01", b"SDPF" + bytes(16), b"SDPF" + bytes(19)]:
            short.write_bytes(blob)
            with pytest.raises(DataFormatError, match="truncated header"):
                load_pairs(str(short))
        wrong = tmp_path / "w.sdpf"
        wrong.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataFormatError, match="magic mismatch"):
            load_pairs(str(wrong))

    def test_record_count_must_match_body(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=8)
        path = tmp_path / "p.sdpf"
        save_pairs(pair_exhaustive(ds), str(path))
        blob = bytearray(path.read_bytes())
        del blob[-21:-4]  # drop one 17-byte id record, keep the stored count
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="body bytes for 28 records"):
            load_pairs(str(path))


    @pytest.mark.parametrize(
        "inline, field, value",
        [
            (True, "dim", 2**32 - 1),
            (False, "n", 2**63 - 1),
            (True, "n", 2**63 - 1),
            (False, "n", 2**62),  # n * 17 bytes is beyond int64
            (True, "n", 2**60),   # n * 49 bytes (dim 3) is beyond int64
            (True, "n", 0),       # count below the body
        ],
    )
    def test_crc_valid_hostile_header(self, tmp_path, rng42, inline, field, value):
        ds = roundtrip_ds(rng42, n=6)
        path = tmp_path / "p.sdpf"
        save_pairs(pair_exhaustive(ds), str(path), inline=inline)
        blob = bytearray(path.read_bytes())
        if field == "dim":
            blob[8:12] = struct.pack("<I", value)
        else:
            blob[12:20] = struct.pack("<Q", value)
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="body bytes"):
            load_pairs(str(path))

    def test_huge_dim_without_records(self, tmp_path):
        """Zero records leave the body check nothing to catch; the record
        layout itself is refused."""
        payload = b"SDPF" + struct.pack("<HHIQ", 1, 1, 2**32 - 1, 0)
        path = tmp_path / "p.sdpf"
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(DataFormatError, match="unsupported record layout"):
            load_pairs(str(path))

    def test_inline_body_one_byte_short(self, tmp_path, rng42):
        ds = roundtrip_ds(rng42, n=6)
        path = tmp_path / "p.sdpf"
        save_pairs(pair_exhaustive(ds), str(path), inline=True)
        blob = path.read_bytes()
        path.write_bytes(patch_crc(blob[:-5] + blob[-4:]))
        with pytest.raises(DataFormatError, match="body bytes for 15 records"):
            load_pairs(str(path))


class TestCheckpoints:
    def test_round_trip_binary_head(self, tmp_path, rng42):
        model = tiny_model(rng42)
        path = str(tmp_path / "m.ckpt")
        save_model(model, path, seed=77)
        back, seed = load_model(path)
        assert seed == 77
        assert params_equal(model, back)
        assert back.head.biases is None
        assert back.radius == model.radius
        assert back.class_count == model.class_count

    def test_round_trip_multiclass_head(self, tmp_path, rng42):
        model = tiny_model(rng42, class_count=4, hidden=(5, 4), rep_dim=3, radius=2.0)
        path = str(tmp_path / "m.ckpt")
        save_model(model, path, seed=-3)
        back, seed = load_model(path)
        assert seed == -3
        assert params_equal(model, back)
        assert back.head.biases is not None
        x = rng42.normal(size=(6, 3))
        np.testing.assert_array_equal(model.predict(x), back.predict(x))

    def test_resave_is_byte_identical(self, tmp_path, rng42):
        model = tiny_model(rng42, class_count=3)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_model(model, p1, seed=5)
        back, seed = load_model(p1)
        save_model(back, p2, seed=seed)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_corruption_and_version(self, tmp_path, rng42, capsys):
        model = tiny_model(rng42)
        path = tmp_path / "m.ckpt"
        save_model(model, str(path), seed=0)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum failure"):
            load_model(str(path))
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01  # restore
        blob[4:6] = struct.pack("<H", 9)
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="version mismatch: 9"):
            load_model(str(path))
        blob[4:8] = struct.pack("<HH", 1, 0b10)  # bit 1: no save sets it
        path.write_bytes(patch_crc(bytes(blob)))
        message = "unknown flags 0x0002: only bit 0 is defined"
        with pytest.raises(DataFormatError, match=message):
            load_model(str(path))
        assert cli_main(["eval", "--checkpoint", str(path), "--data", "unused.csv"]) == 2
        assert message in capsys.readouterr().err

    def test_truncated_header_and_magic(self, tmp_path):
        short = tmp_path / "s.ckpt"
        for blob in [b"SDCK", b"SDCK" + bytes(16), b"SDCK" + bytes(31)]:
            short.write_bytes(blob)
            with pytest.raises(DataFormatError, match="truncated header"):
                load_model(str(short))
        wrong = tmp_path / "w.ckpt"
        wrong.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(DataFormatError, match="magic mismatch"):
            load_model(str(wrong))

    @pytest.mark.parametrize("layer, code", [(0, 0), (1, 1), (0, 9)],
                             ids=["inner-linear", "last-relu", "code-9"])
    def test_unknown_activation_code(self, tmp_path, rng42, capsys, layer, code):
        """Only the one layout loads, 1 on the inner layer and 0 on the last;
        code 0 on an inner layer once loaded as an identity layer."""
        model = tiny_model(rng42)
        path = tmp_path / "m.ckpt"
        save_model(model, str(path), seed=0)
        blob = bytearray(path.read_bytes())
        at = 40 + sum(9 + l.wb.nbytes for l in model.hidden.layers[:layer])   # its activation byte
        want = int(layer == 0)
        assert blob[at] == want
        blob[at] = code
        path.write_bytes(patch_crc(bytes(blob)))
        message = f"layer {layer + 1} of 2: activation code {code}, expected {want} "
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_model(str(path))
        assert cli_main(["eval", "--checkpoint", str(path), "--data", "unused.csv"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (32, "<Q", 2**64 - 1),   # layer 0 fan_in and fan_out: count overflows int64
            (36, "<I", 0xFFFFFFFF),  # layer 0 fan_out
            (32, "<I", 0xFFFFFFFF),  # layer 0 fan_in
            (36, "<I", 31),          # layer 0 fan_out one short
            (28, "<I", 0xFFFFFFFF),  # layer count
            (28, "<I", 1),           # layer count one short
            (24, "<I", 0),           # class count
            (-28, "<I", 0xFFFFFFFF),  # head rows
            (-24, "<I", 3),           # head rep_dim
        ],
    )
    def test_crc_valid_inconsistent_counts(self, tmp_path, rng42, offset, fmt, value):
        model = tiny_model(rng42, hidden=(32,))
        path = tmp_path / "m.ckpt"
        save_model(model, str(path), seed=0)
        blob = bytearray(path.read_bytes())
        at = offset % len(blob)
        blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError):
            load_model(str(path))


    @pytest.mark.parametrize("fan_in, fan_out", [(2, 0), (0, 3)], ids=["fan_out-0", "fan_in-0"])
    def test_crc_valid_zero_width_layer(self, tmp_path, fan_in, fan_out):
        """A layer of width 0 whose counts match its bytes: a fan_out of 0
        with a rep_dim-0 head once loaded and evaluated as a constant model."""
        path = tmp_path / "m.ckpt"
        layer = (np.zeros((fan_in, fan_out)), np.zeros(fan_out), 0)
        path.write_bytes(checkpoint_bytes([layer], np.zeros((1, fan_out))))
        with pytest.raises(DataFormatError, match="both widths at least 1"):
            load_model(str(path))

    def test_byte_map(self, tmp_path):
        """save_model writes every field where docs/formats.md puts it: each
        layer's weights row-major, then its biases, then the head."""
        w1, b1 = np.arange(6.0).reshape(2, 3) / 8, np.array([0.5, -0.25, 2.0])
        w2, b2 = -np.arange(12.0).reshape(3, 4) / 16, np.array([1.0, -1.0, 0.125, 3.0])
        hidden = [(w1, b1, 1), (w2, b2, 0)]   # activation codes: relu, linear
        head_w, head_b = np.arange(12.0).reshape(3, 4) / 32 - 0.1, np.array([0.3, -0.2, 0.1])
        cases = [
            (np.arange(4.0).reshape(1, 4) / 10, None, 2, 1.5, 11),
            (head_w, head_b, 3, 0.75, -4),
        ]
        for weights, biases, class_count, radius, seed in cases:
            model = TwoPartClassifier(
                HiddenNetwork([Layer(np.vstack([w1, b1])), Layer(np.vstack([w2, b2]))]),
                radius, LinearHead(weights, biases), class_count,
            )
            path = tmp_path / "m.ckpt"
            save_model(model, str(path), seed=seed)
            assert path.read_bytes() == checkpoint_bytes(
                hidden, weights, biases, radius=radius, seed=seed, class_count=class_count)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_crc_valid_bad_radius(self, tmp_path, rng42, radius):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model(rng42), str(path), seed=0)
        blob = bytearray(path.read_bytes())
        blob[8:16] = struct.pack("<d", radius)
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="radius must be finite and positive"):
            load_model(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("part", ["layer", "head weights", "head biases"])
    def test_non_finite_parameter(self, tmp_path, rng42, part, value):
        """A checkpoint whose CRC holds but one of whose parameters is NaN
        or ±inf, as a diverged run would have written it."""
        model = tiny_model(rng42, class_count=3)
        array = {"layer": model.hidden.layers[-1].wb, "head weights": model.head.weights,
                 "head biases": model.head.biases}[part]
        array.flat[-1] = value
        path = str(tmp_path / "m.ckpt")
        save_model(model, path, seed=0)
        with pytest.raises(DataFormatError, match="non-finite parameter"):
            load_model(path)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic("moons", n_per_class=30, noise=0.2, seed=7)
        b = generate_synthetic("moons", n_per_class=30, noise=0.2, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_blobs_noise_free_is_linearly_separable(self):
        ds = generate_synthetic("blobs", n_per_class=20, noise=0.0, seed=0)
        assert np.all(ds.x[ds.y == 0, 0] < 0)
        assert np.all(ds.x[ds.y == 1, 0] > 0)

    def test_blobs_multiclass_centers_on_circle(self):
        ds = generate_synthetic("blobs", n_per_class=5, noise=0.0, seed=0, class_count=4)
        assert ds.class_count == 4
        for c in range(4):
            np.testing.assert_allclose(np.linalg.norm(ds.x[ds.y == c][0]), 2.0)

    def test_xor_corners_and_parity(self):
        ds = generate_synthetic("xor", n_per_class=10, noise=0.0, seed=0)
        # parity of the coordinate signs determines the class
        parity = (ds.x[:, 0] * ds.x[:, 1] > 0).astype(int)
        np.testing.assert_array_equal(1 - parity, ds.y)
        # class means cancel: no linear rule can split the corners
        np.testing.assert_allclose(ds.x[ds.y == 0].mean(axis=0), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ds.x[ds.y == 1].mean(axis=0), [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("kind,class_count,digest", [
        ("blobs", 2, "d2bd0002cb04025ad5711f020e3ddbd6817c74dcffa14b3e50ad17d38283d256"),
        ("blobs", 3, "cea39f725567cd6b6f6cb011c98198d6d762b2c02ededec2d828f253325dac40"),
        ("xor", 2, "b14db5c1fb9e70bd44dcf77edb572dc7a7da01f80af29194d77a29cb3fe88fd1"),
        ("moons", 2, "646cafcc1d4b7202bd749e68135514bddbf2249481626ea5557c659efa98519d"),
    ])
    def test_noisy_draws_are_pinned(self, kind, class_count, digest):
        """Seven rows per class (odd, so xor's corners split unevenly) at
        noise 0.5: the x and y bytes hash to frozen literals."""
        ds = generate_synthetic(kind, n_per_class=7, noise=0.5, seed=4, class_count=class_count)
        assert hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest() == digest

    def test_two_class_only_kinds(self):
        with pytest.raises(DataFormatError, match="two-class"):
            generate_synthetic("moons", n_per_class=5, class_count=3)
        with pytest.raises(DataFormatError, match="two-class"):
            generate_synthetic("xor", n_per_class=5, class_count=3)

    def test_unknown_kind_and_bad_count(self):
        with pytest.raises(DataFormatError, match="unknown synthetic kind"):
            generate_synthetic("spiral", n_per_class=5)
        with pytest.raises(DataFormatError, match="at least 1"):
            generate_synthetic("blobs", n_per_class=0)
