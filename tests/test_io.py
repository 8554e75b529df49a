"""File formats: CSV, IDX, pair files, checkpoints, synthetic generators."""

import struct
import zlib

import numpy as np
import pytest

from samediff import (
    DataFormatError,
    FullyLabeledDataset,
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
    write_idx,
)
from conftest import tiny_model


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
        assert open(p1, "rb").read() == open(p2, "rb").read()

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
        assert open(p1, "rb").read() == open(p2, "rb").read()

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
        assert open(p1, "rb").read() == open(p2, "rb").read()

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
        blob[4:6] = struct.pack("<H", 2)  # crc re-stamped so only version differs
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="version mismatch: 2"):
            load_pairs(str(path))

    def test_truncated_header_and_wrong_magic(self, tmp_path):
        short = tmp_path / "s.sdpf"
        short.write_bytes(b"SDPF\x01")
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
        assert model.params_equal(back)
        assert back.head.biases is None
        assert back.radius == model.radius
        assert back.class_count == model.class_count

    def test_round_trip_multiclass_head(self, tmp_path, rng42):
        model = tiny_model(rng42, class_count=4, hidden=(5, 4), rep_dim=3, radius=2.0)
        path = str(tmp_path / "m.ckpt")
        save_model(model, path, seed=-3)
        back, seed = load_model(path)
        assert seed == -3
        assert model.params_equal(back)
        assert back.head.biases is not None
        x = rng42.normal(size=(6, 3))
        np.testing.assert_array_equal(model.predict(x), back.predict(x))

    def test_resave_is_byte_identical(self, tmp_path, rng42):
        model = tiny_model(rng42, class_count=3)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_model(model, p1, seed=5)
        back, seed = load_model(p1)
        save_model(back, p2, seed=seed)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_corruption_and_version(self, tmp_path, rng42):
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

    def test_truncated_header_and_magic(self, tmp_path):
        short = tmp_path / "s.ckpt"
        short.write_bytes(b"SDCK")
        with pytest.raises(DataFormatError, match="truncated header"):
            load_model(str(short))
        wrong = tmp_path / "w.ckpt"
        wrong.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(DataFormatError, match="magic mismatch"):
            load_model(str(wrong))

    def test_unknown_activation_code(self, tmp_path, rng42):
        model = tiny_model(rng42)
        path = tmp_path / "m.ckpt"
        save_model(model, str(path), seed=0)
        blob = bytearray(path.read_bytes())
        blob[40] = 9  # activation byte of the first layer record
        path.write_bytes(patch_crc(bytes(blob)))
        with pytest.raises(DataFormatError, match="unknown activation code 9"):
            load_model(str(path))

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
