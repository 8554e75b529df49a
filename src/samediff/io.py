"""File formats: CSV datasets, IDX image files, pair files, checkpoints.

Binary layouts (all little-endian except IDX, which is big-endian by its
own convention; exact byte maps in docs/formats.md):

* pair file:  magic "SDPF", version u16, flags u16 (bit 0 = inline),
  dim u32, count u64, then records, then crc32 over everything before it.
  Id-form records are (a i64, b i64, t u8); inline records are
  (features_a f64*dim, features_b f64*dim, t u8) with no ids and no label
  field anywhere in the format.
* checkpoint: magic "SDCK", version u16, flags u16 (bit 0 = head bias),
  radius f64, seed i64, class_count u32, layer count u32, per layer
  (fan_in u32, fan_out u32, activation u8, weights f64, biases f64), head
  (rows u32, rep_dim u32, weights f64, biases f64 if flagged), crc32.

Loading and re-saving either format reproduces the bytes exactly, which is
what makes bit-level reproducibility checks possible downstream.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import EmbeddedFeatures, FullyLabeledDataset, PairDataset, validate_dataset
from .model import (
    HiddenNetwork,
    Layer,
    LinearHead,
    NormalizedFeatureMap,
    TwoPartClassifier,
)
from .rng import substream

__all__ = [
    "DataFormatError",
    "load_csv",
    "save_csv",
    "load_idx",
    "write_idx",
    "generate_synthetic",
    "save_pairs",
    "load_pairs",
    "save_model",
    "load_model",
]

PAIR_MAGIC = b"SDPF"
PAIR_VERSION = 1
CKPT_MAGIC = b"SDCK"
CKPT_VERSION = 1
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

_ACT_CODES = {"identity": 0, "relu": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


# -- CSV ------------------------------------------------------------------


def save_csv(ds: FullyLabeledDataset, path: str) -> None:
    """Write features and labels; float text is repr-exact for round-trips."""
    with open(path, "w", encoding="utf-8") as f:
        cols = [f"f{j}" for j in range(ds.dim)] + ["label"]
        f.write(",".join(cols) + "\n")
        for k in range(len(ds)):
            vals = [repr(float(v)) for v in ds.x[k]] + [str(int(ds.y[k]))]
            f.write(",".join(vals) + "\n")


def load_csv(path: str, class_count: int | None = None) -> FullyLabeledDataset:
    """Parse a feature/label CSV; the last column must be named 'label'.

    Errors carry 1-based line numbers.  The parsed dataset is validated and
    any violation aborts the load.
    """
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


# -- IDX ------------------------------------------------------------------


def _read_exact(f, n: int, path: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataFormatError(f"{path}: truncated: wanted {n} bytes, got {len(buf)}")
    return buf


def load_idx(
    images_path: str, labels_path: str, class_count: int | None = None
) -> FullyLabeledDataset:
    """Read an IDX image/label file pair into a flat float dataset.

    Pixels are scaled to [0, 1] as float64 and flattened row-major.
    Distinct errors for magic mismatch, image/label count mismatch, and
    truncated payloads.
    """
    with open(images_path, "rb") as f:
        magic, n_images, rows, cols = struct.unpack(">llll", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: magic mismatch: expected {IDX_IMAGE_MAGIC}, got {magic}"
            )
        raw = _read_exact(f, n_images * rows * cols, images_path)
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">ll", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: magic mismatch: expected {IDX_LABEL_MAGIC}, got {magic}"
            )
        raw_labels = _read_exact(f, n_labels, labels_path)
    if n_images != n_labels:
        raise DataFormatError(
            f"count mismatch: {n_images} images vs {n_labels} labels"
        )
    x = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(n_images, rows * cols)
    x /= 255.0
    y = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return FullyLabeledDataset.from_arrays(x, y, class_count)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write (n, rows, cols) uint8 images and uint8 labels as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">llll", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ll", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


# -- synthetic datasets ---------------------------------------------------


def generate_synthetic(
    kind: str,
    n_per_class: int,
    noise: float = 0.0,
    seed: int = 0,
    class_count: int = 2,
    centers: np.ndarray | None = None,
) -> FullyLabeledDataset:
    """Deterministic toy datasets.

    * blobs: one Gaussian per class; default centers (-2, 0) and (2, 0)
      for two classes, otherwise spread on a radius-2 circle.  Linearly
      separable at noise 0.
    * moons: two interleaved half-circles, not linearly separable.
    * xor:   four corner clusters with parity labels, the classic
      not-linearly-separable case.
    """
    rng = substream(seed, "synthetic", kind)
    if n_per_class < 1:
        raise DataFormatError("n_per_class must be at least 1")
    if kind == "blobs":
        if centers is None:
            if class_count == 2:
                centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
            else:
                ang = 2.0 * np.pi * np.arange(class_count) / class_count
                centers = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape[0] != class_count:
            raise DataFormatError("one center per class required")
        xs, ys = [], []
        for c in range(class_count):
            pts = centers[c] + noise * rng.normal(size=(n_per_class, centers.shape[1]))
            xs.append(pts)
            ys.append(np.full(n_per_class, c, dtype=np.int64))
        return FullyLabeledDataset.from_arrays(np.vstack(xs), np.concatenate(ys), class_count)
    if kind == "moons":
        if class_count != 2:
            raise DataFormatError("moons is a two-class dataset")
        a0 = rng.uniform(0.0, np.pi, size=n_per_class)
        a1 = rng.uniform(0.0, np.pi, size=n_per_class)
        outer = np.stack([np.cos(a0), np.sin(a0)], axis=1)
        inner = np.stack([1.0 - np.cos(a1), 0.5 - np.sin(a1)], axis=1)
        x = np.vstack([outer, inner]) + noise * rng.normal(size=(2 * n_per_class, 2))
        y = np.concatenate([np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)])
        return FullyLabeledDataset.from_arrays(x, y, 2)
    if kind == "xor":
        if class_count != 2:
            raise DataFormatError("xor is a two-class dataset")
        corners = {0: [(1.0, 1.0), (-1.0, -1.0)], 1: [(1.0, -1.0), (-1.0, 1.0)]}
        xs, ys = [], []
        for c in (0, 1):
            counts = [n_per_class - n_per_class // 2, n_per_class // 2]
            for corner, cnt in zip(corners[c], counts):
                if cnt == 0:
                    continue
                pts = np.array(corner) + noise * rng.normal(size=(cnt, 2))
                xs.append(pts)
                ys.append(np.full(cnt, c, dtype=np.int64))
        return FullyLabeledDataset.from_arrays(np.vstack(xs), np.concatenate(ys), 2)
    raise DataFormatError(f"unknown synthetic kind {kind!r}")


# -- pair files -----------------------------------------------------------


def _pair_records(dim: int, inline: bool) -> np.dtype:
    """One SDPF record: the two sides (ids, or dim features each) and t."""
    side = ("<f8", (dim,)) if inline else ("<i8",)
    return np.dtype([("a", *side), ("b", *side), ("t", "u1")])


def save_pairs(pairs: PairDataset, path: str, inline: bool = False) -> None:
    """Serialize a pair set; inline form embeds features and drops all ids.

    Neither form ever contains class labels, only the agreement bit.
    """
    n = len(pairs)
    if inline:
        a, b, t = pairs.gather()
        dim = a.shape[1]
    else:
        a, b, t = pairs.a_ids, pairs.b_ids, pairs.t
        dim = 0
    rec = np.empty(n, dtype=_pair_records(dim, inline))
    rec["a"], rec["b"], rec["t"] = a, b, t
    payload = PAIR_MAGIC + struct.pack("<HHIQ", PAIR_VERSION, int(inline), dim, n) + rec.tobytes()
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_pairs(path: str, source=None) -> PairDataset:
    """Read a pair file.

    Inline files come back with slot ids 0..2n-1 over an embedded feature
    store; id-form files resolve against ``source`` when given, otherwise
    stay unresolved until a source is attached.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20:
        raise DataFormatError(f"{path}: truncated header")
    if blob[:4] != PAIR_MAGIC:
        raise DataFormatError(f"{path}: magic mismatch: not a pair file")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise DataFormatError(f"{path}: checksum failure")
    version, flags, dim, n = struct.unpack("<HHIQ", blob[4:20])
    if version != PAIR_VERSION:
        raise DataFormatError(f"{path}: version mismatch: {version}")
    inline = bool(flags & 1)
    body = memoryview(blob)[20:-4]
    # Python ints: a hostile count or dim cannot overflow this check.
    if len(body) != n * (16 * dim + 1 if inline else 17):
        raise DataFormatError(f"{path}: truncated: {len(body)} body bytes for {n} records")
    try:
        rec = np.frombuffer(body, dtype=_pair_records(dim, inline), count=n)
    except ValueError as e:
        raise DataFormatError(f"{path}: unsupported record layout: {e}") from None
    if inline:
        slot_x = np.empty((2 * n, dim))
        slot_x[0::2] = rec["a"]
        slot_x[1::2] = rec["b"]
        source = EmbeddedFeatures(ids=np.arange(2 * n, dtype=np.int64), x=slot_x)
        a, b = np.arange(0, 2 * n, 2, dtype=np.int64), np.arange(1, 2 * n, 2, dtype=np.int64)
    else:
        a, b = rec["a"], rec["b"]
    try:
        return PairDataset(a_ids=a, b_ids=b, t=rec["t"], source=source)
    except ValueError as e:  # non-canonical ids or an agreement byte above 1
        raise DataFormatError(f"{path}: invalid records: {e}") from None


# -- checkpoints ----------------------------------------------------------


def save_model(model: TwoPartClassifier, path: str, seed: int = 0) -> None:
    """Write the full parameter state; float64 throughout, crc-terminated."""
    flags = 0
    if model.head.biases is not None:
        flags |= 1
    parts = [
        CKPT_MAGIC,
        struct.pack(
            "<HHdqII",
            CKPT_VERSION,
            flags,
            float(model.radius),
            int(seed),
            model.class_count,
            len(model.hidden.layers),
        ),
    ]
    for layer in model.hidden.layers:
        fan_in, fan_out = layer.w.shape
        parts.append(struct.pack("<IIB", fan_in, fan_out, _ACT_CODES[layer.activation]))
        parts.append(layer.w.astype("<f8").tobytes())
        parts.append(layer.b.astype("<f8").tobytes())
    rows, rep_dim = model.head.weights.shape
    parts.append(struct.pack("<II", rows, rep_dim))
    parts.append(model.head.weights.astype("<f8").tobytes())
    if model.head.biases is not None:
        parts.append(model.head.biases.astype("<f8").tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_model(path: str) -> tuple[TwoPartClassifier, int]:
    """Read a checkpoint back; returns the model and its training seed.

    A file whose counts or parameters are inconsistent raises
    ``DataFormatError`` even when its checksum is valid.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 36:
        raise DataFormatError(f"{path}: truncated header")
    if blob[:4] != CKPT_MAGIC:
        raise DataFormatError(f"{path}: magic mismatch: not a checkpoint")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise DataFormatError(f"{path}: checksum failure")
    try:
        return _parse_checkpoint(blob, path)
    except DataFormatError:
        raise
    except (struct.error, ValueError, OverflowError) as e:
        raise DataFormatError(f"{path}: corrupt checkpoint: {e}") from None


def _parse_checkpoint(blob: bytes, path: str) -> tuple[TwoPartClassifier, int]:
    version, flags, radius, seed, class_count, n_layers = struct.unpack(
        "<HHdqII", blob[4:32]
    )
    if version != CKPT_VERSION:
        raise DataFormatError(f"{path}: version mismatch: {version}")
    end = len(blob) - 4
    off = 32

    def floats(*shape) -> np.ndarray:
        # Every count is checked against the bytes left before it is read.
        nonlocal off
        count = math.prod(shape)
        if 8 * count > end - off:
            raise DataFormatError(
                f"{path}: parameter block of {count} values overruns the file"
            )
        out = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off += 8 * count
        return out

    layers = []
    for _ in range(n_layers):
        fan_in, fan_out, act = struct.unpack_from("<IIB", blob, off)
        off += 9
        w = floats(fan_in, fan_out)
        b = floats(fan_out)
        if act not in _ACT_NAMES:
            raise DataFormatError(f"{path}: unknown activation code {act}")
        layers.append(Layer(w=w, b=b, activation=_ACT_NAMES[act]))
    rows, rep_dim = struct.unpack_from("<II", blob, off)
    off += 8
    hw = floats(rows, rep_dim)
    hb = floats(rows) if flags & 1 else None
    if off != end:
        raise DataFormatError(f"{path}: truncated or oversized parameter block")
    model = TwoPartClassifier(
        hidden=HiddenNetwork(layers),
        phi=NormalizedFeatureMap(radius),
        head=LinearHead(weights=hw, biases=hb),
        class_count=class_count,
    )
    return model, int(seed)
