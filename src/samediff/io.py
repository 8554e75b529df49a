"""File formats: CSV datasets, IDX image files, pair files, checkpoints.

Binary layouts (all little-endian except IDX, which is big-endian by its
own convention; exact byte maps in docs/formats.md):

* frame: both binary formats are a 4-byte magic, version u16 (1), flags u16
  whose bit 0 is the format's one flag, the format's body, then the crc32
  of every byte before it.  ``_write_framed`` writes the frame and
  ``_read_framed`` checks it: length, magic, crc, version, then flags, where
  any bit but bit 0 is refused.
* pair file:  magic "SDPF", bit 0 = inline; body dim u32 (0 in id form),
  count u64, then records.  Id-form records are (a i64, b i64, t u8);
  inline records are (features_a f64*dim, features_b f64*dim, t u8) with no
  ids and no label field anywhere in the format.
* checkpoint: magic "SDCK", bit 0 = head bias; body radius f64, seed i64,
  class_count u32, layer count u32, per layer (fan_in u32, fan_out u32,
  activation u8, weights f64, biases f64), head (rows u32, rep_dim u32,
  weights f64, biases f64 if flagged).
  The network has one layout, so each activation byte is fixed: 1 (ReLU) on
  every inner layer and 0 (linear) on the last; any other byte is refused.

Loading and re-saving either format reproduces the bytes exactly, which is
what makes bit-level reproducibility checks possible downstream.  A header
no save would write back is refused.
"""

from __future__ import annotations

import math
import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .data import FullyLabeledDataset, PairDataset, validate_dataset
from .model import HiddenNetwork, Layer, LinearHead, TwoPartClassifier
from .rng import substream

__all__ = [
    "DataFormatError",
    "load_csv",
    "save_csv",
    "load_idx",
    "generate_synthetic",
    "save_pairs",
    "load_pairs",
    "save_model",
    "load_model",
]

PAIR_MAGIC = b"SDPF"
CKPT_MAGIC = b"SDCK"
FORMAT_VERSION = 1
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


# -- CSV ------------------------------------------------------------------

# np.loadtxt reads fields made of these bytes (tab, line breaks, printable
# ASCII) exactly as float() and int() do.  Outside them it can disagree:
# it strips "\x1f" as padding, and numpy 2.4 misreads some non-ASCII label
# characters and segfaults on others.
_CSV_FAST_BYTES = bytes([9, 10, 13, *range(32, 127)])
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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

    The body is parsed by one ``np.loadtxt`` call.  Where that call cannot
    be trusted to agree with Python's ``float``/``int`` (a byte outside
    printable ASCII, tab and line breaks), or where it fails, warns or finds
    a label outside ``[0, class_count)``, the per-line parser reads the file
    instead: it accepts what ``float``/``int`` accept and writes every row
    error, with its 1-based line number.  The parsed dataset is validated
    and any violation aborts the load.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1].strip() != "label":
        raise DataFormatError(f"{path}: line 1: header must end with a 'label' column")
    d = len(header) - 1
    xy = None
    if not raw.translate(None, _CSV_FAST_BYTES):
        xy = _parse_rows_numpy([ln for ln in lines[1:] if ln.strip()], d, class_count)
    if xy is None:
        xy = _parse_rows(path, lines, d, class_count)
    ds = FullyLabeledDataset.from_arrays(*xy, class_count)
    problems = validate_dataset(ds)
    if problems:
        raise DataFormatError(f"{path}: invalid dataset: " + "; ".join(problems))
    return ds



def _parse_rows_numpy(rows: list[str], d: int, class_count: int | None):
    """Features and labels of the non-blank body rows from one ``np.loadtxt``
    call, or None where the per-line parser must decide."""
    if not rows:
        return None
    fields = np.dtype([("x", "<f8", (d,)), ("y", "<i8")])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a warning is a failure, whatever numpy's version
            rec = np.loadtxt(rows, delimiter=",", comments=None, dtype=fields, ndmin=1)
    except (ValueError, OverflowError, Warning):   # the per-line parser names the fault
        return None
    y = np.ascontiguousarray(rec["y"])
    if class_count is not None and np.any((y < 0) | (y >= class_count)):
        return None
    return np.ascontiguousarray(rec["x"]), y


def _parse_rows(path: str, lines: list[str], d: int, class_count: int | None):
    """Features and labels parsed line by line, or the first line's fault."""
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
        if not _INT64_MIN <= ys[-1] <= _INT64_MAX:
            raise DataFormatError(f"{path}: line {lineno}: label outside the int64 range")
    if not xs:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.int64)



# -- IDX ------------------------------------------------------------------


def _idx_file(path: str, magic: int, n_dims: int) -> tuple[list[int], np.ndarray]:
    """An IDX file's ``n_dims`` header counts and the uint8 payload they
    announce, read in one pass; the counts are checked against the bytes
    after the header as Python ints, so no count can overflow the check."""
    with open(path, "rb") as f:
        blob = f.read()
    head = 4 * (n_dims + 1)
    if len(blob) < head:
        raise DataFormatError(f"{path}: truncated: wanted {head} bytes, got {len(blob)}")
    found, *counts = struct.unpack_from(f">{n_dims + 1}l", blob)
    if found != magic:
        raise DataFormatError(f"{path}: magic mismatch: expected {magic}, got {found}")
    if min(counts) < 0:
        raise DataFormatError(f"{path}: negative count in header: {counts}")
    want = math.prod(counts)
    if want > len(blob) - head:
        raise DataFormatError(f"{path}: truncated: wanted {want} bytes, got {len(blob) - head}")
    return counts, np.frombuffer(blob, dtype=np.uint8, count=want, offset=head)


def load_idx(
    images_path: str, labels_path: str, class_count: int | None = None
) -> FullyLabeledDataset:
    """Read an IDX image/label file pair into a flat float dataset.

    Pixels are scaled to [0, 1] as float64 and flattened row-major.
    Distinct errors for magic mismatch, negative counts, image/label count
    mismatch, payloads shorter than their header's counts, and labels the
    dataset validation rejects.
    """
    (n_images, rows, cols), raw = _idx_file(images_path, IDX_IMAGE_MAGIC, 3)
    (n_labels,), raw_labels = _idx_file(labels_path, IDX_LABEL_MAGIC, 1)
    if n_images != n_labels:
        raise DataFormatError(
            f"count mismatch: {n_images} images vs {n_labels} labels"
        )
    x = raw.astype(np.float64).reshape(n_images, rows * cols)
    x /= 255.0
    y = raw_labels.astype(np.int64)
    ds = FullyLabeledDataset.from_arrays(x, y, class_count)
    problems = validate_dataset(ds)
    if problems:
        raise DataFormatError(f"{labels_path}: invalid dataset: " + "; ".join(problems))
    return ds


# -- synthetic datasets ---------------------------------------------------


def generate_synthetic(
    kind: str,
    n_per_class: int,
    noise: float = 0.0,
    seed: int = 0,
    class_count: int = 2,
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
    if class_count < 2:
        raise DataFormatError(f"class_count must be at least 2, got {class_count}")
    if int(n_per_class) * int(class_count) * 16 > np.iinfo(np.intp).max:   # (rows, 2) float64
        raise DataFormatError(f"n_per_class {n_per_class} x class_count {class_count} rows: "
                              "too large for the address space")
    if not math.isfinite(noise):
        raise DataFormatError(f"noise must be finite, got {noise!r}")
    if kind == "blobs":
        if class_count == 2:
            centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
        else:
            ang = 2.0 * np.pi * np.arange(class_count) / class_count
            centers = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        y = np.repeat(np.arange(class_count, dtype=np.int64), n_per_class)
        x = np.repeat(centers, n_per_class, axis=0) + noise * rng.normal(size=(len(y), 2))
        return FullyLabeledDataset.from_arrays(x, y, class_count)
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
        corners = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        counts = [n_per_class - n_per_class // 2, n_per_class // 2] * 2
        y = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
        x = np.repeat(corners, counts, axis=0) + noise * rng.normal(size=(len(y), 2))
        return FullyLabeledDataset.from_arrays(x, y, 2)
    raise DataFormatError(f"unknown synthetic kind {kind!r}")


# -- binary frame ---------------------------------------------------------


def _write_framed(path: str, magic: bytes, flag: bool, body: bytes) -> None:
    """Write magic, version, flags (bit 0 = ``flag``) and body, then the
    crc32 of all of it."""
    head = magic + struct.pack("<HH", FORMAT_VERSION, int(flag))
    with open(path, "wb") as f:
        f.write(head)
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body, zlib.crc32(head))))


def _read_framed(path: str, magic: bytes, header: int, noun: str) -> tuple[bytes, bool]:
    """Read a framed file once and check its frame in order: at least
    ``header`` bytes plus the crc, magic, crc, version, flags.  Returns the
    file's bytes and flags bit 0, the only bit a save sets."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < header + 4:
        raise DataFormatError(f"{path}: truncated header")
    if blob[:4] != magic:
        raise DataFormatError(f"{path}: magic mismatch: not a {noun}")
    if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:], "little"):
        raise DataFormatError(f"{path}: checksum failure")
    version, flags = struct.unpack_from("<HH", blob, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: version mismatch: {version}")
    if flags > 1:
        raise DataFormatError(f"{path}: unknown flags {flags:#06x}: only bit 0 is defined")
    return blob, flags == 1


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
    _write_framed(path, PAIR_MAGIC, inline, struct.pack("<IQ", dim, n) + rec.tobytes())


def load_pairs(path: str, source=None) -> PairDataset:
    """Read a pair file.

    Inline files come back with slot ids 0..2n-1 over an embedded feature
    store; id-form files resolve against ``source`` when given, otherwise
    stay unresolved until a source is attached.
    """
    blob, inline = _read_framed(path, PAIR_MAGIC, 20, "pair file")
    dim, n = struct.unpack_from("<IQ", blob, 8)
    if not inline and dim != 0:
        raise DataFormatError(f"{path}: dim {dim} in an id-form pair file, expected 0")
    body = memoryview(blob)[20:-4]
    # Python ints: a hostile count or dim cannot overflow this check.
    if len(body) != n * (16 * dim + 1 if inline else 17):
        raise DataFormatError(f"{path}: truncated: {len(body)} body bytes for {n} records")
    try:
        rec = np.frombuffer(body, dtype=_pair_records(dim, inline), count=n)
    except ValueError as e:
        raise DataFormatError(f"{path}: unsupported record layout: {e}") from None
    try:
        if inline:
            return PairDataset.inline(rec["a"], rec["b"], rec["t"])
        return PairDataset(a_ids=rec["a"], b_ids=rec["b"], t=rec["t"], source=source)
    except ValueError as e:  # non-canonical ids or an agreement byte above 1
        raise DataFormatError(f"{path}: invalid records: {e}") from None


# -- checkpoints ----------------------------------------------------------


def save_model(model: TwoPartClassifier, path: str, seed: int = 0) -> None:
    """Write the full parameter state; float64 throughout, crc-terminated."""
    parts = [struct.pack("<dqII", float(model.radius), int(seed), model.class_count,
                         len(model.hidden.layers))]
    for i, layer in enumerate(model.hidden.layers, start=1):
        fan_in, fan_out = layer.wb.shape[0] - 1, layer.wb.shape[1]
        act = int(i < len(model.hidden.layers))   # ReLU on every layer but the last
        parts.append(struct.pack("<IIB", fan_in, fan_out, act))
        parts.append(layer.wb.astype("<f8").tobytes())
    rows, rep_dim = model.head.weights.shape
    parts.append(struct.pack("<II", rows, rep_dim))
    parts.append(model.head.weights.astype("<f8").tobytes())
    if model.head.biases is not None:
        parts.append(model.head.biases.astype("<f8").tobytes())
    _write_framed(path, CKPT_MAGIC, model.head.biases is not None, b"".join(parts))


def load_model(path: str) -> tuple[TwoPartClassifier, int]:
    """Read a checkpoint back; returns the model and its training seed.

    A file whose counts or parameters are inconsistent, whose activation
    bytes differ from the one layout, or whose parameters hold a non-finite
    value, raises ``DataFormatError`` even when its checksum is valid.
    """
    blob, biased = _read_framed(path, CKPT_MAGIC, 32, "checkpoint")
    try:
        return _parse_checkpoint(blob, biased, path)
    except DataFormatError:
        raise
    except (struct.error, ValueError, OverflowError) as e:
        raise DataFormatError(f"{path}: corrupt checkpoint: {e}") from None


def _parse_checkpoint(blob: bytes, biased: bool, path: str) -> tuple[TwoPartClassifier, int]:
    radius, seed, class_count, n_layers = struct.unpack_from("<dqII", blob, 8)
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
    for i in range(1, n_layers + 1):
        fan_in, fan_out, act = struct.unpack_from("<IIB", blob, off)
        off += 9
        wb = floats(fan_in + 1, fan_out)
        want = int(i < n_layers)   # ReLU on every layer but the last
        if act != want:
            raise DataFormatError(f"{path}: layer {i} of {n_layers}: activation code {act}, "
                                  f"expected {want} (ReLU after every layer but the last)")
        layers.append(Layer(wb))
    rows, rep_dim = struct.unpack_from("<II", blob, off)
    off += 8
    hw = floats(rows, rep_dim)
    hb = floats(rows) if biased else None
    if off != end:
        raise DataFormatError(f"{path}: truncated or oversized parameter block")
    model = TwoPartClassifier(
        hidden=HiddenNetwork(layers),
        radius=radius,
        head=LinearHead(weights=hw, biases=hb),
        class_count=class_count,
    )
    if not model.all_finite():
        raise DataFormatError(f"{path}: non-finite parameter")
    return model, int(seed)
