"""Run configuration: one nested JSON document, strictly validated.

This module alone reads the document, and ``docs/formats.md`` lists every
key it accepts.  Unknown keys abort immediately with the offending dotted
path, so typos cannot silently fall back to defaults; a ``dataset``
section accepts only the keys its ``kind`` reads.  Every value is read
through ``_read``, which refuses a value of the wrong JSON type the same
way.  All sections except ``version`` and ``dataset`` are optional; every
knob has the trainer's defaults.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .data import FullyLabeledDataset
from .harness import SweepSpec
from .io import generate_synthetic, load_csv, load_idx
from .model import TwoPartClassifier
from .pairing import PairingConfig
from .rng import substream
from .trainer import TrainConfig

__all__ = [
    "ConfigError",
    "load_config",
    "validate_config",
    "build_datasets",
    "build_model",
    "build_train_config",
    "build_pairing_config",
    "build_label_budget",
    "build_sweep_spec",
    "build_compare_trials",
    "build_out_dir",
]

CONFIG_VERSION = 1

# Each file kind's (train, test) file keys, in its loader's argument order.
_SPLIT_FILES = {
    "csv": (("path",), ("test_path",)),
    "idx": (("images", "labels"), ("test_images", "test_labels")),
}
# The keys each dataset kind reads.
_DATASET_KEYS: dict[str, set[str]] = {
    **dict.fromkeys(("blobs", "moons", "xor"),
                    {"kind", "n_per_class", "noise", "seed", "class_count"}),
    **{kind: {"kind", "class_count", "limit", "test_limit", *train, *test}
       for kind, (train, test) in _SPLIT_FILES.items()},
}

_ALLOWED: dict[str, set[str] | None] = {
    "version": None,
    "dataset": set().union(*_DATASET_KEYS.values()),   # narrowed to its kind's keys
    "model": {"hidden", "rep_dim", "radius"},
    "train": {f.name for f in fields(TrainConfig)},
    "pairing": {f.name for f in fields(PairingConfig)},
    "labels": {"per_class"},
    "sweep": {"n1", "n2", "reps"},
    "compare": {"trials"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    """Bad run configuration."""


def validate_config(doc: dict) -> dict:
    """Reject unknown keys at any level, and dataset keys the section's
    kind does not read; returns the document unchanged.  A dataset section
    without a kind may hold any kind's keys: ``build_datasets`` refuses it."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    for key, value in doc.items():
        if key not in _ALLOWED:
            raise ConfigError(f"unknown key {key!r}")
        allowed = _ALLOWED[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be an object")
        where = ""
        if key == "dataset" and "kind" in value:
            kind = _typed("dataset.kind", value["kind"], str)
            if kind not in _DATASET_KEYS:
                raise ConfigError(f"unknown dataset kind {kind!r}")
            allowed, where = _DATASET_KEYS[kind], f" for dataset kind {kind!r}"
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown key {key}.{sub}{where}")
    if "version" not in doc:
        raise ConfigError("missing required key 'version'")
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {doc['version']!r}")
    if "dataset" not in doc:
        raise ConfigError("missing required section 'dataset'")
    return doc


def _cast(value, kind):
    """A JSON value as ``kind``: int, float (from any number), str or bool;
    a tuple of kinds for a fixed-length array, or a one-kind list for an
    array of any length.  TypeError when the value has another JSON type."""
    if isinstance(kind, list) and isinstance(value, list):
        return [_cast(v, kind[0]) for v in value]
    if isinstance(kind, tuple) and isinstance(value, list) and len(value) == len(kind):
        return tuple(map(_cast, value, kind))
    if (isinstance(kind, type) and isinstance(value, bool) == (kind is bool)   # true is no 1
            and isinstance(value, (int, float) if kind is float else kind)):
        return kind(value)
    raise TypeError(kind)


def _noun(kind) -> str:
    if isinstance(kind, list):
        return f"list of {_noun(kind[0])}s"
    if isinstance(kind, tuple):
        return f"[{', '.join(map(_noun, kind))}] pair"
    return {int: "integer", float: "number", str: "string", bool: "boolean"}[kind]


def _typed(key: str, value, kind):
    """``value`` as ``kind`` (see ``_cast``); a ``ConfigError`` naming the
    dotted ``key`` when it has another JSON type."""
    try:
        return _cast(value, kind)
    except TypeError:
        noun = _noun(kind)
        raise ConfigError(f"{key} must be {'an' if noun[0] in 'aeiou' else 'a'} {noun}, "
                          f"got {json.dumps(value)}") from None


def _read(doc: dict, key: str, kind, default=None):
    """The value at the dotted ``key`` ("section.name") as ``kind``, or
    ``default`` when it is absent.  Null counts as absent only where the
    default is None; any other mistyped value is a ``ConfigError`` naming
    the key."""
    section, name = key.split(".")
    sec = doc.get(section, {})
    if name not in sec or (sec[name] is None and default is None):
        return default
    return _typed(key, sec[name], kind)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, RecursionError) as e:   # RecursionError: nested too deep
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return validate_config(doc)


def _load_one(doc: dict, kind: str, file_keys: tuple[str, ...], limit_key: str,
              class_count) -> FullyLabeledDataset | None:
    """One split of a file kind, or None when a file key is missing."""
    files = [_read(doc, f"dataset.{key}", str) for key in file_keys]
    limit = _read(doc, f"dataset.{limit_key}", int)
    if limit is not None and limit < 1:
        raise ConfigError(f"dataset.{limit_key} must be at least 1, got {limit}")
    if not all(files):
        return None
    ds = (load_csv if kind == "csv" else load_idx)(*files, class_count)
    if limit is not None:
        ds = ds.subset(np.arange(min(limit, len(ds))))
    return ds


def build_datasets(doc: dict) -> tuple[FullyLabeledDataset, FullyLabeledDataset]:
    """Materialize (train, test) from the dataset section.

    A class count above the training rows is refused: the model's head
    holds a row per class, and a stray large label would otherwise size it.
    """
    kind = _read(doc, "dataset.kind", str)
    if kind in ("blobs", "moons", "xor"):
        common = dict(
            kind=kind,
            noise=_read(doc, "dataset.noise", float, 0.5),
            class_count=_read(doc, "dataset.class_count", int, 2),
        )
        seed = _read(doc, "dataset.seed", int, 0)
        n_per_class = _read(doc, "dataset.n_per_class", int, 500)
        train = generate_synthetic(n_per_class=n_per_class, seed=seed, **common)
        test = generate_synthetic(n_per_class=n_per_class, seed=seed + 1, **common)
    elif kind in _SPLIT_FILES:
        cc = _read(doc, "dataset.class_count", int)
        train_files, test_files = _SPLIT_FILES[kind]
        train = _load_one(doc, kind, train_files, "limit", cc)
        test = _load_one(doc, kind, test_files, "test_limit", cc)
        if train is None or test is None:
            raise ConfigError("dataset paths missing for train or test split")
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if train.class_count > len(train):
        raise ConfigError(f"{train.class_count} classes exceed the {len(train)} training rows")
    return train, test


def build_model(doc: dict, ds: FullyLabeledDataset, seed: int) -> TwoPartClassifier:
    """The configured model for training on ``ds``: its head is the
    bias-free single row exactly when ``ds`` has two classes and the head
    loss is hinge."""
    binary = ds.class_count == 2 and _read(doc, "train.head_loss", str, "hinge") == "hinge"
    try:
        return TwoPartClassifier.build(
            in_dim=ds.dim,
            hidden_dims=_read(doc, "model.hidden", [int], [32]),
            rep_dim=_read(doc, "model.rep_dim", int, 2),
            class_count=ds.class_count,
            radius=_read(doc, "model.radius", float, 1.0),
            binary_head=binary,
            rng=substream(seed, "init"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


_TRAIN_KINDS = {
    "batch_size": int, "schedule": [(float, int)], "head_rate": float, "head_epochs": int,
    "seed": int, "pair_loss": str, "head_loss": str, "beta": float, "val_fraction": float,
}


def build_train_config(doc: dict) -> TrainConfig:
    defaults = TrainConfig()
    kwargs = {key: _read(doc, f"train.{key}", kind, getattr(defaults, key))
              for key, kind in _TRAIN_KINDS.items()}
    kwargs["schedule"] = tuple(kwargs["schedule"])
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_pairing_config(doc: dict, train_ds: FullyLabeledDataset) -> PairingConfig:
    """The pairing of ``train_ds``'s N records.  The default budget is N/4 under
    disjoint pairing (half the records paired, the labels drawn from the rest)
    and otherwise max(2N, 1000), capped at the N(N-1)/2 distinct pairs."""
    mode = _read(doc, "pairing.mode", str, "sampled")
    n = len(train_ds)
    default_pairs = (max(n // 4, 1) if mode == "disjoint"
                     else min(max(2 * n, 1000), n * (n - 1) // 2))
    try:
        return PairingConfig(
            mode=mode,
            n_pairs=_read(doc, "pairing.n_pairs", int, default_pairs),
            class_batch_size=_read(doc, "pairing.class_batch_size", int),
            seed=_read(doc, "pairing.seed", int, _read(doc, "train.seed", int, 0)),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_label_budget(doc: dict, train_ds: FullyLabeledDataset) -> int:
    """``labels.per_class`` (default 1, at least 1) times the class count,
    at most the training rows."""
    per_class = _read(doc, "labels.per_class", int, 1)
    if per_class < 1:
        raise ConfigError(f"labels.per_class must be at least 1, got {per_class}")
    budget = per_class * train_ds.class_count
    if budget > len(train_ds):
        raise ConfigError(f"labels.per_class {per_class} times {train_ds.class_count} classes "
                          f"exceeds the {len(train_ds)} training rows")
    return budget


def build_sweep_spec(doc: dict) -> SweepSpec:
    """The ``sweep`` section's grid: its n1 and n2 lists, required, and
    ``reps`` (default 5)."""
    n1_values, n2_values = _read(doc, "sweep.n1", [int]), _read(doc, "sweep.n2", [int])
    if n1_values is None or n2_values is None:
        raise ConfigError("sweep command needs a sweep section with n1 and n2 lists")
    try:
        return SweepSpec(tuple(n1_values), tuple(n2_values), _read(doc, "sweep.reps", int, 5))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_compare_trials(doc: dict) -> int:
    """``compare.trials``, default 5."""
    return _read(doc, "compare.trials", int, 5)


def build_out_dir(doc: dict, given: str | None) -> str:
    """``given`` (the command line's ``--out-dir``) when set, else
    ``output.dir``, else the working directory; ``output.dir`` is read
    either way, so a mistyped one is refused."""
    configured = _read(doc, "output.dir", str)
    return given or configured or "."
