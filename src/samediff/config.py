"""Run configuration: one nested JSON document, strictly validated.

Unknown keys abort immediately with the offending dotted path, so typos
cannot silently fall back to defaults, and every value is read through
``_read``, which refuses a value of the wrong JSON type the same way.  All
sections except ``version`` and ``dataset`` are optional; every knob has
the trainer's defaults.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .data import FullyLabeledDataset
from .io import DataFormatError, generate_synthetic, load_csv, load_idx
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
]

CONFIG_VERSION = 1

_ALLOWED: dict[str, set[str] | None] = {
    "version": None,
    "dataset": {
        "kind", "n_per_class", "noise", "seed", "class_count", "path",
        "images", "labels", "test_path", "test_images", "test_labels",
        "limit", "test_limit",
    },
    "model": {"hidden", "rep_dim", "radius", "binary_head"},
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
    """Reject unknown keys at any level; returns the document unchanged."""
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
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown key {key}.{sub}")
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


def _read(doc: dict, key: str, kind, default=None):
    """The value at the dotted ``key`` ("section.name") as ``kind`` (see
    ``_cast``), or ``default`` when it is absent.  Null counts as absent
    only where the default is None; any other mistyped value is a
    ``ConfigError`` naming the key."""
    section, name = key.split(".")
    sec = doc.get(section, {})
    if name not in sec or (sec[name] is None and default is None):
        return default
    try:
        return _cast(sec[name], kind)
    except TypeError:
        noun = _noun(kind)
        raise ConfigError(f"{key} must be {'an' if noun[0] in 'aeiou' else 'a'} {noun}, "
                          f"got {json.dumps(sec[name])}") from None


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, RecursionError) as e:   # RecursionError: nested too deep
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return validate_config(doc)


def _load_one(doc: dict, path_key: str, images_key: str, labels_key: str,
              class_count, limit_key: str) -> FullyLabeledDataset | None:
    path, images, labels = (_read(doc, f"dataset.{key}", str)
                            for key in (path_key, images_key, labels_key))
    limit = _read(doc, f"dataset.{limit_key}", int)
    if limit is not None and limit < 1:
        raise ConfigError(f"dataset.{limit_key} must be at least 1, got {limit}")
    if path:
        ds = load_csv(path, class_count)
    elif images and labels:
        ds = load_idx(images, labels, class_count)
    else:
        return None
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
    elif kind in ("csv", "idx"):
        cc = _read(doc, "dataset.class_count", int)
        train = _load_one(doc, "path", "images", "labels", cc, "limit")
        test = _load_one(doc, "test_path", "test_images", "test_labels", cc, "test_limit")
        if train is None or test is None:
            raise ConfigError("dataset paths missing for train or test split")
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if train.class_count > len(train):
        raise ConfigError(f"{train.class_count} classes exceed the {len(train)} training rows")
    return train, test


def build_model(doc: dict, ds: FullyLabeledDataset, seed: int) -> TwoPartClassifier:
    """The configured model for training on ``ds``."""
    binary = _read(doc, "model.binary_head", bool)
    if binary is None:
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
