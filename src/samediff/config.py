"""Run configuration: one nested JSON document, strictly validated.

Unknown keys abort immediately with the offending dotted path, so typos
cannot silently fall back to defaults.  All sections except ``version`` and
``dataset`` are optional; every knob has the trainer's defaults.
"""

from __future__ import annotations

import json
from dataclasses import replace

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
]

CONFIG_VERSION = 1

_ALLOWED: dict[str, set[str] | None] = {
    "version": None,
    "dataset": {
        "kind", "n_per_class", "noise", "seed", "class_count", "path",
        "images", "labels", "test_path", "test_images", "test_labels",
        "limit", "test_limit", "test_n_per_class",
    },
    "model": {"hidden", "rep_dim", "radius", "binary_head"},
    "train": {
        "batch_size", "schedule", "head_rate", "head_epochs", "seed",
        "pair_loss", "head_loss", "beta", "val_fraction",
    },
    "pairing": {"mode", "n_pairs", "class_batch_size", "seed"},
    "labels": {"per_class"},
    "sweep": {"n1", "n2", "reps"},
    "compare": {"trials", "n_pairs", "labels_per_class"},
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


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return validate_config(doc)


def _load_one(section: dict, path_key: str, images_key: str, labels_key: str,
              class_count, limit_key: str) -> FullyLabeledDataset | None:
    if section.get(path_key):
        ds = load_csv(section[path_key], class_count)
    elif section.get(images_key) and section.get(labels_key):
        ds = load_idx(section[images_key], section[labels_key], class_count)
    else:
        return None
    limit = section.get(limit_key)
    if limit:
        ds = ds.subset(np.arange(min(int(limit), len(ds))))
    return ds


def build_datasets(doc: dict) -> tuple[FullyLabeledDataset, FullyLabeledDataset]:
    """Materialize (train, test) from the dataset section."""
    sec = doc["dataset"]
    kind = sec.get("kind")
    if kind in ("blobs", "moons", "xor"):
        common = dict(
            kind=kind,
            noise=float(sec.get("noise", 0.5)),
            class_count=int(sec.get("class_count", 2)),
        )
        seed = int(sec.get("seed", 0))
        train = generate_synthetic(
            n_per_class=int(sec.get("n_per_class", 500)), seed=seed, **common
        )
        test = generate_synthetic(
            n_per_class=int(sec.get("test_n_per_class", sec.get("n_per_class", 500))),
            seed=seed + 1, **common
        )
        return train, test
    if kind in ("csv", "idx"):
        cc = sec.get("class_count")
        train = _load_one(sec, "path", "images", "labels", cc, "limit")
        test = _load_one(sec, "test_path", "test_images", "test_labels", cc, "test_limit")
        if train is None or test is None:
            raise ConfigError("dataset paths missing for train or test split")
        return train, test
    raise ConfigError(f"unknown dataset kind {kind!r}")


def build_model(doc: dict, ds: FullyLabeledDataset, seed: int) -> TwoPartClassifier:
    """The configured model for training on ``ds``.

    A class count above the row count is refused: the head holds a row
    per class, and a stray large label would otherwise size it.
    """
    if ds.class_count > len(ds):
        raise ConfigError(f"{ds.class_count} classes exceed the {len(ds)} training rows")
    sec = doc.get("model", {})
    head_loss = doc.get("train", {}).get("head_loss", "hinge")
    binary = sec.get("binary_head")
    if binary is None:
        binary = ds.class_count == 2 and head_loss == "hinge"
    try:
        return TwoPartClassifier.build(
            in_dim=ds.dim,
            hidden_dims=[int(h) for h in sec.get("hidden", [32])],
            rep_dim=int(sec.get("rep_dim", 2)),
            class_count=ds.class_count,
            radius=float(sec.get("radius", 1.0)),
            binary_head=bool(binary),
            rng=substream(seed, "init"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_train_config(doc: dict) -> TrainConfig:
    sec = doc.get("train", {})
    kwargs = {}
    if "schedule" in sec:
        kwargs["schedule"] = tuple((float(lr), int(ep)) for lr, ep in sec["schedule"])
    for key in ("batch_size", "head_epochs", "seed"):
        if key in sec:
            kwargs[key] = int(sec[key])
    for key in ("head_rate", "val_fraction"):
        if key in sec:
            kwargs[key] = float(sec[key])
    for key in ("pair_loss", "head_loss"):
        if key in sec and sec[key] is not None:
            kwargs[key] = str(sec[key])
    if "beta" in sec and sec["beta"] is not None:
        kwargs["beta"] = float(sec["beta"])
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_pairing_config(doc: dict) -> PairingConfig:
    sec = doc.get("pairing", {})
    try:
        return PairingConfig(
            mode=sec.get("mode", "sampled"),
            n_pairs=int(sec.get("n_pairs", 0)),
            class_batch_size=sec.get("class_batch_size"),
            seed=int(sec.get("seed", doc.get("train", {}).get("seed", 0))),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
