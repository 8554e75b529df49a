"""Core containers for fully-labeled examples and same/different pair labels.

A fully-labeled example carries a class index.  A pair label only records
whether two examples share a class (t = 1) or not (t = 0); that single bit is
the supervision consumed by the representation stage.  ``sufficient_label``
is the one definition of that pair statistic: every pair constructor and the
online trainer compute t through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "FullyLabeledDataset",
    "EmbeddedFeatures",
    "PairDataset",
    "sufficient_label",
    "validate_dataset",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class _IdLookup:
    """Vectorised id -> row lookup for a feature source with ``ids`` and ``x``.

    Uses a cached stable argsort of the ids and matches a ``{id: row}`` dict
    built in row order: a duplicate id resolves to its last row, and an
    unknown id raises ``KeyError``.
    """

    @cached_property
    def _id_order(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.ids, kind="stable")
        return order, self.ids[order]

    def positions_of(self, ids) -> np.ndarray:
        """Row positions of the given ids, in the given order."""
        order, sorted_ids = self._id_order
        q = np.asarray(ids, dtype=np.int64).ravel()
        # side="right" lands after the last of equal ids; k = -1 (below
        # every id) wraps to the largest id, which cannot equal q.
        k = np.searchsorted(sorted_ids, q, side="right") - 1
        hit = sorted_ids[k] == q if len(sorted_ids) else np.zeros(len(q), dtype=bool)
        if not hit.all():
            raise KeyError(f"unknown example id {q[np.argmin(hit)]}")
        return order[k]


def sufficient_label(y_a, y_b) -> np.ndarray:
    """The pair statistic t = 1[y = y']: uint8, 1 where the class labels agree.

    Elementwise over arrays of labels; scalars give a 0-d array.
    """
    return np.equal(y_a, y_b).astype(np.uint8)


@dataclass(frozen=True)
class FullyLabeledDataset(_IdLookup):
    """Ordered collection of examples with unique ids and a declared class count.

    Arrays are read-only after construction.  Use ``from_arrays`` for dtype
    normalization; ``validate_dataset`` reports contract violations without
    raising, so malformed instances can be constructed and inspected.
    """

    ids: np.ndarray        # (n,) int64, unique
    x: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 in [0, class_count)
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "ids", _freeze(np.asarray(self.ids, dtype=np.int64)))
        object.__setattr__(self, "x", _freeze(np.asarray(self.x, dtype=np.float64)))
        object.__setattr__(self, "y", _freeze(np.asarray(self.y, dtype=np.int64)))

    @classmethod
    def from_arrays(cls, x, y, class_count: int | None = None, ids=None) -> "FullyLabeledDataset":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if ids is None:
            ids = np.arange(len(y), dtype=np.int64)
        if class_count is None:
            class_count = int(y.max()) + 1 if len(y) else 2
        return cls(ids=np.asarray(ids), x=x, y=y, class_count=int(class_count))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def index_of(self, example_id: int) -> int:
        return int(self.positions_of([example_id])[0])

    def subset(self, positions: np.ndarray) -> "FullyLabeledDataset":
        """New dataset from row positions (ids preserved)."""
        positions = np.asarray(positions, dtype=np.int64)
        return FullyLabeledDataset(
            ids=self.ids[positions], x=self.x[positions], y=self.y[positions],
            class_count=self.class_count,
        )


@dataclass(frozen=True)
class EmbeddedFeatures(_IdLookup):
    """Feature store for pair collections whose records carry no class labels.

    Produced when pairs are serialized inline (features embedded per slot);
    ids are synthetic slot numbers and no label array exists at all.
    """

    ids: np.ndarray  # (k,) int64, unique
    x: np.ndarray    # (k, d) float64

    def __post_init__(self):
        object.__setattr__(self, "ids", _freeze(np.asarray(self.ids, dtype=np.int64)))
        object.__setattr__(self, "x", _freeze(np.asarray(self.x, dtype=np.float64)))

    @property
    def dim(self) -> int:
        return self.x.shape[1]


FeatureSource = Union[FullyLabeledDataset, EmbeddedFeatures]


@dataclass(frozen=True)
class PairDataset:
    """Pair records referencing a feature source by id.

    ``source`` may be a fully-labeled dataset (ids resolve to its rows), an
    :class:`EmbeddedFeatures` store (label-free), or None for an unresolved
    id-form collection loaded without its backing dataset.
    """

    a_ids: np.ndarray  # (n,) int64
    b_ids: np.ndarray  # (n,) int64
    t: np.ndarray      # (n,) uint8 in {0, 1}
    source: FeatureSource | None = None

    def __post_init__(self):
        a = np.asarray(self.a_ids, dtype=np.int64)
        b = np.asarray(self.b_ids, dtype=np.int64)
        t = np.asarray(self.t, dtype=np.uint8)
        if not (a.shape == b.shape == t.shape):
            raise ValueError("pair arrays must share one shape")
        if np.any(a >= b):
            raise ValueError("pairs must be canonical: a_id < b_id everywhere")
        if np.any(t > 1):
            raise ValueError("pair labels must be 0 or 1")
        object.__setattr__(self, "a_ids", _freeze(a))
        object.__setattr__(self, "b_ids", _freeze(b))
        object.__setattr__(self, "t", _freeze(t))

    @classmethod
    def build(cls, a_ids, b_ids, t, source: FeatureSource | None = None) -> "PairDataset":
        """Canonicalize (sort each pair's ids) and construct."""
        a = np.asarray(a_ids, dtype=np.int64)
        b = np.asarray(b_ids, dtype=np.int64)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        if np.any(lo == hi):
            raise ValueError("self-pairs are not allowed")
        return cls(a_ids=lo, b_ids=hi, t=np.asarray(t, dtype=np.uint8), source=source)

    def __len__(self) -> int:
        return len(self.a_ids)

    def participant_ids(self) -> np.ndarray:
        """Sorted unique ids appearing on either side of any pair."""
        return np.unique(np.concatenate([self.a_ids, self.b_ids]))

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row positions of both pair sides in the source's feature array."""
        if self.source is None:
            raise ValueError("pair collection has no feature source attached")
        return self.source.positions_of(self.a_ids), self.source.positions_of(self.b_ids)

    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (features_a, features_b, t) through the source."""
        pa, pb = self.positions()
        x = self.source.x
        return x[pa], x[pb], np.asarray(self.t, dtype=np.int64)

    def take(self, positions: np.ndarray) -> "PairDataset":
        positions = np.asarray(positions, dtype=np.int64)
        return PairDataset(
            a_ids=self.a_ids[positions], b_ids=self.b_ids[positions],
            t=self.t[positions], source=self.source,
        )


def validate_dataset(ds: FullyLabeledDataset) -> list[str]:
    """Return a list of human-readable contract violations (empty when clean)."""
    problems: list[str] = []
    if ds.class_count < 2:
        problems.append(f"class_count must be at least 2, got {ds.class_count}")
    if ds.x.ndim != 2:
        problems.append(f"features must form a 2-d array, got {ds.x.ndim}-d")
        return problems
    n = len(ds.ids)
    if ds.x.shape[0] != n or ds.y.shape[0] != n:
        problems.append("ids, features and labels must have matching lengths")
    uniq, counts = np.unique(ds.ids, return_counts=True)
    for dup in uniq[counts > 1]:
        problems.append(f"duplicate id {int(dup)}")
    if not np.all(np.isfinite(ds.x)):
        bad = np.flatnonzero(~np.isfinite(ds.x).all(axis=1))
        problems.append(f"non-finite features in rows {bad[:8].tolist()}")
    out = (ds.y < 0) | (ds.y >= ds.class_count)
    if np.any(out):
        bad = np.flatnonzero(out)
        problems.append(
            f"labels outside [0, {ds.class_count}) in rows {bad[:8].tolist()}"
        )
    return problems
