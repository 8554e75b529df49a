"""Pair-set constructors: how same/different supervision gets built.

Four regimes with very different privacy/coverage trade-offs:

* exhaustive: every unordered pair once, N(N-1)/2 records.
* disjoint: each record appears in at most one pair, anchors walk the
  remaining records in id order and partners are drawn uniformly at random
  from what is left; both are removed after pairing.
* sampled: a target number of distinct pairs drawn batch-wise, where each
  batch first picks M unique classes and then pairs records only inside
  that class pool (M controls the same-class fraction).  Pairs are drawn
  as whole arrays of triangular codes over id ranks.
* online: every within-batch pair of one minibatch, which the online
  trainer scores per step without a pair set: from class sums under
  sqdist (O(B·d)) and from the B×B Gram matrix otherwise, expanding the
  pairs only for a batch with a floored row (see ``losses``); no
  constructor here builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FullyLabeledDataset, PairDataset, _distinct, sufficient_label
from .rng import substream

__all__ = [
    "PairingConfig",
    "pair_exhaustive",
    "pair_disjoint",
    "pair_sampled",
    "build_pairs",
    "max_disjoint_pairs",
]

BATCH_GRANULARITY = 1024
SMALL_POOL = 1 << 16   # pools up to this many pairs are enumerated
STALL_LIMIT = 50       # fruitless class batches before pooling every record
# Each mode's pairs, and which of n_pairs and class_batch_size it reads.
_MODE_READS = {"exhaustive": ("takes every pair", ()),
               "disjoint": ("pairs each record at most once", ("n_pairs",)),
               "sampled": ("draws class batches", ("n_pairs", "class_batch_size")),
               "online": ("is online pairing (train --regime online)", ())}


@dataclass(frozen=True)
class PairingConfig:
    """Settings for pair-set construction.  ``n_pairs`` must not be negative
    and ``class_batch_size``, the sampled regime's M, at least 1 (None means
    min(10, class_count)); a mode refuses either unless it reads it
    (``_MODE_READS``) or it is unset: 0 or None."""

    mode: str = "sampled"
    n_pairs: int = 0
    class_batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODE_READS:
            raise ValueError(f"unknown pairing mode {self.mode!r}")
        if self.n_pairs < 0:
            raise ValueError(f"n_pairs must not be negative, got {self.n_pairs}")
        if self.class_batch_size is not None and self.class_batch_size < 1:
            raise ValueError(f"class_batch_size must be at least 1, got {self.class_batch_size}")
        pairs, reads = _MODE_READS[self.mode]
        for key, unset in (("n_pairs", 0), ("class_batch_size", None)):
            if (v := getattr(self, key)) != unset and key not in reads:
                raise ValueError(f"pairing.mode {self.mode} {pairs} and reads no {key}, got {v}")


def max_disjoint_pairs(n_examples: int) -> int:
    """Largest n accepted by the disjoint constructor (strict N > 2n)."""
    return (n_examples - 1) // 2


def pair_exhaustive(ds: FullyLabeledDataset) -> PairDataset:
    """Every unordered pair of distinct records, labeled by class agreement."""
    n = len(ds)
    if n < 2:
        raise ValueError("insufficient examples: exhaustive pairing needs at least 2")
    ii, jj = np.triu_indices(n, k=1)
    t = sufficient_label(ds.y[ii], ds.y[jj])
    return PairDataset.build(ds.ids[ii], ds.ids[jj], t, source=ds)


def pair_disjoint(
    ds: FullyLabeledDataset, n_pairs: int, seed: int = 0
) -> tuple[PairDataset, FullyLabeledDataset]:
    """Record-disjoint pairing; returns the pairs and the untouched remainder.

    The anchor is always the smallest remaining id; its partner is drawn
    uniformly from the other remaining records, and both leave the pool.
    Requires strictly more than 2 * n_pairs records so the remainder is
    never empty.

    The k-th partner is drawn from the N - 2k - 1 records left.  Those bounds
    are known in advance, so all draws are one ``rng.integers`` call, on the
    same stream as one scalar call per pair.
    """
    n = len(ds)
    if n_pairs < 1:
        raise ValueError("disjoint pairing needs n_pairs >= 1")
    if n <= 2 * n_pairs:
        raise ValueError(
            f"insufficient examples for disjoint pairing: need more than {2 * n_pairs}, have {n}"
        )
    rng = substream(seed, "pairing", "disjoint")
    order = ds._id_order[0]   # positions sorted by id
    # Records in id order.  Anchors stay in place as the prefix rest[:k];
    # partners are popped, so rest[k + 1:] is what the k-th anchor may pair
    # with, and rest[n_pairs:] is the remainder.
    rest = list(range(n))
    ks = np.arange(n_pairs)
    picks = (ks + 1 + rng.integers(n - 2 * ks - 1)).tolist()
    partners = [rest.pop(i) for i in picks]
    pa = order[rest[:n_pairs]]
    pb = order[partners]
    t = sufficient_label(ds.y[pa], ds.y[pb])
    remainder = ds.subset(np.sort(order[rest[n_pairs:]]))
    return PairDataset(a_ids=ds.ids[pa], b_ids=ds.ids[pb], t=t, source=ds), remainder


def _tri_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert c = j(j-1)/2 + i: the pair 0 <= i < j behind each code."""
    j = np.floor((1.0 + np.sqrt(8.0 * codes + 1.0)) / 2.0).astype(np.int64)
    j -= j * (j - 1) // 2 > codes          # correct float rounding either way
    j += (j + 1) * j // 2 <= codes
    return codes - j * (j - 1) // 2, j


def _tri_codes(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Triangular code of each unordered pair {i, j}, i != j."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return hi * (hi - 1) // 2 + lo


def _untaken(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Mask of the keys absent from the nonempty sorted array ``taken``."""
    k = np.minimum(np.searchsorted(taken, keys), len(taken) - 1)
    return taken[k] != keys


class _TakenKeys:
    """The distinct keys drawn so far, as sorted runs of roughly doubling size.

    A new batch merges into the runs no longer than it, like a binary
    counter, so each key is merged O(log n) times and a membership test
    searches O(log n) runs: adding n keys costs about n log n, not the
    n^2 / batch of merging every batch into one sorted array.
    """

    def __init__(self):
        self.runs: list[np.ndarray] = []   # sorted, longest first
        self.count = 0

    def add(self, keys: np.ndarray) -> None:
        self.runs.append(np.sort(keys))
        self.count += len(keys)
        while len(self.runs) > 1 and len(self.runs[-2]) <= len(self.runs[-1]):
            self._merge_last()

    def untaken(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the keys not drawn yet."""
        mask = np.ones(len(keys), dtype=bool)
        for run in self.runs:
            mask &= _untaken(keys, run)
        return mask

    def sorted(self) -> np.ndarray:
        """Every key drawn so far, as one sorted array."""
        while len(self.runs) > 1:
            self._merge_last()
        return self.runs[0] if self.runs else np.empty(0, dtype=np.int64)

    def _merge_last(self) -> None:
        run, last = self.runs.pop(), self.runs.pop()
        self.runs.append(np.insert(last, np.searchsorted(last, run), run))


def _complement(taken: np.ndarray, cap: int) -> np.ndarray:
    """The codes in [0, cap) absent from the sorted array ``taken``."""
    edges = np.concatenate(([-1], taken, [cap]))
    gaps = np.diff(edges) - 1
    ends = np.cumsum(gaps)
    k = np.arange(ends[-1])
    return k + np.repeat(edges[:-1] + 1 - (ends - gaps), gaps)


def _pick(rng: np.random.Generator, keys: np.ndarray, quota: int) -> np.ndarray:
    """Up to ``quota`` of the keys, uniformly without replacement."""
    return keys[rng.choice(len(keys), size=min(quota, len(keys)), replace=False)]


def pair_sampled(ds: FullyLabeledDataset, cfg: PairingConfig) -> PairDataset:
    """Distinct random pairs drawn through M-unique-class batches.

    Each batch of up to 1024 pairs first selects M distinct classes and then
    draws unordered record pairs without replacement from the pooled
    examples of those classes.  No self-pairs, no duplicates across the
    whole output.

    Pairs are handled in rank space: a pair's key is the triangular code
    ``hi * (hi - 1) / 2 + lo`` of the id ranks ``lo < hi``, and the taken
    keys are a few sorted runs (``_TakenKeys``).  Pools of at most 2^16
    pairs are enumerated and the batch's quota is picked from their untaken
    keys; so are the untaken keys of the whole dataset once at most 2^16 of
    them remain and the batch pools every record.  Larger pools draw
    triangular codes uniformly and keep the first quota untaken keys in
    draw order.

    After 50 batches in a row add no pair (the chosen classes have no
    untaken pair left), every later batch pools the whole dataset, so
    requests beyond the within-class pairs of M classes finish without a
    stall per batch.
    """
    n = len(ds)
    cap = n * (n - 1) // 2
    if cfg.n_pairs < 1:
        raise ValueError("sampled pairing needs n_pairs >= 1")
    if cfg.n_pairs > cap:
        raise ValueError(
            f"insufficient examples: {cfg.n_pairs} pairs requested, only {cap} distinct pairs exist"
        )
    rng = substream(cfg.seed, "pairing", "sampled")
    present = _distinct(ds.y)
    m = min(cfg.class_batch_size or min(10, ds.class_count), len(present))

    order = ds._id_order[0]   # positions sorted by id
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    taken = _TakenKeys()
    tail = None   # untaken keys of the whole dataset, once at most 2^16 remain
    batches = []
    stalled = 0
    while taken.count < cfg.n_pairs:
        if stalled < STALL_LIMIT:
            chosen = rng.choice(present, size=m, replace=False)
            pool = np.flatnonzero(np.isin(ds.y, chosen))
        else:
            pool = np.arange(n)
        p = len(pool)
        pool_cap = p * (p - 1) // 2
        if pool_cap == 0:
            stalled += 1
            continue
        quota = min(BATCH_GRANULARITY, cfg.n_pairs - taken.count)
        r = rank[pool]
        if p == n and cap - taken.count <= SMALL_POOL:
            tail = _complement(taken.sorted(), cap) if tail is None else tail[taken.untaken(tail)]
            keys = _pick(rng, tail, quota)
        elif pool_cap <= SMALL_POOL:
            ii, jj = np.triu_indices(p, k=1)
            keys = _tri_codes(r[ii], r[jj])
            keys = _pick(rng, keys[taken.untaken(keys)], quota)
        else:
            # at least (pool_cap - |taken|) / pool_cap of the codes are untaken
            free = max(pool_cap - taken.count, 1)
            draws = min(20 * quota, 2 * quota + quota * taken.count // free)
            ii, jj = _tri_pairs(rng.integers(pool_cap, size=draws))
            keys = _tri_codes(r[ii], r[jj])
            distinct, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first[taken.untaken(distinct)])][:quota]
        if len(keys):
            batches.append(keys)
            taken.add(keys)
        if stalled < STALL_LIMIT:
            stalled = 0 if len(keys) else stalled + 1

    lo, hi = _tri_pairs(np.concatenate(batches))
    lo, hi = order[lo], order[hi]
    t = sufficient_label(ds.y[lo], ds.y[hi])
    return PairDataset(a_ids=ds.ids[lo], b_ids=ds.ids[hi], t=t, source=ds)


def build_pairs(
    ds: FullyLabeledDataset, cfg: PairingConfig
) -> tuple[PairDataset, FullyLabeledDataset]:
    """The pair set ``cfg`` describes, and the records left to label.

    Disjoint pairing leaves its untouched remainder as the label pool; the
    other modes leave the whole dataset.  The online mode has no
    materialized pair set and is rejected.
    """
    if cfg.mode == "exhaustive":
        return pair_exhaustive(ds), ds
    if cfg.mode == "disjoint":
        return pair_disjoint(ds, cfg.n_pairs, seed=cfg.seed)
    if cfg.mode == "sampled":
        return pair_sampled(ds, cfg), ds
    raise ValueError("online pairing has no materialized pair set: use train --regime online")
