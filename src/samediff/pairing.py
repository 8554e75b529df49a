"""Pair-set constructors: how same/different supervision gets built.

Four regimes with very different privacy/coverage trade-offs:

* exhaustive: every unordered pair once, N(N-1)/2 records.
* disjoint: each record appears in at most one pair, anchors walk the
  remaining records in id order and partners are drawn uniformly at random
  from what is left; both are removed after pairing.
* sampled: a target number of distinct pairs drawn batch-wise, where each
  batch first picks M unique classes and then pairs records only inside
  that class pool (M controls the same-class fraction).  Pairs are drawn
  as whole arrays of triangular codes over id ranks, so a seed yields
  different pairs than the earlier one-pair-at-a-time sampler did.
* online: the full pair expansion of one minibatch, built per step so the
  quadratic pair set never has to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FullyLabeledDataset, PairDataset
from .rng import substream

__all__ = [
    "PairingConfig",
    "pair_exhaustive",
    "pair_disjoint",
    "pair_sampled",
    "online_epoch_pairs",
    "coverage_fraction",
    "max_disjoint_pairs",
]

BATCH_GRANULARITY = 1024
SMALL_POOL = 1 << 16   # pools up to this many pairs are enumerated


@dataclass(frozen=True)
class PairingConfig:
    """Settings for pair-set construction.

    ``class_batch_size`` is the M of the sampled regime; None means the
    default min(10, class_count).  ``n_pairs`` is ignored by the exhaustive
    and online regimes.
    """

    mode: str = "sampled"
    n_pairs: int = 0
    class_batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "disjoint", "sampled", "online"):
            raise ValueError(f"unknown pairing mode {self.mode!r}")


def coverage_fraction(n_pairs: int, n_examples: int) -> float:
    """Fraction of all distinct pairs covered by n_pairs draws."""
    cap = n_examples * (n_examples - 1) // 2
    if cap == 0:
        raise ValueError("coverage undefined for fewer than 2 examples")
    return n_pairs / cap


def max_disjoint_pairs(n_examples: int) -> int:
    """Largest n accepted by the disjoint constructor (strict N > 2n)."""
    return (n_examples - 1) // 2


def pair_exhaustive(ds: FullyLabeledDataset) -> PairDataset:
    """Every unordered pair of distinct records, labeled by class agreement."""
    n = len(ds)
    if n < 2:
        raise ValueError("insufficient examples: exhaustive pairing needs at least 2")
    ii, jj = np.triu_indices(n, k=1)
    t = (ds.y[ii] == ds.y[jj]).astype(np.uint8)
    return PairDataset.build(ds.ids[ii], ds.ids[jj], t, source=ds)


def pair_disjoint(
    ds: FullyLabeledDataset, n_pairs: int, seed: int = 0
) -> tuple[PairDataset, FullyLabeledDataset]:
    """Record-disjoint pairing; returns the pairs and the untouched remainder.

    The anchor is always the smallest remaining id; its partner is drawn
    uniformly from the other remaining records, and both leave the pool.
    Requires strictly more than 2 * n_pairs records so the remainder is
    never empty.
    """
    n = len(ds)
    if n_pairs < 1:
        raise ValueError("disjoint pairing needs n_pairs >= 1")
    if n <= 2 * n_pairs:
        raise ValueError(
            f"insufficient examples for disjoint pairing: need more than {2 * n_pairs}, have {n}"
        )
    rng = substream(seed, "pairing", "disjoint")
    order = np.argsort(ds.ids, kind="stable")   # positions sorted by id
    # Records in id order.  Anchors stay in place as the prefix rest[:k];
    # partners are popped, so rest[k + 1:] is what the k-th anchor may pair
    # with, and rest[n_pairs:] is the remainder.
    rest = list(range(n))
    partners = []
    for k in range(n_pairs):
        partners.append(rest.pop(k + 1 + int(rng.integers(len(rest) - k - 1))))
    pa = order[rest[:n_pairs]]
    pb = order[partners]
    t = (ds.y[pa] == ds.y[pb]).astype(np.uint8)
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
    """Mask of the keys absent from the sorted array ``taken``."""
    if not len(taken):
        return np.ones(len(keys), dtype=bool)
    k = np.minimum(np.searchsorted(taken, keys), len(taken) - 1)
    return taken[k] != keys


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
    keys are one sorted array.  Pools of at most 2^16 pairs are enumerated
    and the batch's quota is picked from their untaken keys; so are the
    untaken keys of the whole dataset once at most 2^16 of them remain and
    the batch pools every record.  Larger pools draw triangular codes
    uniformly and keep the first quota untaken keys in draw order.  The
    stream differs from the earlier per-pair sampler's: a seed now yields
    different (equally distributed) pairs than it did before.
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
    present = np.unique(ds.y)
    m_default = min(10, ds.class_count)
    m = cfg.class_batch_size if cfg.class_batch_size is not None else m_default
    if m < 1:
        raise ValueError("class_batch_size must be at least 1")
    m = min(m, len(present))

    order = np.argsort(ds.ids, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    taken = np.empty(0, dtype=np.int64)   # sorted keys
    batches = []
    count = 0
    stalled = 0
    while count < cfg.n_pairs:
        chosen = rng.choice(present, size=m, replace=False)
        pool = np.flatnonzero(np.isin(ds.y, chosen))
        # after many fruitless batches widen to the full dataset so the
        # end-game (nearly every pair requested) still terminates
        if stalled >= 50:
            pool = np.arange(n)
        p = len(pool)
        pool_cap = p * (p - 1) // 2
        if pool_cap == 0:
            stalled += 1
            continue
        quota = min(BATCH_GRANULARITY, cfg.n_pairs - count)
        r = rank[pool]
        if p == n and cap - len(taken) <= SMALL_POOL:
            keys = _pick(rng, _complement(taken, cap), quota)
        elif pool_cap <= SMALL_POOL:
            ii, jj = np.triu_indices(p, k=1)
            keys = _tri_codes(r[ii], r[jj])
            keys = _pick(rng, keys[_untaken(keys, taken)], quota)
        else:
            # at least (pool_cap - |taken|) / pool_cap of the codes are untaken
            free = max(pool_cap - len(taken), 1)
            draws = min(20 * quota, 2 * quota + quota * len(taken) // free)
            ii, jj = _tri_pairs(rng.integers(pool_cap, size=draws))
            keys = _tri_codes(r[ii], r[jj])
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)]
            keys = keys[_untaken(keys, taken)][:quota]
        if len(keys):
            batches.append(keys)
            fresh = np.sort(keys)
            taken = np.insert(taken, np.searchsorted(taken, fresh), fresh)
            count += len(keys)
        stalled = 0 if len(keys) else stalled + 1

    lo, hi = _tri_pairs(np.concatenate(batches))
    lo, hi = order[lo], order[hi]
    t = (ds.y[lo] == ds.y[hi]).astype(np.uint8)
    return PairDataset(a_ids=ds.ids[lo], b_ids=ds.ids[hi], t=t, source=ds)


def online_epoch_pairs(batch: FullyLabeledDataset) -> PairDataset:
    """Full pair expansion of one minibatch (B(B-1)/2 records).

    A batch with fewer than 2 examples expands to an empty pair set.
    """
    n = len(batch)
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return PairDataset(a_ids=empty, b_ids=empty,
                           t=np.empty(0, dtype=np.uint8), source=batch)
    ii, jj = np.triu_indices(n, k=1)
    t = (batch.y[ii] == batch.y[jj]).astype(np.uint8)
    return PairDataset.build(batch.ids[ii], batch.ids[jj], t, source=batch)
