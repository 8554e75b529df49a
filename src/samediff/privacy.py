"""Privacy encoding and the matching attack simulator.

Releasing pairs instead of labeled records leaks class structure through
the agreement bits: t = 1 edges connect records of one class, so an
attacker can union them into clusters.  The two extremes:

* exhaustive pairing hands over every edge and the connected components
  are exactly the classes (full recovery);
* record-disjoint pairing gives each record at most one edge, so no
  component can exceed two records no matter how many pairs are released.

The attack works on arrays: ``recover_clusters`` gives each participant
its component number, ``pairwise_agreement`` scores those numbers against
the true classes, and ``strength_report`` counts component sizes from them,
so no list is built per component or per participant.

``encrypt_disjoint`` produces the strong form: disjoint pairs with features
embedded inline and ids and class labels stripped, plus the untouched
holdout needed for the head stage.  All reported statistics are recomputed
from the released pairs themselves, never copied from the encoder's state.

Counting note: any set of record-disjoint pairs is capped at floor(N/2),
but the constructor keeps the remainder nonempty (strictly N > 2n), which
caps releases at (N-1)//2; for even N those two ceilings differ by one.
Reports carry both numbers rather than resolving the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import FullyLabeledDataset, PairDataset
from .pairing import max_disjoint_pairs, pair_disjoint

__all__ = [
    "StrengthReport",
    "EncryptionReport",
    "recover_clusters",
    "pairwise_agreement",
    "strength_report",
    "encrypt_disjoint",
]


def recover_clusters(pairs: PairDataset) -> tuple[np.ndarray, np.ndarray]:
    """The attack: connected components of participants under t = 1 edges.

    Returns ``(ids, component)``: the sorted participant ids and, aligned
    with them, each participant's component, numbered from 0 in order of
    the component's smallest member.  Participants touched only by t = 0
    pairs stay singletons; disagreement edges are constraints the attacker
    knows but cannot merge on.

    Array connected components: every participant points at a root, first
    itself.  Each round hooks the larger root of every edge whose ends
    have different roots under the smaller one, then jumps pointers to
    their pointers' pointers until every participant points at a root.
    Roots only ever hook under smaller roots, so each component ends up
    pointing at its smallest participant, and numbering the roots in
    order numbers the components.
    """
    ids = pairs.participant_ids()
    same = pairs.t == 1
    ea = np.searchsorted(ids, pairs.a_ids[same])
    eb = np.searchsorted(ids, pairs.b_ids[same])
    label = np.arange(len(ids))
    while True:
        ra, rb = label[ea], label[eb]
        split = ra != rb
        if not split.any():
            break
        ra, rb = ra[split], rb[split]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    root_rank = np.cumsum(label == np.arange(len(ids))) - 1
    return ids, root_rank[label]


def _pairs2(counts: np.ndarray) -> np.int64:
    """Number of unordered pairs within groups of the given sizes."""
    return (counts * (counts - 1) // 2).sum()


def pairwise_agreement(
    clusters: tuple[np.ndarray, np.ndarray], true_labels: Mapping[int, int] | np.ndarray
) -> float:
    """Fraction of participant pairs on which the recovered partition and the
    true class partition agree (same-cluster vs same-class): the Rand index.

    ``clusters`` is ``recover_clusters``' ``(ids, component)``: sorted
    distinct ids and each one's component number.  ``true_labels[pid]`` is
    participant pid's class: a mapping, or an array indexed by id.  An id
    without a label raises ``KeyError`` naming it, in either form.  Computed
    from contingency counts, so it is exact and linear in the participant
    count.
    """
    ids, component = clusters
    n = len(ids)
    total = n * (n - 1) // 2
    if total == 0:
        raise ValueError("agreement needs at least 2 participants")
    if isinstance(true_labels, np.ndarray):
        if ids[0] < 0 or ids[-1] >= len(true_labels):   # sorted: the ends decide
            raise KeyError(int(ids[(ids < 0) | (ids >= len(true_labels))][0]))
        labels = true_labels.take(ids).astype(np.int64)
    else:
        labels = np.fromiter(map(true_labels.__getitem__, ids.tolist()), np.int64, n)
    _, cls = np.unique(labels, return_inverse=True)
    both = _pairs2(np.unique(component * n + cls, return_counts=True)[1])
    same_comp = _pairs2(np.bincount(component))
    same_class = _pairs2(np.bincount(cls))
    true_pos = both
    true_neg = total - same_comp - same_class + both
    return float((true_pos + true_neg) / total)


@dataclass(frozen=True)
class StrengthReport:
    """What the released pairs let an attacker reconstruct."""

    participant_count: int
    component_count: int
    max_component_size: int
    component_sizes: tuple[int, ...]
    agreement: float


def strength_report(pairs: PairDataset,
                    true_labels: Mapping[int, int] | np.ndarray) -> StrengthReport:
    """Run the attack on a pair release and score it against the truth.

    The component sizes are one ``np.bincount`` of the component numbers,
    reported largest first.
    """
    clusters = recover_clusters(pairs)
    ids, component = clusters
    sizes = tuple(np.sort(np.bincount(component))[::-1].tolist())
    return StrengthReport(
        participant_count=len(ids),
        component_count=len(sizes),
        max_component_size=sizes[0] if sizes else 0,
        component_sizes=sizes,
        agreement=pairwise_agreement(clusters, true_labels),
    )


@dataclass(frozen=True)
class EncryptionReport:
    """Summary of one disjoint encoding run.

    ``max_pairs_strict`` is the constructor's ceiling (keeps a nonempty
    remainder); ``max_pairs_half`` is the floor(N/2) ceiling of disjointness
    alone.  For even N they differ by one; both are surfaced.
    """

    pair_count: int
    holdout_count: int
    max_pairs_strict: int
    max_pairs_half: int
    strength: StrengthReport


def encrypt_disjoint(
    ds: FullyLabeledDataset, n_pairs: int, seed: int = 0
) -> tuple[PairDataset, FullyLabeledDataset, EncryptionReport]:
    """Encode a labeled dataset as record-disjoint inline pairs.

    The released object embeds raw features per pair slot under synthetic
    slot ids 0..2n-1 and carries the agreement bit only; original ids and
    class labels never leave.  Returns the release, the untouched holdout,
    and a report whose statistics come from attacking the release itself.
    """
    id_pairs, holdout = pair_disjoint(ds, n_pairs, seed=seed)
    pa, pb = id_pairs.positions()
    released = PairDataset.inline(ds.x[pa], ds.x[pb], id_pairs.t)
    slot_labels = np.empty(2 * len(released), dtype=np.int64)   # indexed by slot id
    slot_labels[released.a_ids], slot_labels[released.b_ids] = ds.y[pa], ds.y[pb]
    report = EncryptionReport(
        pair_count=len(released),
        holdout_count=len(holdout),
        max_pairs_strict=max_disjoint_pairs(len(ds)),
        max_pairs_half=len(ds) // 2,
        strength=strength_report(released, slot_labels),
    )
    return released, holdout, report
