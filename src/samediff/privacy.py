"""Privacy encoding and the matching attack simulator.

Releasing pairs instead of labeled records leaks class structure through
the agreement bits: t = 1 edges connect records of one class, so an
attacker can union them into clusters.  The two extremes:

* exhaustive pairing hands over every edge and the connected components
  are exactly the classes (full recovery);
* record-disjoint pairing gives each record at most one edge, so no
  component can exceed two records no matter how many pairs are released.

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

from .data import EmbeddedFeatures, FullyLabeledDataset, PairDataset
from .pairing import max_disjoint_pairs, pair_disjoint

__all__ = [
    "UnionFind",
    "StrengthReport",
    "EncryptionReport",
    "recover_clusters",
    "pairwise_agreement",
    "strength_report",
    "encrypt_disjoint",
]


class UnionFind:
    """Disjoint sets over arbitrary hashable items, path compression and
    union by size."""

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}

    def add(self, item) -> None:
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def recover_clusters(pairs: PairDataset) -> list[list[int]]:
    """The attack: connected components of participants under t = 1 edges.

    Participants touched only by t = 0 pairs stay singletons; disagreement
    edges are constraints the attacker knows but cannot merge on.
    Components are sorted by smallest member for stable output.
    """
    uf = UnionFind()
    for pid in pairs.participant_ids():
        uf.add(int(pid))
    for a, b, t in zip(pairs.a_ids, pairs.b_ids, pairs.t):
        if t == 1:
            uf.union(int(a), int(b))
    groups: dict = {}
    for pid in pairs.participant_ids():
        groups.setdefault(uf.find(int(pid)), []).append(int(pid))
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _pairs2(n: np.ndarray) -> np.ndarray:
    return n * (n - 1) // 2


def pairwise_agreement(
    components: list[list[int]], true_labels: Mapping[int, int]
) -> float:
    """Fraction of participant pairs on which the recovered partition and the
    true class partition agree (same-cluster vs same-class).

    Computed from contingency counts, so it is exact and linear in the
    participant count.
    """
    comp_of = {}
    for g, comp in enumerate(components):
        for pid in comp:
            comp_of[pid] = g
    ids = sorted(comp_of)
    total = len(ids) * (len(ids) - 1) // 2
    if total == 0:
        raise ValueError("agreement needs at least 2 participants")
    contingency: dict[tuple[int, int], int] = {}
    comp_sizes: dict[int, int] = {}
    class_sizes: dict[int, int] = {}
    for pid in ids:
        g = comp_of[pid]
        c = int(true_labels[pid])
        contingency[(g, c)] = contingency.get((g, c), 0) + 1
        comp_sizes[g] = comp_sizes.get(g, 0) + 1
        class_sizes[c] = class_sizes.get(c, 0) + 1
    both = sum(_pairs2(np.int64(v)) for v in contingency.values())
    same_comp = sum(_pairs2(np.int64(v)) for v in comp_sizes.values())
    same_class = sum(_pairs2(np.int64(v)) for v in class_sizes.values())
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


def strength_report(pairs: PairDataset, true_labels: Mapping[int, int]) -> StrengthReport:
    """Run the attack on a pair release and score it against the truth."""
    components = recover_clusters(pairs)
    sizes = tuple(sorted((len(c) for c in components), reverse=True))
    return StrengthReport(
        participant_count=int(sum(sizes)),
        component_count=len(components),
        max_component_size=max(sizes) if sizes else 0,
        component_sizes=sizes,
        agreement=pairwise_agreement(components, true_labels),
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
    n = len(id_pairs)
    rows = np.empty(2 * n, dtype=np.int64)
    rows[0::2] = ds.positions_of(id_pairs.a_ids)
    rows[1::2] = ds.positions_of(id_pairs.b_ids)
    slot_labels = dict(enumerate(ds.y[rows].tolist()))
    slots = EmbeddedFeatures(ids=np.arange(2 * n, dtype=np.int64), x=ds.x[rows])
    released = PairDataset(
        a_ids=np.arange(0, 2 * n, 2, dtype=np.int64),
        b_ids=np.arange(1, 2 * n, 2, dtype=np.int64),
        t=id_pairs.t,
        source=slots,
    )
    report = EncryptionReport(
        pair_count=n,
        holdout_count=len(holdout),
        max_pairs_strict=max_disjoint_pairs(len(ds)),
        max_pairs_half=len(ds) // 2,
        strength=strength_report(released, slot_labels),
    )
    return released, holdout, report
