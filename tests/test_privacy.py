"""Pair-release privacy: the cluster attack and the disjoint encoding."""

import os

import numpy as np
import pytest

from samediff import (
    EmbeddedFeatures,
    FullyLabeledDataset,
    PairDataset,
    encrypt_disjoint,
    generate_synthetic,
    pair_disjoint,
    pair_exhaustive,
    pairwise_agreement,
    recover_clusters,
    save_pairs,
    strength_report,
)


def labeled(rng, n_classes=3, per_class=8, dim=4):
    x = rng.normal(size=(n_classes * per_class, dim))
    y = np.repeat(np.arange(n_classes), per_class)
    perm = rng.permutation(len(y))
    return FullyLabeledDataset.from_arrays(x[perm], y[perm], n_classes)


class TestRecoverClusters:
    def test_exhaustive_release_recovers_classes_exactly(self):
        """Full pairing leaks everything: components equal the classes and
        agreement with the truth is perfect."""
        rng = np.random.default_rng(42)
        ds = labeled(rng)
        pairs = pair_exhaustive(ds)
        comps = recover_clusters(pairs)
        assert len(comps) == 3
        truth = {int(i): int(ds.y[ds.index_of(i)]) for i in ds.ids}
        for comp in comps:
            assert len({truth[p] for p in comp}) == 1
        assert pairwise_agreement(comps, truth) == 1.0

    def test_disjoint_release_caps_components_at_two(self):
        rng = np.random.default_rng(42)
        for seed in range(20):
            ds = labeled(rng, n_classes=2, per_class=15)
            pairs, _ = pair_disjoint(ds, 14, seed=seed)
            comps = recover_clusters(pairs)
            assert max(len(c) for c in comps) <= 2

    def test_disagreement_edges_never_merge(self):
        """t = 0 pairs are constraints, not links: a release of only
        cross-class pairs leaves every participant alone."""
        pairs = PairDataset(
            a_ids=np.array([0, 2, 4], dtype=np.int64),
            b_ids=np.array([1, 3, 5], dtype=np.int64),
            t=np.zeros(3, dtype=np.int8),
        )
        comps = recover_clusters(pairs)
        assert comps == [[0], [1], [2], [3], [4], [5]]

    def test_transitive_chain_merges(self):
        pairs = PairDataset(
            a_ids=np.array([0, 1, 2], dtype=np.int64),
            b_ids=np.array([1, 2, 3], dtype=np.int64),
            t=np.ones(3, dtype=np.int8),
        )
        assert recover_clusters(pairs) == [[0, 1, 2, 3]]


class TestPairwiseAgreement:
    def test_needs_two_participants(self):
        with pytest.raises(ValueError, match="at least 2 participants"):
            pairwise_agreement([[7]], {7: 0})

    def test_matches_quadratic_reference(self):
        """Contingency counting equals the O(P^2) definition computed
        directly over all participant pairs."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            labels = {i: int(rng.integers(0, 3)) for i in range(n)}
            # random partition into components
            assign = rng.integers(0, 4, size=n)
            comps = [
                [i for i in range(n) if assign[i] == g]
                for g in range(4)
                if np.any(assign == g)
            ]
            agree = 0
            total = 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += 1
                    same_comp = assign[i] == assign[j]
                    same_class = labels[i] == labels[j]
                    agree += same_comp == same_class
            assert pairwise_agreement(comps, labels) == pytest.approx(agree / total)

    def test_all_singletons_scores_cross_pairs_only(self):
        labels = {0: 0, 1: 0, 2: 1}
        comps = [[0], [1], [2]]
        # of the 3 pairs, exactly (0,1) shares a class and is missed
        assert pairwise_agreement(comps, labels) == pytest.approx(2 / 3)


class TestStrengthReport:
    def test_exhaustive_extreme(self):
        rng = np.random.default_rng(42)
        ds = labeled(rng, n_classes=2, per_class=10)
        rep = strength_report(pair_exhaustive(ds), {int(i): int(ds.y[ds.index_of(i)]) for i in ds.ids})
        assert rep.agreement == 1.0
        assert rep.component_count == 2
        assert rep.max_component_size == 10
        assert rep.participant_count == 20
        assert rep.component_sizes == (10, 10)


class TestEncryptDisjoint:
    def test_release_carries_no_ids_or_labels(self):
        """The released object uses synthetic slot ids 0..2n-1 and its
        feature source has no label field at all."""
        ds = generate_synthetic("blobs", n_per_class=20, seed=0)
        released, holdout, rep = encrypt_disjoint(ds, 12, seed=3)
        assert isinstance(released.source, EmbeddedFeatures)
        assert not hasattr(released.source, "y")
        np.testing.assert_array_equal(released.a_ids, np.arange(0, 24, 2))
        np.testing.assert_array_equal(released.b_ids, np.arange(1, 24, 2))
        np.testing.assert_array_equal(released.source.ids, np.arange(24))

    def test_agreement_bits_match_hidden_labels(self):
        """Each slot's features identify the original record, and t must

        equal the same-class indicator of the hidden labels."""
        ds = generate_synthetic("blobs", n_per_class=15, noise=0.5, seed=1)
        released, _, _ = encrypt_disjoint(ds, 10, seed=5)
        xa, xb, t = released.gather()
        for k in range(len(t)):
            la = ds.y[np.where((ds.x == xa[k]).all(axis=1))[0][0]]
            lb = ds.y[np.where((ds.x == xb[k]).all(axis=1))[0][0]]
            assert t[k] == (1 if la == lb else 0)

    def test_holdout_complements_participants(self):
        ds = generate_synthetic("blobs", n_per_class=20, noise=0.5, seed=2)
        released, holdout, rep = encrypt_disjoint(ds, 12, seed=0)
        assert rep.pair_count == 12
        assert rep.holdout_count == len(holdout) == 40 - 24
        # holdout feature rows never appear in the release
        xa, xb, _ = released.gather()
        slot_rows = np.vstack([xa, xb])
        for row in holdout.x:
            assert not np.any((slot_rows == row).all(axis=1))

    def test_capacity_ceilings(self):
        for n, strict, half in [(7, 3, 3), (8, 3, 4), (9, 4, 4), (40, 19, 20)]:
            ds = generate_synthetic("blobs", n_per_class=n, seed=0).subset(np.arange(n))
            _, _, rep = encrypt_disjoint(ds, 1, seed=0)
            assert rep.max_pairs_strict == strict
            assert rep.max_pairs_half == half

    def test_report_attack_stays_weak(self):
        ds = generate_synthetic("blobs", n_per_class=25, seed=3)
        _, _, rep = encrypt_disjoint(ds, 20, seed=1)
        assert rep.strength.max_component_size <= 2
        assert rep.strength.participant_count == 40

    def test_released_file_has_no_room_for_labels(self, tmp_path):
        """Byte-exact size accounting on the saved inline release: header,
        per-pair features plus one agreement bit, checksum.  No slack."""
        ds = generate_synthetic("blobs", n_per_class=10, seed=4)
        released, _, _ = encrypt_disjoint(ds, 6, seed=2)
        path = str(tmp_path / "release.sdpf")
        save_pairs(released, path, inline=True)
        d = ds.dim
        expected = 20 + 6 * (16 * d + 1) + 4
        assert os.path.getsize(path) == expected

    def test_deterministic(self):
        ds = generate_synthetic("blobs", n_per_class=12, seed=5)
        ra, _, _ = encrypt_disjoint(ds, 8, seed=9)
        rb, _, _ = encrypt_disjoint(ds, 8, seed=9)
        xa, _, ta = ra.gather()
        xb, _, tb = rb.gather()
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ta, tb)

    def test_slots_match_per_slot_reference(self):
        """Slot features and the attacked labels equal the original per-slot
        dict lookups, on a dataset whose ids are not row numbers."""
        base = generate_synthetic("blobs", n_per_class=30, seed=6)
        ids = np.random.default_rng(6).choice(10_000, size=len(base), replace=False)
        ds = FullyLabeledDataset.from_arrays(base.x, base.y, base.class_count, ids=ids)
        released, _, rep = encrypt_disjoint(ds, 20, seed=4)
        id_pairs, _ = pair_disjoint(ds, 20, seed=4)
        row = {int(i): k for k, i in enumerate(ds.ids)}
        slot_x, slot_labels = [], {}
        for k, (a, b) in enumerate(zip(id_pairs.a_ids, id_pairs.b_ids)):
            slot_x += [ds.x[row[int(a)]], ds.x[row[int(b)]]]
            slot_labels[2 * k] = int(ds.y[row[int(a)]])
            slot_labels[2 * k + 1] = int(ds.y[row[int(b)]])
        np.testing.assert_array_equal(released.source.x, np.array(slot_x))
        assert rep.strength == strength_report(released, slot_labels)
