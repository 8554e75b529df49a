"""Pair-set constructors: exhaustive, disjoint, sampled, online."""

import numpy as np
import pytest

import samediff.pairing as pairing
from samediff import (
    FullyLabeledDataset,
    PairDataset,
    PairingConfig,
    build_pairs,
    max_disjoint_pairs,
    pair_disjoint,
    pair_exhaustive,
    pair_sampled,
)


def balanced_dataset(n_classes, per_class, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    n = n_classes * per_class
    x = rng.normal(size=(n, dim))
    y = np.repeat(np.arange(n_classes), per_class)
    return FullyLabeledDataset.from_arrays(x, y, n_classes)


class TestExhaustive:
    def test_counts_over_sizes(self):
        """Every N from 2 to 200 yields exactly N(N-1)/2 distinct pairs."""
        rng = np.random.default_rng(42)
        for n in range(2, 201):
            y = rng.integers(0, 3, size=n)
            ds = FullyLabeledDataset.from_arrays(np.zeros((n, 1)), y, 3)
            pairs = pair_exhaustive(ds)
            assert len(pairs) == n * (n - 1) // 2
            keys = set(zip(pairs.a_ids.tolist(), pairs.b_ids.tolist()))
            assert len(keys) == len(pairs)

    def test_labels_match_class_agreement(self):
        ds = balanced_dataset(2, 3, seed=1)
        pairs = pair_exhaustive(ds)
        ya = ds.y[ds.positions_of(pairs.a_ids)]
        yb = ds.y[ds.positions_of(pairs.b_ids)]
        np.testing.assert_array_equal(pairs.t, (ya == yb).astype(np.uint8))

    def test_too_few_examples(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((1, 1)), [0], 2)
        with pytest.raises(ValueError, match="insufficient examples"):
            pair_exhaustive(ds)


class TestDisjoint:
    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_no_pairs_refused(self, n_pairs):
        with pytest.raises(ValueError, match=r"^disjoint pairing needs n_pairs >= 1$"):
            pair_disjoint(balanced_dataset(2, 4), n_pairs)

    def test_property_over_random_triples(self):
        """No id appears twice; remainder is exactly the untouched ids."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(3, 60))
            n_pairs = int(rng.integers(1, max_disjoint_pairs(n) + 1))
            seed = int(rng.integers(2**31))
            ds = balanced_dataset(2, (n + 1) // 2, seed=seed).subset(np.arange(n))
            pairs, remainder = pair_disjoint(ds, n_pairs, seed=seed)
            assert len(pairs) == n_pairs
            used = np.concatenate([pairs.a_ids, pairs.b_ids])
            assert len(np.unique(used)) == 2 * n_pairs
            assert len(remainder) == n - 2 * n_pairs
            assert len(remainder) >= 1
            together = np.sort(np.concatenate([used, remainder.ids]))
            np.testing.assert_array_equal(together, np.sort(ds.ids))

    def test_strict_capacity_bound(self):
        ds = balanced_dataset(2, 3)  # 6 examples
        pair_disjoint(ds, 2, seed=0)
        with pytest.raises(ValueError, match="insufficient examples for disjoint"):
            pair_disjoint(ds, 3, seed=0)

    def test_max_disjoint_pairs_values(self):
        assert max_disjoint_pairs(2) == 0
        assert max_disjoint_pairs(3) == 1
        assert max_disjoint_pairs(7) == 3
        assert max_disjoint_pairs(8) == 3
        assert max_disjoint_pairs(9) == 4

    def test_labels_match_classes(self):
        ds = balanced_dataset(3, 10, seed=5)
        pairs, _ = pair_disjoint(ds, 12, seed=5)
        ya = ds.y[ds.positions_of(pairs.a_ids)]
        yb = ds.y[ds.positions_of(pairs.b_ids)]
        np.testing.assert_array_equal(pairs.t, (ya == yb).astype(np.uint8))

    def test_deterministic_in_seed(self):
        ds = balanced_dataset(2, 20, seed=3)
        p1, r1 = pair_disjoint(ds, 8, seed=11)
        p2, r2 = pair_disjoint(ds, 8, seed=11)
        np.testing.assert_array_equal(p1.a_ids, p2.a_ids)
        np.testing.assert_array_equal(p1.b_ids, p2.b_ids)
        np.testing.assert_array_equal(r1.ids, r2.ids)


class TestSampled:
    def test_rejects_over_capacity(self):
        ds = balanced_dataset(2, 2)  # cap = 6
        cfg = PairingConfig(mode="sampled", n_pairs=7, seed=0)
        with pytest.raises(ValueError, match="insufficient examples"):
            pair_sampled(ds, cfg)

    def test_no_duplicates_no_self_pairs(self):
        ds = balanced_dataset(4, 25, seed=2)
        cfg = PairingConfig(mode="sampled", n_pairs=1500, seed=7)
        pairs = pair_sampled(ds, cfg)
        assert len(pairs) == 1500
        keys = set(zip(pairs.a_ids.tolist(), pairs.b_ids.tolist()))
        assert len(keys) == 1500
        assert np.all(pairs.a_ids < pairs.b_ids)

    def test_class_batch_size_controls_same_class_fraction(self):
        """M classes per batch gives a same-class fraction near 1/M."""
        ds = balanced_dataset(10, 100, seed=4)
        frac = {}
        for m in (2, 10):
            cfg = PairingConfig(mode="sampled", n_pairs=2000, class_batch_size=m, seed=9)
            pairs = pair_sampled(ds, cfg)
            frac[m] = float(np.mean(pairs.t))
        assert abs(frac[2] - 0.5) < 0.05
        assert abs(frac[10] - 0.1) < 0.05
        assert frac[2] > frac[10]

    def test_full_budget_equals_exhaustive(self):
        """Requesting every pair with all classes in each batch recovers the
        exhaustive pair set exactly (as a set)."""
        ds = balanced_dataset(3, 10, seed=6)
        cap = len(ds) * (len(ds) - 1) // 2
        cfg = PairingConfig(mode="sampled", n_pairs=cap, class_batch_size=3, seed=13)
        sampled = pair_sampled(ds, cfg)
        exhaustive = pair_exhaustive(ds)
        s = set(zip(sampled.a_ids.tolist(), sampled.b_ids.tolist(), sampled.t.tolist()))
        e = set(zip(exhaustive.a_ids.tolist(), exhaustive.b_ids.tolist(), exhaustive.t.tolist()))
        assert s == e

    def test_deterministic_in_seed(self):
        ds = balanced_dataset(5, 30, seed=8)
        cfg = PairingConfig(mode="sampled", n_pairs=400, seed=21)
        p1 = pair_sampled(ds, cfg)
        p2 = pair_sampled(ds, cfg)
        np.testing.assert_array_equal(p1.a_ids, p2.a_ids)
        np.testing.assert_array_equal(p1.b_ids, p2.b_ids)

    def test_single_class_dataset_still_fills(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((20, 1)), np.zeros(20, dtype=int), 2)
        cfg = PairingConfig(mode="sampled", n_pairs=50, seed=1)
        pairs = pair_sampled(ds, cfg)
        assert len(pairs) == 50
        assert np.all(pairs.t == 1)


class TestSampledContract:
    """The rank-space sampler's contract, independent of its random stream."""

    @staticmethod
    def check_valid(ds, pairs, count):
        assert len(pairs) == count
        assert np.all(pairs.a_ids < pairs.b_ids)
        assert len(set(zip(pairs.a_ids.tolist(), pairs.b_ids.tolist()))) == count
        same = ds.y[ds.positions_of(pairs.a_ids)] == ds.y[ds.positions_of(pairs.b_ids)]
        np.testing.assert_array_equal(pairs.t, same.astype(np.uint8))

    def test_valid_over_sizes_and_budgets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            classes = int(rng.integers(1, 8))
            per_class = int(rng.integers(1, 120))
            ds = balanced_dataset(classes, per_class, seed=int(rng.integers(2**31)))
            cap = len(ds) * (len(ds) - 1) // 2
            if cap == 0:
                continue
            count = int(rng.integers(1, min(cap, 5000) + 1))
            m = int(rng.integers(1, classes + 1))
            cfg = PairingConfig(n_pairs=count, class_batch_size=m, seed=int(rng.integers(99)))
            self.check_valid(ds, pair_sampled(ds, cfg), count)

    def test_fallback_pool_stays_whole_dataset(self, monkeypatch):
        """Cross-class pairs under M=1 come only from the whole-dataset pool.
        Once it is reached it stays, so the run spends one stall of
        STALL_LIMIT fruitless class batches, not one per fallback batch."""
        picked = []
        real_pick = pairing._pick

        def counting_pick(rng, keys, quota):
            out = real_pick(rng, keys, quota)
            picked.append(len(out))
            return out

        monkeypatch.setattr(pairing, "_pick", counting_pick)
        ds = balanced_dataset(2, 60, seed=8)
        cap = len(ds) * (len(ds) - 1) // 2
        pairs = pair_sampled(ds, PairingConfig(n_pairs=cap, class_batch_size=1, seed=3))
        self.check_valid(ds, pairs, cap)
        assert np.sum(pairs.t == 0) > 2 * pairing.BATCH_GRANULARITY   # three fallback batches
        assert picked.count(0) < 2 * pairing.STALL_LIMIT

    def test_seed_determines_output(self):
        ds = balanced_dataset(4, 200, seed=3)
        runs = [pair_sampled(ds, PairingConfig(n_pairs=3000, seed=s)) for s in (5, 5, 6)]
        np.testing.assert_array_equal(runs[0].a_ids, runs[1].a_ids)
        np.testing.assert_array_equal(runs[0].b_ids, runs[1].b_ids)
        np.testing.assert_array_equal(runs[0].t, runs[1].t)
        assert not np.array_equal(runs[0].a_ids * 10**6 + runs[0].b_ids,
                                  runs[2].a_ids * 10**6 + runs[2].b_ids)

    def test_every_block_stays_within_m_classes(self):
        """Each 1024-pair block comes from one batch of M classes (the pools
        are big enough that every batch fills its quota)."""
        ds = balanced_dataset(10, 200, seed=8)
        for m in (1, 2, 3):
            pairs = pair_sampled(ds, PairingConfig(n_pairs=5000, class_batch_size=m, seed=2))
            ya, yb = ds.y[ds.positions_of(pairs.a_ids)], ds.y[ds.positions_of(pairs.b_ids)]
            for lo in range(0, len(pairs), 1024):
                classes = set(ya[lo:lo + 1024].tolist()) | set(yb[lo:lo + 1024].tolist())
                assert len(classes) <= m

    def test_non_contiguous_and_negative_ids(self):
        rng = np.random.default_rng(4)
        n = 400
        ids = rng.choice(np.arange(-10**9, 10**9, 7919), size=n, replace=False)
        y = rng.integers(0, 3, size=n)
        ds = FullyLabeledDataset.from_arrays(rng.normal(size=(n, 2)), y, 3, ids=ids)
        assert np.any(ds.ids < 0)
        for count in (50, 3000, n * (n - 1) // 2):
            pairs = pair_sampled(ds, PairingConfig(n_pairs=count, class_batch_size=3, seed=1))
            self.check_valid(ds, pairs, count)
            assert np.all(np.isin(pairs.a_ids, ids)) and np.all(np.isin(pairs.b_ids, ids))

    def test_roughly_uniform_over_a_small_pool(self):
        """One pair out of a 10-record, one-class pool (45 pairs): across
        seeds every pair turns up, none far more often than the others."""
        ds = FullyLabeledDataset.from_arrays(np.zeros((10, 1)), np.zeros(10, dtype=int), 1)
        hits = np.zeros((10, 10), dtype=int)
        for seed in range(2700):
            pairs = pair_sampled(ds, PairingConfig(n_pairs=1, seed=seed))
            hits[pairs.a_ids[0], pairs.b_ids[0]] += 1
        counts = hits[np.triu_indices(10, k=1)]
        assert counts.sum() == 2700
        assert counts.min() > 30 and counts.max() < 95  # 60 expected, sd 7.7

    def test_roughly_uniform_over_a_large_pool(self):
        """Draws from a pool of more than 2^16 pairs cover both ends of the
        id range about equally."""
        ds = balanced_dataset(1, 2000, seed=1)
        pairs = pair_sampled(ds, PairingConfig(n_pairs=20000, seed=3))
        ids = np.concatenate([pairs.a_ids, pairs.b_ids])
        per_decile = np.bincount(ids * 10 // len(ds), minlength=10)
        assert np.all(np.abs(per_decile / 4000 - 1.0) < 0.1)

    def test_full_cap_of_300_equals_exhaustive(self):
        ds = balanced_dataset(3, 100, seed=9)
        cap = len(ds) * (len(ds) - 1) // 2
        assert cap == 44850
        sampled = pair_sampled(ds, PairingConfig(n_pairs=cap, seed=4))
        exhaustive = pair_exhaustive(ds)
        s = set(zip(sampled.a_ids.tolist(), sampled.b_ids.tolist(), sampled.t.tolist()))
        e = set(zip(exhaustive.a_ids.tolist(), exhaustive.b_ids.tolist(), exhaustive.t.tolist()))
        assert s == e


def online_epoch_pairs(batch):
    """Full pair expansion of one minibatch (B(B-1)/2 records), the id-level
    image of the online trainer's per-batch expansion.

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


class TestOnline:
    def test_expansion_counts(self):
        for b in (2, 5, 17):
            batch = balanced_dataset(2, (b + 1) // 2).subset(np.arange(b))
            pairs = online_epoch_pairs(batch)
            assert len(pairs) == b * (b - 1) // 2

    def test_tiny_batch_is_empty(self):
        batch = balanced_dataset(2, 1).subset(np.arange(1))
        assert len(online_epoch_pairs(batch)) == 0

    def test_matches_exhaustive_on_same_batch(self):
        batch = balanced_dataset(3, 4, seed=12)
        a = online_epoch_pairs(batch)
        b = pair_exhaustive(batch)
        np.testing.assert_array_equal(a.a_ids, b.a_ids)
        np.testing.assert_array_equal(a.t, b.t)


class TestBuildPairs:
    @staticmethod
    def same_pairs(a, b):
        for field in ("a_ids", "b_ids", "t"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_dispatch_matches_constructors(self):
        ds = balanced_dataset(3, 12, seed=4)
        pairs, pool = build_pairs(ds, PairingConfig(mode="exhaustive"))
        self.same_pairs(pairs, pair_exhaustive(ds))
        assert pool is ds
        cfg = PairingConfig(mode="sampled", n_pairs=40, class_batch_size=2, seed=3)
        pairs, pool = build_pairs(ds, cfg)
        self.same_pairs(pairs, pair_sampled(ds, cfg))
        assert pool is ds

    def test_disjoint_label_pool_is_remainder(self):
        ds = balanced_dataset(3, 12, seed=4)
        pairs, pool = build_pairs(ds, PairingConfig(mode="disjoint", n_pairs=10, seed=6))
        want, rest = pair_disjoint(ds, 10, seed=6)
        self.same_pairs(pairs, want)
        np.testing.assert_array_equal(pool.ids, rest.ids)
        assert not np.isin(pool.ids, np.concatenate([pairs.a_ids, pairs.b_ids])).any()

    def test_online_mode_has_no_pair_set(self):
        with pytest.raises(ValueError, match="no materialized pair set"):
            build_pairs(balanced_dataset(2, 4), PairingConfig(mode="online"))


class TestConfigAndCoverage:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown pairing mode"):
            PairingConfig(mode="surprise")

    @pytest.mark.parametrize("mode", ["exhaustive", "disjoint", "sampled", "online"])
    def test_each_mode_takes_only_the_settings_it_reads(self, mode):
        """Exhaustive and online read neither setting, disjoint reads
        ``n_pairs`` and sampled both; a setting left at 0 or None is unset."""
        reads = pairing._MODE_READS[mode][1]
        assert reads == {"exhaustive": (), "disjoint": ("n_pairs",),
                         "sampled": ("n_pairs", "class_batch_size"), "online": ()}[mode]
        PairingConfig(mode=mode)
        PairingConfig(mode=mode, n_pairs=0, class_batch_size=None, seed=5)
        for key, value in (("n_pairs", 7), ("class_batch_size", 3)):
            if key in reads:
                assert getattr(PairingConfig(mode=mode, **{key: value}), key) == value
            else:
                with pytest.raises(ValueError, match=rf"^pairing\.mode {mode} .* reads no "
                                                     rf"{key}, got {value}$"):
                    PairingConfig(mode=mode, **{key: value})

    def test_range_checks_come_before_the_mode_rule(self):
        with pytest.raises(ValueError, match="^n_pairs must not be negative, got -1$"):
            PairingConfig(mode="exhaustive", n_pairs=-1)
        with pytest.raises(ValueError, match="^class_batch_size must be at least 1, got 0$"):
            PairingConfig(mode="disjoint", n_pairs=3, class_batch_size=0)
