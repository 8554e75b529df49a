"""Containers: labeled datasets, pair records, validation."""

import numpy as np
import pytest

from samediff import (
    EmbeddedFeatures,
    FullyLabeledDataset,
    PairDataset,
    SufficientPair,
    class_histogram,
    sufficient_label,
    validate_dataset,
)


class TestSufficientLabel:
    def test_agreement_is_one(self):
        assert sufficient_label(3, 3) == 1
        assert sufficient_label(0, 0) == 1

    def test_disagreement_is_zero(self):
        assert sufficient_label(3, 4) == 0
        assert sufficient_label(0, 1) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = rng.integers(0, 5, size=2)
            assert sufficient_label(int(a), int(b)) == sufficient_label(int(b), int(a))


class TestFullyLabeledDataset:
    def _ds(self):
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.array([0, 1, 0, 2, 1, 2])
        return FullyLabeledDataset.from_arrays(x, y, class_count=3, ids=[10, 20, 30, 40, 50, 60])

    def test_basic_shape(self):
        ds = self._ds()
        assert len(ds) == 6
        assert ds.dim == 2
        assert ds.class_count == 3

    def test_arrays_are_read_only(self):
        ds = self._ds()
        with pytest.raises(ValueError):
            ds.x[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.y[0] = 2

    def test_index_of_and_example(self):
        ds = self._ds()
        assert ds.index_of(30) == 2
        ex = ds.example(40)
        assert ex.id == 40 and ex.y == 2
        np.testing.assert_array_equal(ex.x, [6.0, 7.0])

    def test_index_of_unknown_id(self):
        with pytest.raises(KeyError, match="unknown example id"):
            self._ds().index_of(999)

    def test_features_for_preserves_order(self):
        ds = self._ds()
        got = ds.features_for(np.array([50, 10]))
        np.testing.assert_array_equal(got, ds.x[[4, 0]])

    def test_labels_for(self):
        ds = self._ds()
        np.testing.assert_array_equal(ds.labels_for(np.array([60, 20])), [2, 1])

    def test_subset_keeps_ids(self):
        ds = self._ds()
        sub = ds.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.ids, [20, 40])
        assert sub.class_count == 3

    def test_subset_by_ids(self):
        sub = self._ds().subset_by_ids([40, 10])
        np.testing.assert_array_equal(sub.ids, [40, 10])
        np.testing.assert_array_equal(sub.y, [2, 0])

    def test_iteration_matches_rows(self):
        ds = self._ds()
        seen = [(ex.id, ex.y) for ex in ds]
        assert seen == [(10, 0), (20, 1), (30, 0), (40, 2), (50, 1), (60, 2)]

    def test_default_ids_and_class_count(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((3, 1)), [0, 1, 1])
        np.testing.assert_array_equal(ds.ids, [0, 1, 2])
        assert ds.class_count == 2


class TestClassHistogram:
    def test_counts_include_empty_classes(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((4, 1)), [0, 0, 2, 2], class_count=4)
        assert class_histogram(ds) == {0: 2, 1: 0, 2: 2, 3: 0}

    def test_empty_dataset(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((0, 1)), [], class_count=2)
        assert class_histogram(ds) == {0: 0, 1: 0}


class TestValidateDataset:
    def test_clean_dataset_has_no_violations(self):
        ds = FullyLabeledDataset.from_arrays(np.ones((4, 2)), [0, 1, 0, 1], 2)
        assert validate_dataset(ds) == []

    def test_duplicate_ids_reported(self):
        ds = FullyLabeledDataset.from_arrays(
            np.ones((3, 2)), [0, 1, 0], 2, ids=[7, 7, 8]
        )
        msgs = validate_dataset(ds)
        assert any("duplicate id 7" in m for m in msgs)

    def test_small_class_count_reported(self):
        ds = FullyLabeledDataset.from_arrays(np.ones((2, 2)), [0, 0], 1)
        assert any("class_count" in m for m in validate_dataset(ds))

    def test_non_finite_features_reported(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        ds = FullyLabeledDataset.from_arrays(x, [0, 1, 0], 2)
        assert any("non-finite" in m for m in validate_dataset(ds))

    def test_out_of_range_labels_reported(self):
        ds = FullyLabeledDataset.from_arrays(np.ones((3, 2)), [0, 5, 1], 2)
        assert any("labels outside" in m for m in validate_dataset(ds))


class TestSufficientPair:
    def test_orders_enforced(self):
        SufficientPair(1, 2, 1)
        with pytest.raises(ValueError, match="a_id < b_id"):
            SufficientPair(2, 1, 0)
        with pytest.raises(ValueError, match="a_id < b_id"):
            SufficientPair(3, 3, 1)

    def test_label_domain(self):
        with pytest.raises(ValueError, match="0 or 1"):
            SufficientPair(1, 2, 2)


class TestPairDataset:
    def _ds(self):
        x = np.arange(8, dtype=np.float64).reshape(4, 2)
        return FullyLabeledDataset.from_arrays(x, [0, 0, 1, 1], 2, ids=[1, 2, 3, 4])

    def test_build_canonicalizes(self):
        pairs = PairDataset.build([4, 1], [2, 3], [0, 0])
        np.testing.assert_array_equal(pairs.a_ids, [2, 1])
        np.testing.assert_array_equal(pairs.b_ids, [4, 3])

    def test_build_rejects_self_pairs(self):
        with pytest.raises(ValueError, match="self-pairs"):
            PairDataset.build([3], [3], [1])

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="canonical"):
            PairDataset(a_ids=np.array([5]), b_ids=np.array([2]), t=np.array([1]))

    def test_gather_needs_source(self):
        pairs = PairDataset.build([1], [2], [1])
        with pytest.raises(ValueError, match="no feature source"):
            pairs.gather()

    def test_gather_through_source(self):
        ds = self._ds()
        pairs = PairDataset.build([3, 1], [2, 4], [0, 0], source=ds)
        xa, xb, t = pairs.gather()
        np.testing.assert_array_equal(xa, ds.features_for(pairs.a_ids))
        np.testing.assert_array_equal(xb, ds.features_for(pairs.b_ids))
        assert t.dtype == np.int64

    def test_attach_source(self):
        pairs = PairDataset.build([1], [2], [1]).attach_source(self._ds())
        xa, _, _ = pairs.gather()
        assert xa.shape == (1, 2)

    def test_take(self):
        pairs = PairDataset.build([1, 1, 2], [2, 3, 4], [1, 0, 0], source=self._ds())
        sub = pairs.take(np.array([2, 0]))
        np.testing.assert_array_equal(sub.a_ids, [2, 1])
        np.testing.assert_array_equal(sub.t, [0, 1])
        assert sub.source is pairs.source

    def test_participant_ids_sorted_unique(self):
        pairs = PairDataset.build([1, 2], [4, 4], [0, 1])
        np.testing.assert_array_equal(pairs.participant_ids(), [1, 2, 4])

    def test_iteration_yields_records(self):
        pairs = PairDataset.build([1], [9], [0])
        rec = next(iter(pairs))
        assert (rec.a_id, rec.b_id, rec.t) == (1, 9, 0)


class TestEmbeddedFeatures:
    def test_label_free_lookup(self):
        feats = EmbeddedFeatures(ids=np.array([0, 1, 2]), x=np.eye(3))
        np.testing.assert_array_equal(feats.features_for(np.array([2, 0])), np.eye(3)[[2, 0]])
        assert not hasattr(feats, "y")


def _dict_rows(ids, query):
    """The original lookup: a dict built in row order, one entry per id."""
    index = {int(i): k for k, i in enumerate(ids)}
    return np.array([index[int(q)] for q in query], dtype=np.int64)


def _labeled_source(ids, x):
    return FullyLabeledDataset.from_arrays(x, np.arange(len(ids)) % 3, 3, ids=ids)


def _embedded_source(ids, x):
    return EmbeddedFeatures(ids=ids, x=x)


@pytest.mark.parametrize("make", [_labeled_source, _embedded_source], ids=["labeled", "embedded"])
class TestIdLookup:
    """Both feature sources resolve id arrays exactly as a row-order dict did."""

    def test_duplicate_id_resolves_to_last_row(self, make):
        src = make(np.array([7, 3, 7, 5, 3]), np.arange(10.0).reshape(5, 2))
        np.testing.assert_array_equal(src.features_for(np.array([7, 3, 5])), src.x[[2, 4, 3]])

    def test_unknown_id_raises_key_error(self, make):
        src = make(np.array([4, 8]), np.zeros((2, 2)))
        for query, bad in (([4, 9, 8], 9), ([1], 1), ([99, 2], 99)):
            with pytest.raises(KeyError, match=rf"unknown example id {bad}\b"):
                src.features_for(np.array(query))

    def test_empty_query_and_empty_source(self, make):
        src = make(np.array([4, 8]), np.ones((2, 3)))
        assert src.features_for(np.array([], dtype=np.int64)).shape == (0, 3)
        empty = make(np.array([], dtype=np.int64), np.zeros((0, 3)))
        assert empty.features_for(np.array([], dtype=np.int64)).shape == (0, 3)
        with pytest.raises(KeyError, match="unknown example id 4"):
            empty.features_for(np.array([4]))

    def test_matches_dict_lookup_on_seeded_ids(self, make):
        rng = np.random.default_rng(11)
        ids = rng.choice(10_000, size=300, replace=False)
        src = make(ids, rng.normal(size=(300, 2)))
        query = rng.choice(ids, size=1000)
        np.testing.assert_array_equal(src.features_for(query), src.x[_dict_rows(ids, query)])


def test_labels_and_subset_by_ids_match_dict_lookup():
    rng = np.random.default_rng(12)
    ids = rng.choice(5_000, size=200, replace=False)
    ds = FullyLabeledDataset.from_arrays(rng.normal(size=(200, 3)), rng.integers(0, 4, 200), 4, ids=ids)
    query = rng.choice(ids, size=50, replace=False)
    rows = _dict_rows(ids, query)
    np.testing.assert_array_equal(ds.labels_for(query), ds.y[rows])
    sub = ds.subset_by_ids(query.tolist())
    np.testing.assert_array_equal(sub.ids, query)
    np.testing.assert_array_equal(sub.x, ds.x[rows])
    np.testing.assert_array_equal(sub.y, ds.y[rows])
    assert ds.index_of(int(query[0])) == rows[0]
