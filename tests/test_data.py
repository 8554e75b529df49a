"""Containers: labeled datasets, pair records, validation."""

import numpy as np
import pytest

from samediff import (
    EmbeddedFeatures,
    FullyLabeledDataset,
    PairDataset,
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

    def test_scalar_result_is_uint8(self):
        assert sufficient_label(3, 3).dtype == np.uint8
        assert sufficient_label(np.int8(2), np.uint64(2)) == 1

    @pytest.mark.parametrize("dtype_a, dtype_b", [
        (np.int64, np.int64), (np.int8, np.int64), (np.uint8, np.int32),
        (np.int16, np.uint16), (np.uint32, np.int64), (np.uint64, np.uint8),
    ])
    def test_arrays_of_mixed_integer_dtypes(self, dtype_a, dtype_b):
        rng = np.random.default_rng(7)
        ya = rng.integers(0, 4, size=200).astype(dtype_a)
        yb = rng.integers(0, 4, size=200).astype(dtype_b)
        t = sufficient_label(ya, yb)
        assert t.dtype == np.uint8 and t.shape == (200,)
        want = [int(a == b) for a, b in zip(ya.tolist(), yb.tolist())]
        np.testing.assert_array_equal(t, want)
        np.testing.assert_array_equal(sufficient_label(yb, ya), t)
        assert 0 < t.sum() < len(t)


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
        k = ds.index_of(40)
        assert ds.ids[k] == 40 and ds.y[k] == 2
        np.testing.assert_array_equal(ds.x[k], [6.0, 7.0])

    def test_index_of_unknown_id(self):
        with pytest.raises(KeyError, match="unknown example id"):
            self._ds().index_of(999)

    def test_features_for_preserves_order(self):
        ds = self._ds()
        got = ds.x[ds.positions_of(np.array([50, 10]))]
        np.testing.assert_array_equal(got, ds.x[[4, 0]])

    def test_labels_for(self):
        ds = self._ds()
        np.testing.assert_array_equal(ds.y[ds.positions_of(np.array([60, 20]))], [2, 1])

    def test_subset_keeps_ids(self):
        ds = self._ds()
        sub = ds.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.ids, [20, 40])
        assert sub.class_count == 3

    def test_subset_by_ids(self):
        ds = self._ds()
        sub = ds.subset(ds.positions_of([40, 10]))
        np.testing.assert_array_equal(sub.ids, [40, 10])
        np.testing.assert_array_equal(sub.y, [2, 0])

    def test_default_ids_and_class_count(self):
        ds = FullyLabeledDataset.from_arrays(np.zeros((3, 1)), [0, 1, 1])
        np.testing.assert_array_equal(ds.ids, [0, 1, 2])
        assert ds.class_count == 2


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
        np.testing.assert_array_equal(xa, ds.x[ds.positions_of(pairs.a_ids)])
        np.testing.assert_array_equal(xb, ds.x[ds.positions_of(pairs.b_ids)])
        assert t.dtype == np.int64

    def test_take(self):
        pairs = PairDataset.build([1, 1, 2], [2, 3, 4], [1, 0, 0], source=self._ds())
        sub = pairs.take(np.array([2, 0]))
        np.testing.assert_array_equal(sub.a_ids, [2, 1])
        np.testing.assert_array_equal(sub.t, [0, 1])
        assert sub.source is pairs.source

    def test_participant_ids_sorted_unique(self):
        pairs = PairDataset.build([1, 2], [4, 4], [0, 1])
        np.testing.assert_array_equal(pairs.participant_ids(), [1, 2, 4])


class TestEmbeddedFeatures:
    def test_label_free_lookup(self):
        feats = EmbeddedFeatures(ids=np.array([0, 1, 2]), x=np.eye(3))
        np.testing.assert_array_equal(feats.x[feats.positions_of([2, 0])], np.eye(3)[[2, 0]])
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
        np.testing.assert_array_equal(src.positions_of(np.array([7, 3, 5])), [2, 4, 3])

    def test_unknown_id_raises_key_error(self, make):
        src = make(np.array([4, 8]), np.zeros((2, 2)))
        for query, bad in (([4, 9, 8], 9), ([1], 1), ([99, 2], 99)):
            with pytest.raises(KeyError, match=rf"unknown example id {bad}\b"):
                src.positions_of(np.array(query))

    def test_empty_query_and_empty_source(self, make):
        src = make(np.array([4, 8]), np.ones((2, 3)))
        assert src.x[src.positions_of(np.array([], dtype=np.int64))].shape == (0, 3)
        empty = make(np.array([], dtype=np.int64), np.zeros((0, 3)))
        assert empty.x[empty.positions_of(np.array([], dtype=np.int64))].shape == (0, 3)
        with pytest.raises(KeyError, match="unknown example id 4"):
            empty.positions_of(np.array([4]))

    def test_matches_dict_lookup_on_seeded_ids(self, make):
        rng = np.random.default_rng(11)
        ids = rng.choice(10_000, size=300, replace=False)
        src = make(ids, rng.normal(size=(300, 2)))
        query = rng.choice(ids, size=1000)
        np.testing.assert_array_equal(src.positions_of(query), _dict_rows(ids, query))


def test_labels_and_subset_by_ids_match_dict_lookup():
    rng = np.random.default_rng(12)
    ids = rng.choice(5_000, size=200, replace=False)
    ds = FullyLabeledDataset.from_arrays(rng.normal(size=(200, 3)), rng.integers(0, 4, 200), 4, ids=ids)
    query = rng.choice(ids, size=50, replace=False)
    rows = _dict_rows(ids, query)
    np.testing.assert_array_equal(ds.positions_of(query), rows)
    sub = ds.subset(ds.positions_of(query.tolist()))
    np.testing.assert_array_equal(sub.ids, query)
    np.testing.assert_array_equal(sub.x, ds.x[rows])
    np.testing.assert_array_equal(sub.y, ds.y[rows])
    assert ds.index_of(int(query[0])) == rows[0]
