"""Eval harness: subsets, sweeps, and the three-regime comparison."""

from pathlib import Path

import numpy as np
import pytest

from samediff import (
    CompareResult,
    PairingConfig,
    SweepSpec,
    TrainConfig,
    TwoPartClassifier,
    accuracy,
    comparison_protocol,
    generate_synthetic,
    pair_sampled,
    run_sweep,
    stratified_subset,
    substream,
    train_two_stage,
)


def factory(seed, hidden=(16,), class_count=2):
    return TwoPartClassifier.build(
        2, list(hidden), 2, class_count, rng=substream(seed, "init")
    )


def quick_cfg(**kw):
    kw.setdefault("schedule", ((0.1, 3),))
    kw.setdefault("head_epochs", 10)
    return TrainConfig(**kw)


def blob_pair():
    train = generate_synthetic("blobs", n_per_class=60, noise=0.5, seed=0)
    test = generate_synthetic("blobs", n_per_class=60, noise=0.5, seed=1)
    return train, test


class TestAccuracy:
    def test_counts_matches(self, rng42):
        ds = generate_synthetic("blobs", n_per_class=10, noise=0.3, seed=0)
        model = factory(0)
        preds = model.predict(ds.x)
        assert accuracy(model, ds) == pytest.approx(np.mean(preds == ds.y))

    def test_empty_dataset_rejected(self):
        ds = generate_synthetic("blobs", n_per_class=2, seed=0).subset(np.arange(0))
        with pytest.raises(ValueError, match="empty dataset"):
            accuracy(factory(0), ds)


class TestStratifiedSubset:
    def test_one_per_class_at_class_count(self):
        ds = generate_synthetic("blobs", n_per_class=30, noise=0.4, seed=2, class_count=5)
        sub = stratified_subset(ds, 5, seed=0)
        assert sorted(sub.y.tolist()) == [0, 1, 2, 3, 4]

    def test_spread_stays_balanced(self):
        ds = generate_synthetic("blobs", n_per_class=40, noise=0.4, seed=3, class_count=4)
        for n in (7, 12, 30):
            sub = stratified_subset(ds, n, seed=1)
            assert len(sub) == n
            counts = np.bincount(sub.y, minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_caps_and_determinism(self):
        ds = generate_synthetic("blobs", n_per_class=10, noise=0.4, seed=4)
        with pytest.raises(ValueError, match=r"subset size 0 outside \[1, 20\]"):
            stratified_subset(ds, 0, seed=0)
        with pytest.raises(ValueError, match=r"subset size 21 outside \[1, 20\]"):
            stratified_subset(ds, 21, seed=0)
        a = stratified_subset(ds, 9, seed=5)
        b = stratified_subset(ds, 9, seed=5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_full_size_returns_everything(self):
        ds = generate_synthetic("blobs", n_per_class=8, noise=0.4, seed=5)
        sub = stratified_subset(ds, 16, seed=0)
        assert sorted(sub.ids.tolist()) == sorted(ds.ids.tolist())


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(n1_values=(), n2_values=(2,))
        with pytest.raises(ValueError, match="reps"):
            SweepSpec(n1_values=(10,), n2_values=(2,), reps=0)


class TestRunSweep:
    def test_rows_reproduce_exactly(self):
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(50, 150), n2_values=(2,), reps=2, seed=3)
        a = run_sweep(train, test, spec, factory, quick_cfg())
        b = run_sweep(train, test, spec, factory, quick_cfg())
        assert len(a.rows) == 4
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.n1, ra.n2, ra.rep, ra.seed) == (rb.n1, rb.n2, rb.rep, rb.seed)
            assert ra.accuracy == rb.accuracy

    def test_one_cell_matches_manual_run(self):
        """A sweep cell is nothing more than pair sampling, label subsetting
        and two-stage training under the cell's derived seed."""
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(80,), n2_values=(2,), reps=1, seed=11)
        result = run_sweep(train, test, spec, factory, quick_cfg())
        row = result.rows[0]

        cell_seed = int(substream(11, "sweep", 80, 2, 0).integers(2**62))
        assert row.seed == cell_seed
        pairs = pair_sampled(train, PairingConfig(mode="sampled", n_pairs=80, seed=cell_seed))
        labeled = stratified_subset(train, 2, cell_seed)
        model = factory(cell_seed)
        train_two_stage(model, pairs, labeled, quick_cfg(seed=cell_seed))
        assert accuracy(model, test) == row.accuracy

    def test_cell_stats_and_csv(self, tmp_path):
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(60,), n2_values=(2,), reps=3, seed=0)
        result = run_sweep(train, test, spec, factory, quick_cfg())
        mean, std = result.cell_stats(60, 2)
        acc = [r.accuracy for r in result.cell(60, 2)]
        assert mean == pytest.approx(np.mean(acc))
        assert std == pytest.approx(np.std(acc, ddof=1))
        with pytest.raises(ValueError, match=r"no rows for cell \(9, 9\)"):
            result.cell_stats(9, 9)

        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        result.to_csv(p1)
        result.to_csv(p2)
        blob = Path(p1).read_bytes()
        assert blob == Path(p2).read_bytes()
        lines = blob.decode().splitlines()
        assert lines[0] == "n1,n2,rep,seed,accuracy"
        assert len(lines) == 4
        assert "wall" not in lines[0]

    def test_single_rep_std_is_zero(self):
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(40,), n2_values=(2,), reps=1, seed=0)
        result = run_sweep(train, test, spec, factory, quick_cfg())
        assert result.cell_stats(40, 2)[1] == 0.0


class TestComparisonProtocol:
    def test_regime_keys_and_trial_counts(self):
        train, test = blob_pair()
        result = comparison_protocol(
            train, test, factory, quick_cfg(), n_pairs=100, trials=2
        )
        assert set(result.regimes) == {"full", "sampled", "online"}
        assert all(len(v) == 2 for v in result.regimes.values())
        assert result.trials == 2

    def test_paired_design_is_deterministic(self):
        train, test = blob_pair()
        a = comparison_protocol(train, test, factory, quick_cfg(), n_pairs=80, trials=2)
        b = comparison_protocol(train, test, factory, quick_cfg(), n_pairs=80, trials=2)
        assert a.regimes == b.regimes

    def test_unknown_regime_rejected(self):
        train, test = blob_pair()
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            comparison_protocol(
                train, test, factory, quick_cfg(), n_pairs=50, trials=1,
                regimes=("bogus",),
            )

    def test_stats_and_dict_round_trip(self):
        result = CompareResult(trials=3, regimes={"full": [0.9, 0.95, 1.0]})
        mean, std = result.stats("full")
        assert mean == pytest.approx(0.95)
        assert std == pytest.approx(np.std([0.9, 0.95, 1.0], ddof=1))
        doc = result.to_dict()
        assert doc["trials"] == 3
        assert doc["regimes"]["full"]["mean"] == pytest.approx(0.95)
        assert doc["regimes"]["full"]["accuracies"] == [0.9, 0.95, 1.0]

    def test_regimes_all_learn_easy_blobs(self):
        """On well-separated blobs every regime should average past 90
        percent over a few paired trials."""
        train = generate_synthetic("blobs", n_per_class=80, noise=0.5, seed=6)
        test = generate_synthetic("blobs", n_per_class=80, noise=0.5, seed=7)
        result = comparison_protocol(
            train, test, factory, TrainConfig(), n_pairs=400, trials=3
        )
        for name in ("full", "sampled", "online"):
            assert result.stats(name)[0] > 0.9
