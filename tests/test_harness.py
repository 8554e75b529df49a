"""Eval harness: subsets, sweeps, and the three-regime comparison."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from samediff import (
    CompareResult,
    FullyLabeledDataset,
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
    build_pairs,
    substream,
    train_baseline_full,
    train_online,
    train_regimes,
    train_two_stage,
)
from conftest import params_equal


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

    def test_picks_match_the_frozen_round_robin(self):
        """The same rows as the loop it replaced, on unsorted ids, absent
        classes and labels outside [0, class_count), for every n."""
        rng = np.random.default_rng(2024)
        for trial in range(200):
            size, k = int(rng.integers(1, 30)), int(rng.integers(2, 7))
            y = rng.integers(-1, k + 2, size=size)
            if trial % 10 == 0:
                y[y == 0] = k    # class 0 absent
            if trial % 20 == 0:
                y[y < k] = -1    # no label in range
            ds = FullyLabeledDataset(ids=rng.permutation(5 * size)[:size],
                                     x=rng.normal(size=(size, 2)), y=y, class_count=k)
            for n in range(1, size + 1):
                seed = int(rng.integers(1000))
                got, want = stratified_subset(ds, n, seed), frozen_stratified_subset(ds, n, seed)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.x, want.x)

    def test_short_and_empty_budgets(self):
        """Rows whose labels lie outside [0, class_count) are never picked."""
        ds = FullyLabeledDataset(ids=np.arange(5), x=np.zeros((5, 2)),
                                 y=np.array([0, 9, 1, -1, 9]), class_count=2)
        assert stratified_subset(ds, 5, seed=0).ids.tolist() == [0, 2]
        none = FullyLabeledDataset(ids=np.arange(3), x=np.zeros((3, 2)),
                                   y=np.array([-1, 2, 5]), class_count=2)
        assert len(stratified_subset(none, 3, seed=0)) == 0


def frozen_stratified_subset(ds, n, seed):
    """The round-robin loop ``stratified_subset`` once ran: each shuffled
    class in turn pops the last of its own shuffled rows."""
    rng = substream(seed, "labels")
    classes = [c for c in range(ds.class_count) if np.any(ds.y == c)]
    rng.shuffle(classes)
    queues = {c: list(rng.permutation(np.flatnonzero(ds.y == c))) for c in classes}
    picked = []
    while len(picked) < n:
        progressed = False
        for c in classes:
            if queues[c] and len(picked) < n:
                picked.append(int(queues[c].pop()))
                progressed = True
        if not progressed:
            break
    return ds.subset(np.array(sorted(picked), dtype=np.int64))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(n1_values=(), n2_values=(2,), reps=1)
        with pytest.raises(ValueError, match="reps"):
            SweepSpec(n1_values=(10,), n2_values=(2,), reps=0)
        with pytest.raises(ValueError, match="sweep.n1 must be at least 1, got -4"):
            SweepSpec(n1_values=(30, -4), n2_values=(2,), reps=1)
        with pytest.raises(ValueError, match="sweep.n2 must be at least 1, got 0"):
            SweepSpec(n1_values=(30,), n2_values=(0, 1), reps=1)
        with pytest.raises(ValueError, match="^sweep.n1 lists 30 twice$"):
            SweepSpec(n1_values=(30, 60, 30), n2_values=(1,), reps=2)


class TestRunSweep:
    def test_rows_reproduce_exactly(self):
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(50, 150), n2_values=(2,), reps=2)
        a = run_sweep(train, test, spec, factory, quick_cfg(seed=3), PairingConfig())
        b = run_sweep(train, test, spec, factory, quick_cfg(seed=3), PairingConfig())
        assert len(a.rows) == 4
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.n1, ra.n2, ra.rep, ra.seed) == (rb.n1, rb.n2, rb.rep, rb.seed)
            assert ra.accuracy == rb.accuracy

    def test_one_cell_matches_manual_run(self):
        """A sweep cell is nothing more than pair sampling, label subsetting
        and two-stage training under the cell's derived seed."""
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(80,), n2_values=(2,), reps=1)
        result = run_sweep(train, test, spec, factory, quick_cfg(seed=11), PairingConfig())
        row = result.rows[0]

        cell_seed = int(substream(11, "sweep", 80, 2, 0).integers(2**62))
        assert row.seed == cell_seed
        pairs = pair_sampled(train, PairingConfig(mode="sampled", n_pairs=80, seed=cell_seed))
        labeled = stratified_subset(train, 2, cell_seed)
        model = factory(cell_seed)
        train_two_stage(model, pairs, labeled, quick_cfg(seed=cell_seed))
        assert accuracy(model, test) == row.accuracy

    def test_pairing_mode_and_label_pool_are_honoured(self, monkeypatch):
        """Under disjoint pairing, sweep cells and comparison trials train on
        disjoint pairs and draw their labels from the remainder, so no
        labeled record appears in a pair."""
        import samediff.harness as harness

        seen = []
        monkeypatch.setattr(harness, "train_two_stage",
                            lambda model, pairs, labeled, cfg: seen.append((pairs, labeled)) or ())
        train, test = blob_pair()
        disjoint = PairingConfig(mode="disjoint")
        spec = SweepSpec(n1_values=(20, 50), n2_values=(4,), reps=1)
        run_sweep(train, test, spec, factory, quick_cfg(seed=2), pairing=disjoint)
        comparison_protocol(train, test, factory, quick_cfg(), replace(disjoint, n_pairs=30),
                            n_labels=2, trials=2, regimes=("sampled",))
        assert [len(pairs) for pairs, _ in seen] == [20, 50, 30, 30]
        for pairs, labeled in seen:
            paired = np.concatenate([pairs.a_ids, pairs.b_ids])
            assert len(np.unique(paired)) == 2 * len(pairs)
            assert not np.isin(labeled.ids, paired).any()
        with pytest.raises(ValueError, match="online pairing"):
            run_sweep(train, test, spec, factory, quick_cfg(), pairing=PairingConfig(mode="online"))
        with pytest.raises(ValueError, match="label budget 80 exceeds the 60 records left"):
            train_regimes(train, factory, quick_cfg(), replace(disjoint, n_pairs=30), 80,
                          ("sampled",))

    def test_cell_stats_and_csv(self, tmp_path):
        train, test = blob_pair()
        spec = SweepSpec(n1_values=(60,), n2_values=(2,), reps=3)
        result = run_sweep(train, test, spec, factory, quick_cfg(), PairingConfig())
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
        spec = SweepSpec(n1_values=(40,), n2_values=(2,), reps=1)
        result = run_sweep(train, test, spec, factory, quick_cfg(), PairingConfig())
        assert result.cell_stats(40, 2)[1] == 0.0


class TestComparisonProtocol:
    def test_regime_keys_and_trial_counts(self):
        train, test = blob_pair()
        result = comparison_protocol(
            train, test, factory, quick_cfg(), PairingConfig(n_pairs=100), n_labels=2, trials=2
        )
        assert set(result.regimes) == {"full", "sampled", "online"}
        assert all(len(v) == 2 for v in result.regimes.values())
        assert result.trials == 2

    def test_paired_design_is_deterministic(self):
        train, test = blob_pair()
        a = comparison_protocol(train, test, factory, quick_cfg(), PairingConfig(n_pairs=80),
                                n_labels=2, trials=2)
        b = comparison_protocol(train, test, factory, quick_cfg(), PairingConfig(n_pairs=80),
                                n_labels=2, trials=2)
        assert a.regimes == b.regimes

    def test_unknown_regime_rejected(self):
        train, test = blob_pair()
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            comparison_protocol(
                train, test, factory, quick_cfg(), PairingConfig(n_pairs=50), n_labels=2,
                trials=1, regimes=("bogus",),
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
            train, test, factory, TrainConfig(), PairingConfig(n_pairs=400), n_labels=2, trials=3
        )
        for name in ("full", "sampled", "online"):
            assert result.stats(name)[0] > 0.9


# -- the three regime recipes as they stood before ``train_regimes`` -------


def frozen_train_branch(regime, train_ds, model, cfg, pairing, per_class):
    """``cli._cmd_train``'s regime branch; returns the runs."""
    if regime == "baseline":
        return [train_baseline_full(model, train_ds, cfg)]
    if regime == "online":
        labeled = stratified_subset(train_ds, per_class * train_ds.class_count, cfg.seed)
        return list(train_online(model, train_ds, labeled, cfg))
    pairs, label_pool = build_pairs(train_ds, pairing)
    labeled = stratified_subset(label_pool, per_class * label_pool.class_count, cfg.seed)
    return list(train_two_stage(model, pairs, labeled, cfg))


def frozen_sweep_cell(train_ds, model_factory, train_cfg, pairing, n1, n2, cell_seed):
    """One ``run_sweep`` cell; returns the trained model."""
    pairs, label_pool = build_pairs(train_ds, replace(pairing, n_pairs=n1, seed=cell_seed))
    labeled = stratified_subset(label_pool, n2, cell_seed)
    model = model_factory(cell_seed)
    train_two_stage(model, pairs, labeled, replace(train_cfg, seed=cell_seed))
    return model


def frozen_comparison_trial(train_ds, model_factory, train_cfg, n_pairs, labels_per_class,
                            pairing, regimes, seed):
    """One ``comparison_protocol`` trial; returns the trained models by regime."""
    cfg = replace(train_cfg, seed=seed)
    pairs, label_pool = None, train_ds
    if "sampled" in regimes:
        pairs, label_pool = build_pairs(train_ds, replace(pairing, n_pairs=n_pairs, seed=seed))
    labeled = stratified_subset(label_pool, labels_per_class * train_ds.class_count, seed)
    models = {}
    for name in regimes:
        model = models[name] = model_factory(seed)
        if name == "full":
            train_baseline_full(model, train_ds, cfg)
        elif name == "sampled":
            train_two_stage(model, pairs, labeled, cfg)
        else:
            train_online(model, train_ds, labeled, cfg)
    return models


class TestRegimeRunnerMatchesFrozenRecipes:
    """``train``, the sweep and the comparison train through
    ``train_regimes`` to the same bits as their frozen recipes."""

    PAIRINGS = {"sampled": 60, "disjoint": 20, "exhaustive": 0}

    @staticmethod
    def setup_problem():
        train = generate_synthetic("blobs", n_per_class=20, noise=0.5, seed=4, class_count=3)
        test = generate_synthetic("blobs", n_per_class=20, noise=0.5, seed=5, class_count=3)
        cfg = quick_cfg(schedule=((0.1, 2),), head_epochs=5, head_loss="xent", seed=7)
        built = []

        def recording_factory(seed):
            built.append(factory(seed, hidden=(8,), class_count=3))
            return built[-1]

        return train, test, cfg, recording_factory, built

    @pytest.mark.parametrize("mode", list(PAIRINGS))
    def test_train_regimes(self, mode):
        train, test, cfg, make, _ = self.setup_problem()
        pairing = PairingConfig(mode=mode, n_pairs=self.PAIRINGS[mode], seed=cfg.seed)
        for regime, name in (("two-stage", "sampled"), ("baseline", "full"),
                             ("online", "online")):
            model, runs = train_regimes(train, make, cfg, pairing, 2 * 3, (name,))[name]
            ref = make(cfg.seed)
            ref_runs = frozen_train_branch(regime, train, ref, cfg, pairing, 2)
            assert params_equal(model, ref)
            assert accuracy(model, test) == accuracy(ref, test)
            assert [r.trace for r in runs] == [r.trace for r in ref_runs]

    @pytest.mark.parametrize("mode", list(PAIRINGS))
    def test_sweep_cells(self, mode):
        """Each cell matches its frozen recipe; exhaustive pairing, which
        takes every pair whatever n1 says, is refused before any cell."""
        train, test, cfg, make, built = self.setup_problem()
        pairing = PairingConfig(mode=mode)
        n1 = self.PAIRINGS[mode] or 1
        spec = SweepSpec(n1_values=(n1,), n2_values=(3, 6), reps=2)
        if mode == "exhaustive":
            with pytest.raises(ValueError,
                               match="^sweep.n1 1: pairing.mode exhaustive takes every pair"):
                run_sweep(train, test, spec, make, cfg, pairing=pairing)
            assert built == []
            return
        result = run_sweep(train, test, spec, make, cfg, pairing=pairing)
        trained = list(built)
        for row, model in zip(result.rows, trained, strict=True):
            ref = frozen_sweep_cell(train, make, cfg, pairing, row.n1, row.n2, row.seed)
            assert params_equal(model, ref)
            assert row.accuracy == accuracy(ref, test)

    @pytest.mark.parametrize("mode", list(PAIRINGS))
    def test_comparison_trials(self, mode):
        train, test, cfg, make, built = self.setup_problem()
        pairing = PairingConfig(mode=mode)
        regimes = ("full", "sampled", "online")
        result = comparison_protocol(train, test, make, cfg,
                                     replace(pairing, n_pairs=self.PAIRINGS[mode]),
                                     n_labels=2 * 3, trials=2)
        trained = list(built)
        for trial in range(2):
            seed = int(substream(cfg.seed, "compare", trial).integers(2**62))
            refs = frozen_comparison_trial(train, make, cfg, self.PAIRINGS[mode], 2,
                                           pairing, regimes, seed)
            for i, name in enumerate(regimes):
                assert params_equal(trained[3 * trial + i], refs[name])
                assert result.regimes[name][trial] == accuracy(refs[name], test)
