"""Training stages: freeze contract, determinism, regime behavior."""

import numpy as np
import pytest

from samediff import (
    SHORT_SCHEDULE,
    PairingConfig,
    TrainConfig,
    TwoPartClassifier,
    accuracy,
    generate_synthetic,
    pair_exhaustive,
    pair_sampled,
    stratified_subset,
    substream,
    train_baseline_full,
    train_online,
    train_step1,
    train_step2,
    train_two_stage,
)
from conftest import params_equal


def fresh_model(seed, hidden=(32,), in_dim=2, class_count=2):
    return TwoPartClassifier.build(
        in_dim, list(hidden), 2, class_count, rng=substream(seed, "init")
    )


def blob_setup(seed=0, n_per_class=150, noise=0.5, n_pairs=3000):
    ds = generate_synthetic("blobs", n_per_class=n_per_class, noise=noise, seed=seed)
    test = generate_synthetic("blobs", n_per_class=n_per_class, noise=noise, seed=seed + 1)
    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=n_pairs, seed=seed))
    return ds, test, pairs


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.schedule == SHORT_SCHEDULE
        assert cfg.batch_size == 128
        assert cfg.head_epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="unknown pair loss"):
            TrainConfig(pair_loss="huber")
        with pytest.raises(ValueError, match="unknown head loss"):
            TrainConfig(head_loss="mse")
        with pytest.raises(ValueError, match="val_fraction"):
            TrainConfig(val_fraction=1.0)

    def test_pair_loss_resolution(self):
        cfg = TrainConfig()
        binary = fresh_model(0)
        multi = fresh_model(0, class_count=3)
        assert cfg.resolved_pair_loss(binary) == "sqdist"
        assert cfg.resolved_pair_loss(multi) == "ncs"
        assert TrainConfig(pair_loss="mse").resolved_pair_loss(binary) == "mse"

    def test_echo_round_trip_keys(self):
        echo = TrainConfig(seed=7).echo()
        assert echo["seed"] == 7
        assert echo["schedule"] == [[0.1, 20], [0.01, 10], [0.001, 5]]


class TestFreezeContract:
    def test_step2_never_touches_hidden(self):
        """The head stage must leave every hidden parameter bit-identical."""
        ds, _, pairs = blob_setup(seed=1)
        model = fresh_model(1)
        cfg = TrainConfig(seed=1)
        train_step1(model, pairs, cfg)
        before = [a.copy() for a in model.hidden.param_arrays()]
        labeled = stratified_subset(ds, 24, seed=1)
        train_step2(model, labeled, cfg)
        after = model.hidden.param_arrays()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_step1_never_touches_head(self):
        _, _, pairs = blob_setup(seed=2)
        model = fresh_model(2)
        before = model.head.weights.copy()
        train_step1(model, pairs, TrainConfig(seed=2))
        np.testing.assert_array_equal(before, model.head.weights)


class TestDeterminism:
    def test_two_stage_bitwise_repeatable(self):
        ds, _, pairs = blob_setup(seed=3, n_per_class=60, n_pairs=800)
        labeled = stratified_subset(ds, 2, seed=3)
        cfg = TrainConfig(seed=3)
        models = []
        traces = []
        for _ in range(2):
            m = fresh_model(3)
            r1, r2 = train_two_stage(m, pairs, labeled, cfg)
            models.append(m)
            traces.append((r1.to_dict()["trace"], r2.to_dict()["trace"]))
        assert params_equal(models[0], models[1])
        assert traces[0] == traces[1]

    def test_different_seeds_differ(self):
        ds, _, pairs = blob_setup(seed=4, n_per_class=60, n_pairs=800)
        m1, m2 = fresh_model(4), fresh_model(4)
        labeled = stratified_subset(ds, 2, seed=4)
        train_two_stage(m1, pairs, labeled, TrainConfig(seed=4))
        train_two_stage(m2, pairs, labeled, TrainConfig(seed=5))
        assert not params_equal(m1, m2)


class TestStep1Geometry:
    def test_representation_collapses_classes(self):
        """After pair training on blobs the mean within-class distance is
        under a tenth of the mean cross-class distance."""
        ds, _, pairs = blob_setup(seed=0)
        model = fresh_model(0)
        train_step1(model, pairs, TrainConfig(seed=0))
        u = model.features(ds.x)
        same = ds.y[:, None] == ds.y[None, :]
        d = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
        iu = np.triu_indices(len(ds), k=1)
        ratio = np.mean(d[iu][same[iu]]) / np.mean(d[iu][~same[iu]])
        assert ratio < 0.1

    def test_validation_tracking_restores_best(self):
        ds, _, pairs = blob_setup(seed=6, n_per_class=60, n_pairs=600)
        model = fresh_model(6)
        run = train_step1(model, pairs, TrainConfig(seed=6))
        assert run.stage == "step1"
        assert run.best_epoch is not None
        assert all(rec.val_metric is not None for rec in run.trace)

    def test_contrastive_skips_batches_without_positives(self):
        """All-negative pair sets give the contrastive loss nothing to do."""
        ds = generate_synthetic("blobs", n_per_class=20, noise=0.3, seed=7)
        pairs = pair_exhaustive(ds)
        neg = pairs.take(np.flatnonzero(pairs.t == 0))
        model = fresh_model(7)
        before = [a.copy() for a in model.hidden.param_arrays()]
        train_step1(model, neg, TrainConfig(seed=7, pair_loss="contrastive"))
        after = model.hidden.param_arrays()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_ncs_with_zero_beta_rejects_all_negative_batch(self):
        """beta = 0 makes the target vector of a different-class-only batch
        zero, so its cosine is undefined and training stops with an error."""
        ds = generate_synthetic("blobs", n_per_class=20, noise=0.3, seed=7)
        pairs = pair_exhaustive(ds)
        neg = pairs.take(np.flatnonzero(pairs.t == 0))
        with pytest.raises(ValueError, match="degenerate kernel batch"):
            train_step1(fresh_model(7), neg, TrainConfig(seed=7, pair_loss="ncs", beta=0.0))


class TestStep2:
    def test_one_label_per_class_reaches_99_percent(self):
        """A single labeled example per class suffices once the
        representation has collapsed the classes."""
        ds, test, pairs = blob_setup(seed=8)
        model = fresh_model(8)
        cfg = TrainConfig(seed=8)
        train_step1(model, pairs, cfg)
        labeled = stratified_subset(ds, 2, seed=8)
        run = train_step2(model, labeled, cfg)
        assert run.stage == "step2"
        assert accuracy(model, test) >= 0.99

    def test_tiny_labeled_set_skips_validation(self):
        """With n <= class_count there is nothing to hold out."""
        ds, _, pairs = blob_setup(seed=9, n_per_class=40, n_pairs=400)
        model = fresh_model(9)
        cfg = TrainConfig(seed=9)
        train_step1(model, pairs, cfg)
        run = train_step2(model, stratified_subset(ds, 2, seed=9), cfg)
        assert run.best_epoch is None
        assert all(rec.val_metric is None for rec in run.trace)

    def test_head_ends_inside_norm_ball(self):
        ds, _, pairs = blob_setup(seed=10, n_per_class=40, n_pairs=400)
        model = fresh_model(10)
        cfg = TrainConfig(seed=10)
        train_two_stage(model, pairs, stratified_subset(ds, 2, seed=10), cfg)
        norms = np.linalg.norm(model.head.weights, axis=1)
        assert np.all(norms <= 1.0 / model.radius + 1e-12)

    def test_empty_labeled_set_rejected(self):
        from samediff import FullyLabeledDataset
        empty = FullyLabeledDataset.from_arrays(np.zeros((0, 2)), [], 2)
        with pytest.raises(ValueError, match="empty labeled set"):
            train_step2(fresh_model(0), empty, TrainConfig())


class TestAblation:
    def test_pair_pretraining_carries_the_accuracy(self):
        """Skipping stage 1 (empty schedule) must strictly hurt on a problem
        the raw input geometry cannot solve linearly."""
        for seed in (0, 1, 2):
            ds = generate_synthetic("xor", n_per_class=150, noise=0.3, seed=seed)
            test = generate_synthetic("xor", n_per_class=150, noise=0.3, seed=seed + 1)
            pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=3000, seed=seed))
            labeled = stratified_subset(ds, 2, seed=seed)
            accs = {}
            for label, schedule in (("trained", SHORT_SCHEDULE), ("untrained", ())):
                model = fresh_model(seed)
                train_two_stage(model, pairs, labeled, TrainConfig(seed=seed, schedule=schedule))
                accs[label] = accuracy(model, test)
            assert accs["trained"] >= 0.95
            assert accs["trained"] > accs["untrained"]


class TestBaseline:
    def test_full_supervision_solves_blobs(self):
        ds, test, _ = blob_setup(seed=11, n_per_class=80)
        model = fresh_model(11)
        run = train_baseline_full(model, ds, TrainConfig(seed=11))
        assert run.stage == "baseline"
        assert accuracy(model, test) >= 0.99

    def test_projection_applied_at_end(self):
        ds, _, _ = blob_setup(seed=12, n_per_class=40)
        model = fresh_model(12)
        train_baseline_full(model, ds, TrainConfig(seed=12))
        norms = np.linalg.norm(model.head.weights, axis=1)
        assert np.all(norms <= 1.0 / model.radius + 1e-12)


class TestOnline:
    def test_single_batch_matches_materialized_pairs(self):
        """With everything in one batch, one online epoch must produce the
        same hidden update as stage 1 on the exhaustive pair set (the sums
        differ only in accumulation order)."""
        ds = generate_synthetic("blobs", n_per_class=5, noise=0.5, seed=3)
        cfg = TrainConfig(seed=4, schedule=((0.1, 1),), val_fraction=0.0, head_epochs=1)
        m_online = fresh_model(5, hidden=(8,))
        m_pairs = m_online.clone()
        labeled = stratified_subset(ds, 2, seed=4)
        run, _ = train_online(m_online, ds, labeled, cfg)
        assert run.max_pair_buffer == 45  # 10 choose 2
        train_step1(m_pairs, pair_exhaustive(ds), cfg)
        for a, b in zip(m_online.hidden.param_arrays(), m_pairs.hidden.param_arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_pair_buffer_bounded_by_batch_not_dataset(self):
        """Peak pair-buffer size is B(B-1)/2 whatever the dataset size."""
        cfg = TrainConfig(seed=13, schedule=((0.1, 1),), batch_size=16,
                          val_fraction=0.0, head_epochs=1)
        buffers = []
        for n_per_class in (25, 100):
            ds = generate_synthetic("blobs", n_per_class=n_per_class, noise=0.4, seed=13)
            model = fresh_model(13)
            labeled = stratified_subset(ds, 2, seed=13)
            run, _ = train_online(model, ds, labeled, cfg)
            buffers.append(run.max_pair_buffer)
        assert buffers == [120, 120]  # 16 choose 2, independent of N

    def test_reshuffling_grows_pair_coverage_across_epochs(self):
        """Batches re-form every epoch, so several epochs touch strictly more
        distinct pairs than any single epoch can."""
        ds = generate_synthetic("blobs", n_per_class=10, noise=0.4, seed=14)
        batches = []

        def spy(x, rng):
            batches.append(x.copy())
            return x

        cfg = TrainConfig(seed=14, schedule=((0.1, 3),), batch_size=10,
                          val_fraction=0.0, head_epochs=1, augment=spy)
        model = fresh_model(14)
        train_online(model, ds, stratified_subset(ds, 2, seed=14), cfg)
        batches_per_epoch = 2  # 20 examples / batch 10
        assert len(batches) == 3 * batches_per_epoch

        def row_index(row):
            return int(np.flatnonzero(np.all(ds.x == row, axis=1))[0])

        def epoch_pairs(epoch):
            seen = set()
            for b in batches[epoch * batches_per_epoch:(epoch + 1) * batches_per_epoch]:
                idx = [row_index(r) for r in b]
                seen |= {(min(i, j), max(i, j)) for k, i in enumerate(idx) for j in idx[k + 1:]}
            return seen

        first = epoch_pairs(0)
        all_epochs = epoch_pairs(0) | epoch_pairs(1) | epoch_pairs(2)
        assert len(first) == 90  # two batches of 10 choose 2
        assert len(all_epochs) > len(first)

    def test_too_small_dataset_rejected(self):
        from samediff import FullyLabeledDataset
        one = FullyLabeledDataset.from_arrays(np.zeros((1, 2)), [0], 2)
        with pytest.raises(ValueError, match="at least 2 examples"):
            train_online(fresh_model(0), one, one, TrainConfig())


class TestTrainRunBookkeeping:
    def test_two_stage_returns_both_runs(self):
        ds, _, pairs = blob_setup(seed=15, n_per_class=40, n_pairs=400)
        model = fresh_model(15)
        r1, r2 = train_two_stage(model, pairs, stratified_subset(ds, 2, seed=15),
                                 TrainConfig(seed=15))
        assert (r1.stage, r2.stage) == ("step1", "step2")
        assert len(r1.trace) == 35  # 20 + 10 + 5 epochs
        assert len(r2.trace) == 50
        assert np.isfinite(r1.trace[-1].train_loss)

    def test_to_dict_shape(self):
        ds, _, pairs = blob_setup(seed=16, n_per_class=30, n_pairs=200)
        model = fresh_model(16)
        run = train_step1(model, pairs, TrainConfig(seed=16, schedule=((0.1, 2),)))
        d = run.to_dict()
        assert d["stage"] == "step1"
        assert len(d["trace"]) == 2
        assert set(d["trace"][0]) == {"epoch", "lr", "train_loss", "val_metric"}
        assert d["config"]["seed"] == 16
