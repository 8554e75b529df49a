"""Training stages: freeze contract, determinism, regime behavior."""

import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import samediff.config as config
from samediff import (
    SHORT_SCHEDULE,
    EpochRecord,
    HiddenNetwork,
    PairingConfig,
    TrainConfig,
    TrainRun,
    TwoPartClassifier,
    accuracy,
    build_train_config,
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
from conftest import hidden_param_arrays, params_equal


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
        """A run records ``asdict`` of its config; JSON writes the schedule
        tuples as arrays."""
        echo = json.loads(json.dumps(asdict(TrainConfig(seed=7))))
        assert echo["seed"] == 7
        assert echo["schedule"] == [[0.1, 20], [0.01, 10], [0.001, 5]]

    def test_echo_is_every_knob(self):
        assert json.loads(json.dumps(asdict(TrainConfig(seed=7)))) == {
            "batch_size": 128,
            "schedule": [[0.1, 20], [0.01, 10], [0.001, 5]],
            "head_rate": 0.1,
            "head_epochs": 50,
            "seed": 7,
            "pair_loss": None,
            "head_loss": "hinge",
            "beta": None,
            "val_fraction": 1.0 / 12.0,
        }

    def test_every_knob_is_a_config_key(self):
        """TrainConfig's fields, the typed reader's kinds and the allowed
        ``train`` keys are one set, and a recorded config builds the same
        TrainConfig again, so a knob that JSON cannot hold fails here."""
        names = {f.name for f in fields(TrainConfig)}
        assert names == set(config._TRAIN_KINDS) == config._ALLOWED["train"]
        cfg = TrainConfig(batch_size=7, schedule=((0.5, 2), (0.25, 1)), head_rate=0.2,
                          head_epochs=3, seed=11, pair_loss="mse", head_loss="xent",
                          beta=-0.5, val_fraction=0.25)
        assert all(getattr(cfg, f.name) != f.default for f in fields(TrainConfig))
        assert build_train_config({"train": json.loads(json.dumps(asdict(cfg)))}) == cfg


class TestFreezeContract:
    def test_step2_never_touches_hidden(self):
        """The head stage must leave every hidden parameter bit-identical."""
        ds, _, pairs = blob_setup(seed=1)
        model = fresh_model(1)
        cfg = TrainConfig(seed=1)
        train_step1(model, pairs, cfg)
        before = [a.copy() for a in hidden_param_arrays(model.hidden)]
        labeled = stratified_subset(ds, 24, seed=1)
        train_step2(model, labeled, cfg)
        after = hidden_param_arrays(model.hidden)
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
        before = [a.copy() for a in hidden_param_arrays(model.hidden)]
        train_step1(model, neg, TrainConfig(seed=7, pair_loss="contrastive"))
        after = hidden_param_arrays(model.hidden)
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
    def test_empty_set_refused(self):
        empty = generate_synthetic("blobs", n_per_class=2, seed=0).subset(np.arange(0))
        with pytest.raises(ValueError, match=r"^empty dataset$"):
            train_baseline_full(fresh_model(0), empty, TrainConfig())

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

    def test_validation_clones_no_hidden_layers(self, monkeypatch):
        """Scoring a validation epoch shares the hidden network; only the
        best-epoch snapshots clone it."""
        clones = []
        clone = HiddenNetwork.clone
        monkeypatch.setattr(HiddenNetwork, "clone", lambda net: clones.append(1) or clone(net))
        ds, _, _ = blob_setup(seed=12, n_per_class=40)
        run = train_baseline_full(fresh_model(12), ds, TrainConfig(seed=12))
        best, snapshots = -np.inf, 0
        for rec in run.trace:
            if rec.val_metric > best:
                best, snapshots = rec.val_metric, snapshots + 1
        assert 0 < len(clones) == snapshots < len(run.trace)


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
        for a, b in zip(hidden_param_arrays(m_online.hidden), hidden_param_arrays(m_pairs.hidden)):
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

    def test_reshuffling_grows_pair_coverage_across_epochs(self, monkeypatch):
        """Batches re-form every epoch, so several epochs touch strictly more
        distinct pairs than any single epoch can."""
        ds = generate_synthetic("blobs", n_per_class=10, noise=0.4, seed=14)
        batches = []
        features_cached = TwoPartClassifier.features_cached

        def spy(model, x):
            batches.append(x.copy())
            return features_cached(model, x)

        cfg = TrainConfig(seed=14, schedule=((0.1, 3),), batch_size=10,
                          val_fraction=0.0, head_epochs=1)
        model = fresh_model(14)
        monkeypatch.setattr(TwoPartClassifier, "features_cached", spy)
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

    @pytest.mark.parametrize("case", ["one-row", "contrastive", "step1-contrastive"])
    def test_unscorable_validation_split_is_no_split(self, case):
        """A held-out split with no batch to score (one row, or no same-class
        pair under contrastive, online or in stage 1) goes back to training:
        every val_metric is None, the last epoch's parameters stand, and they
        equal those of a run that holds nothing out."""
        if case == "one-row":   # 16 rows hold out int(16 / 12) = 1
            ds = generate_synthetic("blobs", n_per_class=8, noise=0.5, seed=3)
            loss, classes = None, 2
        elif case == "contrastive":   # 24 rows in 12 classes hold out 2 of different classes
            ds = generate_synthetic("blobs", n_per_class=2, noise=0.5, seed=3, class_count=12)
            loss, classes = "contrastive", 12
        else:   # 400 different-class pairs and 6 same-class ones; the 33 held out hold none
            ds = generate_synthetic("blobs", n_per_class=20, noise=0.5, seed=3)
            every = pair_exhaustive(ds)
            pairs = every.take(np.concatenate(
                [np.flatnonzero(every.t == 0), np.flatnonzero(every.t)[:6]]))
            loss, classes = "contrastive", 2

        def train(epochs, val_fraction=TrainConfig.val_fraction):
            cfg = TrainConfig(seed=3, schedule=((0.1, epochs),), head_epochs=1, pair_loss=loss,
                              val_fraction=val_fraction)
            model = fresh_model(3, class_count=classes)
            if case == "step1-contrastive":
                run = train_step1(model, pairs, cfg)
            else:
                run, _ = train_online(model, ds, stratified_subset(ds, 2, seed=3), cfg)
            return run, model

        (run, after_five), (_, after_one), (_, unsplit) = train(5), train(1), train(5, 0.0)
        assert [rec.val_metric for rec in run.trace] == [None] * 5
        assert run.best_epoch is None
        assert not params_equal(after_five, after_one)
        assert params_equal(after_five, unsplit)

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

    @pytest.mark.parametrize("stage", ["step1", "step1-online", "baseline", "step2"])
    def test_non_finite_final_parameters_fail_the_stage(self, stage):
        """A stage that ends on an inf or nan parameter raises naming it.
        One NaN hidden weight poisons every step, and with no finite
        validation score no snapshot can replace the final parameters."""
        ds, _, pairs = blob_setup(seed=17, n_per_class=30, n_pairs=200)
        labeled = stratified_subset(ds, 2, seed=17)
        model = fresh_model(17)
        model.hidden.layers[0].wb[0, 0] = np.nan
        cfg = TrainConfig(seed=17, schedule=((0.1, 2),), head_epochs=2)
        train = {"step1": lambda: train_step1(model, pairs, cfg),
                 "step1-online": lambda: train_online(model, ds, labeled, cfg),
                 "baseline": lambda: train_baseline_full(model, ds, cfg),
                 "step2": lambda: train_step2(model, labeled, cfg)}[stage]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=f"^stage {stage} diverged: its final "
                                                 "parameters hold a non-finite value$"):
                train()

    def test_to_dict_shape(self):
        ds, _, pairs = blob_setup(seed=16, n_per_class=30, n_pairs=200)
        model = fresh_model(16)
        run = train_step1(model, pairs, TrainConfig(seed=16, schedule=((0.1, 2),)))
        d = run.to_dict()
        assert d["stage"] == "step1"
        assert len(d["trace"]) == 2
        assert set(d["trace"][0]) == {"epoch", "lr", "train_loss", "val_metric"}
        assert d["config"]["seed"] == 16

    def test_to_dict_literal(self):
        run = TrainRun(stage="step2", config={"seed": 3},
                       trace=[EpochRecord(0, 0.1, 0.5, None), EpochRecord(1, 0.1, 0.25, 0.75)],
                       best_epoch=1, wall_seconds=1.5, max_pair_buffer=4, skipped_batches=2)
        assert run.to_dict() == {
            "stage": "step2",
            "config": {"seed": 3},
            "trace": [
                {"epoch": 0, "lr": 0.1, "train_loss": 0.5, "val_metric": None},
                {"epoch": 1, "lr": 0.1, "train_loss": 0.25, "val_metric": 0.75},
            ],
            "best_epoch": 1,
            "wall_seconds": 1.5,
            "max_pair_buffer": 4,
            "skipped_batches": 2,
        }


class TestHoldout:
    def test_one_row_per_class_holds_one_out(self, monkeypatch):
        """Twelve classes of one row each: the baseline holds out int(12 / 12)
        = 1 row and trains on 11, as it does on 13 rows.  Online training
        cannot score one held-out row, so that row goes back to training.
        ``val_fraction=0`` holds nothing out."""
        import samediff.trainer as trainer

        seen = []
        run_epochs = trainer._run_epochs

        def recorded(stage, model, cfg, schedule, tag, n, *args, **kwargs):
            seen.append((stage, n))
            return run_epochs(stage, model, cfg, schedule, tag, n, *args, **kwargs)

        monkeypatch.setattr(trainer, "_run_epochs", recorded)
        ds = generate_synthetic("blobs", n_per_class=1, noise=0.5, seed=3, class_count=12)
        cfg = TrainConfig(seed=3, schedule=((0.1, 2),), head_epochs=1)
        online, _ = train_online(fresh_model(3, class_count=12), ds, ds, cfg)
        baseline = train_baseline_full(fresh_model(3, class_count=12), ds, cfg)
        assert seen == [("step1-online", 12), ("step2", 12), ("baseline", 11)]
        assert online.max_pair_buffer == 12 * 11 // 2
        assert [rec.val_metric for rec in online.trace] == [None, None]   # one row, no pair
        assert all(rec.val_metric in (0.0, 1.0) for rec in baseline.trace)
        seen.clear()
        cfg = replace(cfg, val_fraction=0.0)
        train_online(fresh_model(3, class_count=12), ds, ds, cfg)
        baseline = train_baseline_full(fresh_model(3, class_count=12), ds, cfg)
        assert seen == [("step1-online", 12), ("step2", 12), ("baseline", 12)]
        assert [rec.val_metric for rec in baseline.trace] == [None, None]


class TestSkippedBatches:
    """``TrainRun.skipped_batches`` counts the training batches that took no
    step; validation batches and the head stage count none."""

    def test_online_one_row_last_batch_is_one_skip_per_epoch(self):
        ds = generate_synthetic("blobs", n_per_class=5, noise=0.5, seed=3)
        cfg = TrainConfig(seed=3, schedule=((0.1, 2), (0.01, 1)), batch_size=3,
                          val_fraction=0.0, head_epochs=1)
        run, run2 = train_online(fresh_model(3), ds, stratified_subset(ds, 2, seed=3), cfg)
        assert [run.skipped_batches, run2.skipped_batches] == [3, 0]  # 10 rows: 3+3+3+1
        assert run.max_pair_buffer == 3

    def test_online_contrastive_skips_batches_with_no_repeated_class(self):
        """Two rows of twelve classes in batches of 2: a batch is skipped
        exactly when its two rows differ in class."""
        ds = generate_synthetic("blobs", n_per_class=2, noise=0.5, seed=3, class_count=12)
        cfg = TrainConfig(seed=3, schedule=((0.1, 3),), batch_size=2, val_fraction=0.0,
                          head_epochs=1, pair_loss="contrastive")
        run, _ = train_online(fresh_model(3, class_count=12), ds,
                              stratified_subset(ds, 1, seed=3), cfg)
        want = 0
        for epoch in range(3):
            y = ds.y[substream(3, "shuffle", "online", epoch).permutation(len(ds))]
            want += int(np.sum(y[0::2] != y[1::2]))
        assert 0 < want < 36
        assert run.skipped_batches == want

    def test_step1_contrastive_counts_positive_free_batches(self):
        ds = generate_synthetic("blobs", n_per_class=20, noise=0.3, seed=7)
        pairs = pair_exhaustive(ds)
        neg = pairs.take(np.flatnonzero(pairs.t == 0))
        cfg = TrainConfig(seed=7, schedule=((0.1, 2),), pair_loss="contrastive")
        run = train_step1(fresh_model(7), neg, cfg)
        # A positive-free held-out split scores nothing, so every pair trains.
        assert run.skipped_batches == 2 * -(-len(neg) // cfg.batch_size)
        pos_run = train_step1(fresh_model(7), pairs, TrainConfig(seed=7, schedule=((0.1, 2),)))
        assert pos_run.skipped_batches == 0

    @pytest.mark.parametrize("stage", ["step1", "online", "step2", "baseline"])
    def test_driver_counts_planned_minus_stepped(self, monkeypatch, stage):
        """The epoch driver books every stage: epochs x ceil(n_train /
        batch_size) planned batches minus the steps that reached
        ``apply_grads``.  Contrastive pair stages skip; head stages do not."""
        steps = []
        apply_grads = TwoPartClassifier.apply_grads

        def counted(self, *args, **kwargs):
            steps.append(stage)
            return apply_grads(self, *args, **kwargs)

        monkeypatch.setattr(TwoPartClassifier, "apply_grads", counted)
        ds = generate_synthetic("blobs", n_per_class=4, noise=0.5, seed=5, class_count=6)
        cfg = TrainConfig(seed=5, schedule=((0.1, 2), (0.01, 1)), batch_size=3, head_epochs=4,
                          pair_loss="contrastive", val_fraction=0.25)
        model = fresh_model(5, class_count=6)
        n_train, epochs = len(ds) - len(ds) // 4, 3
        if stage == "step1":
            pairs = pair_exhaustive(ds)
            run = train_step1(model, pairs, cfg)
            n_train = len(pairs) - int(len(pairs) * cfg.val_fraction)
        elif stage == "online":
            run, head = train_online(model, ds, stratified_subset(ds, 1, seed=5),
                                     replace(cfg, head_epochs=0))
            assert head.trace == [] and head.skipped_batches == 0
        elif stage == "step2":
            run, epochs, n_train = train_step2(model, ds, cfg), cfg.head_epochs, len(ds)
        else:
            run = train_baseline_full(model, ds, cfg)
        planned = epochs * -(-n_train // cfg.batch_size)
        assert run.skipped_batches == planned - len(steps)
        if stage in ("step1", "online"):
            assert 0 < run.skipped_batches < planned
        else:
            assert run.skipped_batches == 0
        assert run.wall_seconds > 0
