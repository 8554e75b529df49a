"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single [criterion NN] PASS/FAIL line (visible with -s;
the per-test PASSED/FAILED verdict in pytest -v mirrors it).
"""

import json
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from samediff import (
    PairingConfig,
    SweepSpec,
    TrainConfig,
    TwoPartClassifier,
    cli_main,
    comparison_protocol,
    encrypt_disjoint,
    generalization_bound,
    generate_problem,
    generate_synthetic,
    head_loss_batch,
    load_idx,
    max_disjoint_pairs,
    pair_disjoint,
    pair_exhaustive,
    pair_risk_batch,
    pairwise_agreement,
    recover_clusters,
    required_head_norm,
    run_sweep,
    run_verification_suite,
    save_pairs,
    stratified_subset,
    substream,
    train_baseline_full,
    verify_head_norm_argmin,
)
from samediff.data import FullyLabeledDataset
from conftest import (far_from_kinks, half_best_gamma, numeric_grad,
                      required_head_norm_bisect, tiny_model)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def blob_factory(seed, hidden=(32,), rep_dim=2, class_count=2):
    return TwoPartClassifier.build(
        2, list(hidden), rep_dim, class_count, rng=substream(seed, "init")
    )


class TestAcceptance:
    def test_criterion_01_collapse_optimality_equality(self):
        """Exact min-risk = separation-and-collapse set equality on 100
        generated problems, under 60 seconds."""
        t0 = time.perf_counter()
        result = run_verification_suite(n_seeds=100)
        dt = time.perf_counter() - t0
        report(
            1,
            result.n_passed == 100 and result.all_passed and dt < 60.0,
            f"{result.n_passed}/100 problems, {dt:.2f}s",
        )

    def test_criterion_02_head_norm_argmin_equality(self):
        """Head-norm argmin equals the same optimal set at gamma = half the
        best risk; closed form vs bisection-plus-grid within 1e-3."""
        equal = 0
        max_gap = 0.0
        for seed in range(100):
            prob = generate_problem(seed)
            gamma = half_best_gamma(prob)
            rep = verify_head_norm_argmin(prob, gamma)
            equal += rep.equality is True
            for k in rep.norms:
                closed = required_head_norm(prob.hypotheses[k], prob, gamma)
                bis = required_head_norm_bisect(prob.hypotheses[k], prob, gamma)
                max_gap = max(max_gap, abs(closed - bis))
        report(
            2,
            equal == 100 and max_gap < 1e-3,
            f"argmin equality {equal}/100, closed-vs-bisect gap {max_gap:.2e}",
        )

    def test_criterion_03_gradients_match_finite_differences(self):
        """All six losses, end to end through the normalized model, 20
        instances each, max relative error below 1e-4."""
        rng = np.random.default_rng(42)
        worst = 0.0

        def fd_err(analytic, numeric):
            # floored relative error: gradients at finite-difference noise
            # scale (~1e-11 for h=1e-5) are zero, not a mismatch
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-6)
            return float(np.max(np.abs(analytic - numeric)) / scale)

        def pair_loss_instances(name):
            nonlocal worst
            checked = 0
            while checked < 20:
                model = tiny_model(rng, in_dim=3, hidden=(4,), rep_dim=3)
                n = int(rng.integers(3, 8))
                xa = rng.normal(size=(n, 3))
                xb = rng.normal(size=(n, 3))
                if not (far_from_kinks(model, xa) and far_from_kinks(model, xb)):
                    continue
                t = rng.integers(0, 2, size=n)
                t[int(rng.integers(n))] = 1  # contrastive needs a positive
                ua, ca = model.features_cached(xa)
                ub, cb = model.features_cached(xb)
                _, dua, dub = pair_risk_batch(name, ua, ub, t, radius=model.radius)
                ga = model.backward_features(ca, dua)
                gb = model.backward_features(cb, dub)

                def objective():
                    return pair_risk_batch(
                        name, model.features(xa), model.features(xb), t,
                        radius=model.radius,
                    )[0]

                for layer_idx in range(len(model.hidden.layers)):
                    for arr, aw, bw in [
                        (model.hidden.layers[layer_idx].w,
                         ga[layer_idx][0], gb[layer_idx][0]),
                        (model.hidden.layers[layer_idx].b,
                         ga[layer_idx][1], gb[layer_idx][1]),
                    ]:
                        worst = max(worst, fd_err(aw + bw, numeric_grad(objective, arr)))
                checked += 1

        def hinge_margins(scores, y):
            if scores.shape[1] == 1:
                return 1.0 - (2.0 * y - 1.0) * scores[:, 0]
            sign = -np.ones_like(scores)
            sign[np.arange(len(y)), y] = 1.0
            return 1.0 - sign * scores

        def head_loss_instances(name, class_count):
            nonlocal worst
            checked = 0
            while checked < 20:
                model = tiny_model(
                    rng, in_dim=3, hidden=(4,), rep_dim=3,
                    class_count=class_count, binary_head=class_count == 2,
                )
                n = int(rng.integers(3, 8))
                x = rng.normal(size=(n, 3))
                if not far_from_kinks(model, x):
                    continue
                y = rng.integers(0, class_count, size=n)
                u, cache = model.features_cached(x)
                scores = model.head.scores(u)
                if name == "hinge" and np.min(np.abs(hinge_margins(scores, y))) < 1e-3:
                    continue  # a finite-difference step must not cross the hinge
                _, dscores = head_loss_batch(name, scores, y, class_count)
                head_w, head_b, du = model.head.backward(u, dscores)
                layer_grads = model.backward_features(cache, du)

                def objective():
                    return head_loss_batch(
                        name, model.head.scores(model.features(x)), y, class_count
                    )[0]

                arrays = [
                    (model.hidden.layers[0].w, layer_grads[0][0]),
                    (model.hidden.layers[0].b, layer_grads[0][1]),
                    (model.hidden.layers[1].w, layer_grads[1][0]),
                    (model.hidden.layers[1].b, layer_grads[1][1]),
                    (model.head.weights, head_w),
                ]
                if model.head.biases is not None:
                    arrays.append((model.head.biases, head_b))
                for arr, analytic in arrays:
                    worst = max(worst, fd_err(analytic, numeric_grad(objective, arr)))
                checked += 1

        for name in ("sqdist", "ncs", "contrastive", "mse"):
            pair_loss_instances(name)
        head_loss_instances("hinge", class_count=2)
        head_loss_instances("xent", class_count=3)
        report(3, worst < 1e-4, f"max relative error {worst:.2e} over 6 losses x 20 instances")

    def test_criterion_04_one_label_per_class_matches_baseline(self):
        """Two-stage with 5000 pairs plus one label per class lands within
        0.01 of the full-label baseline in at least 4 of 5 trials."""
        train = generate_synthetic("blobs", n_per_class=500, noise=0.5, seed=0)
        test = generate_synthetic("blobs", n_per_class=500, noise=0.5, seed=1)
        t0 = time.perf_counter()
        res = comparison_protocol(
            train, test, blob_factory, TrainConfig(), n_pairs=5000,
            labels_per_class=1, trials=5, regimes=("full", "sampled"),
        )
        dt = time.perf_counter() - t0
        wins = sum(
            s >= f - 0.01
            for f, s in zip(res.regimes["full"], res.regimes["sampled"])
        )
        report(4, wins >= 4 and dt < 120.0, f"{wins}/5 trials within 0.01, {dt:.1f}s")

    def test_criterion_05_image_subset_trend(self):
        """Two-hidden-layer net on a 10k image subset: supervised baseline
        at 0.95+, online two-stage on 10 labels within 3 points of it."""
        base = os.environ.get("MNIST_DIR") or os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data", "mnist"
        )
        names = [
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
        ]
        paths = [os.path.join(base, n) for n in names]
        if not all(os.path.exists(p) for p in paths):
            pytest.skip(
                "image corpus not present in this sandbox (no network access to "
                "fetch it); point MNIST_DIR at the four IDX files to run this"
            )
        train_full = load_idx(paths[0], paths[1], class_count=10)
        test = load_idx(paths[2], paths[3], class_count=10)
        train = stratified_subset(train_full, 10_000, seed=0)

        def factory(seed):
            return TwoPartClassifier.build(
                train.dim, [128, 64], 32, 10, rng=substream(seed, "init")
            )

        cfg = TrainConfig(head_loss="xent")
        t0 = time.perf_counter()
        res = comparison_protocol(
            train, test, factory, cfg, n_pairs=0,
            labels_per_class=1, trials=3, regimes=("full", "online"),
        )
        dt = time.perf_counter() - t0
        full_mean = res.stats("full")[0]
        online_mean = res.stats("online")[0]
        report(
            5,
            full_mean >= 0.95 and full_mean - online_mean <= 0.03 and dt < 1800.0,
            f"baseline {full_mean:.4f}, online {online_mean:.4f}, {dt:.0f}s",
        )

    def test_criterion_05_synthetic_smoke_of_same_protocol(self):
        """The criterion-5 protocol shape on a three-class synthetic stand-in
        so the pipeline is exercised even without the image corpus."""
        train = generate_synthetic("blobs", n_per_class=200, noise=0.5, seed=0, class_count=3)
        test = generate_synthetic("blobs", n_per_class=200, noise=0.5, seed=1, class_count=3)

        def factory(seed):
            return TwoPartClassifier.build(2, [32, 16], 4, 3, rng=substream(seed, "init"))

        res = comparison_protocol(
            train, test, factory, TrainConfig(head_loss="xent"), n_pairs=4000,
            labels_per_class=1, trials=3, regimes=("full", "online"),
        )
        full_mean = res.stats("full")[0]
        online_mean = res.stats("online")[0]
        report(
            5,
            full_mean >= 0.95 and full_mean - online_mean <= 0.03,
            f"(smoke) baseline {full_mean:.4f}, online {online_mean:.4f}",
        )

    def test_criterion_06_accuracy_monotone_in_pair_budget(self):
        """With two labels fixed, mean accuracy is non-decreasing in the
        pair budget up to one inversion within one standard deviation."""
        train = generate_synthetic("blobs", n_per_class=500, noise=1.0, seed=0)
        test = generate_synthetic("blobs", n_per_class=500, noise=1.0, seed=1)
        spec = SweepSpec(n1_values=(100, 1000, 5000), n2_values=(2,), reps=5, seed=0)
        result = run_sweep(train, test, spec, blob_factory, TrainConfig())
        stats = [result.cell_stats(n1, 2) for n1 in spec.n1_values]
        means = [m for m, _ in stats]
        inversions = [
            i for i in range(len(means) - 1) if means[i + 1] < means[i]
        ]
        within = all(
            means[i] - means[i + 1] <= max(stats[i][1], stats[i + 1][1])
            for i in inversions
        )
        report(
            6,
            len(inversions) <= 1 and within,
            f"means {[round(m, 4) for m in means]}, {len(inversions)} inversion(s)",
        )

    def test_criterion_07_pairing_combinatorics(self):
        """Exhaustive counts are exact for N = 2..200; 1000 random disjoint
        draws give n disjoint pairs with a nonempty remainder."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(200, 2))
        y = rng.integers(0, 3, size=200)
        y[:3] = [0, 1, 2]
        full = FullyLabeledDataset.from_arrays(x, y, 3)
        counts_ok = all(
            len(pair_exhaustive(full.subset(np.arange(n)))) == n * (n - 1) // 2
            for n in range(2, 201)
        )

        disjoint_ok = True
        for _ in range(1000):
            n_ex = int(rng.integers(3, 61))
            n_pairs = int(rng.integers(1, max_disjoint_pairs(n_ex) + 1))
            ds = full.subset(rng.choice(200, size=n_ex, replace=False))
            pairs, rest = pair_disjoint(ds, n_pairs, seed=int(rng.integers(2**31)))
            participants = np.concatenate([pairs.a_ids, pairs.b_ids])
            disjoint_ok &= len(pairs) == n_pairs
            disjoint_ok &= len(np.unique(participants)) == 2 * n_pairs
            disjoint_ok &= len(rest) == n_ex - 2 * n_pairs and len(rest) > 0
            disjoint_ok &= not set(participants.tolist()) & set(rest.ids.tolist())
        report(7, counts_ok and disjoint_ok, "counts exact, 1000 disjoint draws clean")

    def test_criterion_08_privacy_extremes(self, tmp_path):
        """Exhaustive release fully leaks the classes; disjoint release
        caps components at two; the released file has no label field."""
        ds = generate_synthetic("blobs", n_per_class=30, noise=0.5, seed=0)
        truth = {int(i): int(ds.y[ds.index_of(i)]) for i in ds.ids}
        agreement = pairwise_agreement(recover_clusters(pair_exhaustive(ds)), truth)

        released, _, rep = encrypt_disjoint(ds, 20, seed=1)
        max_comp = rep.strength.max_component_size

        path = str(tmp_path / "release.sdpf")
        save_pairs(released, path, inline=True)
        blob = Path(path).read_bytes()
        version, flags, dim, n = struct.unpack("<HHIQ", blob[4:20])
        stride = 16 * dim + 1
        size_exact = len(blob) == 20 + n * stride + 4
        # the only non-feature byte per record is the agreement bit
        bits_ok = all(blob[20 + k * stride + 16 * dim] in (0, 1) for k in range(n))
        report(
            8,
            agreement == 1.0 and max_comp <= 2 and flags & 1 and size_exact and bits_ok,
            f"exhaustive agreement {agreement}, max component {max_comp}, "
            f"file is {n} x (2 x {dim} floats + 1 bit byte)",
        )

    def test_criterion_09_bound_value_and_monotonicity(self):
        value = generalization_bound(1, 1, 100, 0.1)
        grid = [10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120]
        vals = [generalization_bound(1, 1, n, 0.1) for n in grid]
        decreasing = all(a > b for a, b in zip(vals, vals[1:]))
        report(
            9,
            abs(value - 1.6803) <= 1e-4 and decreasing,
            f"bound(1,1,100,0.1) = {value!r}, strictly decreasing on 10-point grid",
        )

    def test_criterion_10_bitwise_reproducible_runs(self, tmp_path, capsys):
        """Repeated train and sweep invocations with one config and seed
        give byte-identical checkpoints and result CSVs."""
        cfg_doc = {
            "version": 1,
            "dataset": {"kind": "blobs", "n_per_class": 40, "noise": 0.5, "seed": 0},
            "model": {"hidden": [8], "rep_dim": 2},
            "train": {"schedule": [[0.1, 2]], "head_epochs": 5, "seed": 3},
            "pairing": {"mode": "sampled", "n_pairs": 100},
            "sweep": {"n1": [40, 80], "n2": [2], "reps": 2},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_doc))

        identical = True
        for regime in ("two-stage", "online"):
            d1, d2 = tmp_path / f"{regime}-1", tmp_path / f"{regime}-2"
            for d in (d1, d2):
                assert cli_main([
                    "train", "--config", str(cfg), "--regime", regime,
                    "--out-dir", str(d),
                ]) == 0
            identical &= (d1 / "model.ckpt").read_bytes() == (d2 / "model.ckpt").read_bytes()
            identical &= (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()

        s1, s2 = tmp_path / "sweep-1", tmp_path / "sweep-2"
        for d in (s1, s2):
            assert cli_main(["sweep", "--config", str(cfg), "--out-dir", str(d)]) == 0
        identical &= (s1 / "results.csv").read_bytes() == (s2 / "results.csv").read_bytes()
        capsys.readouterr()
        report(10, identical, "train (two regimes) and sweep artifacts byte-identical")
