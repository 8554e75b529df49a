"""Frozen reference trainers and pair risk, and the shipped ones checked against them.

``reference_step1`` and ``reference_online`` keep the original loops: stage 1
gathers each batch by id and runs one forward and one backward pass per pair
side, summing the two gradient lists; the online step expands a batch with
``u[ii]``/``u[jj]`` and scatters the pair gradients with ``np.add.at``.  The
shipped stage 1 batches both sides into one pass, and the shipped online
step scores its pairs on one Gram matrix, which can change floating-point
summation order, so the two must agree to 1e-12: hidden parameters
relative in norm, and per-epoch ``train_loss`` and ``val_metric``.

``reference_baseline``, ``reference_step2`` and
``reference_empirical_risk_pairs`` are copies of the per-regime loops and
the two-branch pair risk that stood before every trainer shared one epoch
driver and every pair loss one reduction.  Their arithmetic is unchanged, so
the shipped code must match them bitwise: parameters, ``best_epoch`` and the
repr of every trace field; the pair risk exactly up to one 8,192-pair chunk
and to 1e-12 relative beyond, where it sums chunk totals.
"""

import numpy as np
import pytest

from samediff import (
    EpochRecord,
    PairingConfig,
    TrainConfig,
    TrainRun,
    TwoPartClassifier,
    empirical_risk_pairs,
    generate_synthetic,
    head_loss_batch,
    pair_exhaustive,
    pair_sampled,
    pair_risk_batch,
    stratified_subset,
    substream,
    train_baseline_full,
    train_online,
    train_step1,
    train_step2,
)
from samediff.data import FullyLabeledDataset
from samediff.model import NORM_EPSILON, project_head
from samediff.trainer import _epoch_plan, _split_examples, _split_pairs
from conftest import params_equal

TOL = 1e-12
LOSSES = ("sqdist", "ncs", "contrastive", "mse")
SCHEDULE = ((0.1, 3), (0.01, 2))
RISK_CHUNK = 8192


def _row_dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def reference_empirical_risk_pairs(model, pairs, loss="sqdist", beta=None):
    """The whole-set pair risk as it stood with one branch for sqdist and one
    for the kernel losses: sqdist sums signed distances chunk by chunk, the
    others collect kernel values and reduce them once."""
    n = len(pairs)
    r = model.radius
    if beta is None:
        beta = -r * r
    sq_total = 0.0
    kernel_parts = []
    for lo in range(0, n, RISK_CHUNK):
        part = pairs.take(np.arange(lo, min(lo + RISK_CHUNK, n)))
        xa, xb, t = part.gather()
        ua = model.features(xa)
        ub = model.features(xb)
        if loss == "sqdist":
            diff = ua - ub
            sign = np.where(t == 1, 1.0, -1.0)
            sq_total += float(np.sum(sign * _row_dots(diff, diff)))
        else:
            kernel_parts.append(_row_dots(ua, ub))
    if loss == "sqdist":
        return sq_total / n
    k = np.concatenate(kernel_parts)
    t_all = np.asarray(pairs.t, dtype=np.int64)
    target = np.where(t_all == 1, r * r, beta)
    if loss == "ncs":
        kn = float(np.linalg.norm(k))
        sn = float(np.linalg.norm(target))
        return float(-np.dot(k, target) / (kn * sn))
    if loss == "contrastive":
        m = float(k.max())
        log_all = m + np.log(np.sum(np.exp(k - m)))
        log_pos = m + np.log(np.sum(np.exp(k[t_all == 1] - m)))
        return float(log_all - log_pos)
    return float(np.mean((k - target) ** 2))


def reference_step1(model, pairs, cfg):
    """The stage-1 loop as first written; returns per-epoch (train_loss, val_metric)."""
    loss_name = cfg.resolved_pair_loss(model)
    train_pairs, val_pairs = _split_pairs(pairs, cfg)
    if val_pairs is not None and loss_name == "contrastive" and not np.any(val_pairs.t == 1):
        val_pairs = None
    n_train = len(train_pairs)
    trace = []
    best_risk, best_hidden = np.inf, None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "step1", epoch).permutation(n_train)
        total, seen = 0.0, 0
        for lo in range(0, n_train, cfg.batch_size):
            batch = train_pairs.take(perm[lo:lo + cfg.batch_size])
            xa, xb, t = batch.gather()
            if cfg.augment is not None:
                arng = substream(cfg.seed, "augment", epoch, lo)
                xa = cfg.augment(xa, arng)
                xb = cfg.augment(xb, arng)
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            ua, ca = model.features_cached(xa)
            ub, cb = model.features_cached(xb)
            risk, dua, dub = pair_risk_batch(
                loss_name, ua, ub, t, radius=model.radius, beta=cfg.beta
            )
            ga = model.backward_features(ca, dua)
            gb = model.backward_features(cb, dub)
            summed = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(ga, gb)]
            model.hidden.sgd_step(summed, lr)
            total += risk * len(batch)
            seen += len(batch)
        val_metric = None
        if val_pairs is not None:
            val_metric = reference_empirical_risk_pairs(model, val_pairs, loss_name, beta=cfg.beta)
            if val_metric < best_risk:
                best_risk, best_hidden = val_metric, model.hidden.clone()
        trace.append((total / max(seen, 1), val_metric))
    if best_hidden is not None:
        model.hidden = best_hidden
    return trace


def _reference_online_risk(model, ds, cfg, loss_name):
    total, seen = 0.0, 0
    for lo in range(0, len(ds), cfg.batch_size):
        sl = slice(lo, min(lo + cfg.batch_size, len(ds)))
        y = ds.y[sl]
        if len(y) < 2:
            continue
        ii, jj = np.triu_indices(len(y), k=1)
        t = (y[ii] == y[jj]).astype(np.int64)
        if loss_name == "contrastive" and not np.any(t == 1):
            continue
        u = model.features(ds.x[sl])
        risk, _, _ = pair_risk_batch(loss_name, u[ii], u[jj], t, radius=model.radius, beta=cfg.beta)
        total += risk * len(t)
        seen += len(t)
    return total / max(seen, 1)


def reference_online(model, ds, cfg):
    """The online pair stage as first written; returns per-epoch (train_loss, val_metric)."""
    loss_name = cfg.resolved_pair_loss(model)
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    n = len(train_ds)
    trace = []
    best_risk, best_hidden = np.inf, None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "online", epoch).permutation(n)
        total, seen = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            if len(idx) < 2:
                continue
            x = train_ds.x[idx]
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            y = train_ds.y[idx]
            ii, jj = np.triu_indices(len(idx), k=1)
            t = (y[ii] == y[jj]).astype(np.int64)
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            u, cache = model.features_cached(x)
            risk, dua, dub = pair_risk_batch(
                loss_name, u[ii], u[jj], t, radius=model.radius, beta=cfg.beta
            )
            du = np.zeros_like(u)
            np.add.at(du, ii, dua)
            np.add.at(du, jj, dub)
            model.hidden.sgd_step(model.backward_features(cache, du), lr)
            total += risk * len(t)
            seen += len(t)
        val_metric = None
        if val_ds is not None:
            val_metric = _reference_online_risk(model, val_ds, cfg, loss_name)
            if val_metric < best_risk:
                best_risk, best_hidden = val_metric, model.hidden.clone()
        trace.append((total / max(seen, 1), val_metric))
    if best_hidden is not None:
        model.hidden = best_hidden
    return trace


def _reference_projected_accuracy(model, u, y):
    head = project_head(model.head, model.radius)
    s = head.scores(u)
    if head.binary:
        pred = (s[:, 0] > 0.0).astype(np.int64)
    else:
        pred = np.argmax(s, axis=1)
    return float(np.mean(pred == y))


def reference_baseline(model, ds, cfg):
    """The joint fully-supervised loop as it stood on its own; returns a TrainRun."""
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    n = len(train_ds)
    run = TrainRun(stage="baseline", config=cfg.echo())
    best_acc, best = -np.inf, None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "baseline", epoch).permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            x = train_ds.x[idx]
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            u, cache = model.features_cached(x)
            loss, dscores = head_loss_batch(
                cfg.head_loss, model.head.scores(u), train_ds.y[idx], model.class_count)
            head_w = dscores.T @ u
            head_b = None if model.head.biases is None else dscores.sum(axis=0)
            model.hidden.sgd_step(model.backward_features(cache, dscores @ model.head.weights), lr)
            model.head.weights -= lr * head_w
            if head_b is not None:
                model.head.biases -= lr * head_b
            total += loss * len(idx)
        val_metric = None
        if val_ds is not None:
            val_metric = _reference_projected_accuracy(model, model.features(val_ds.x), val_ds.y)
            if val_metric > best_acc:
                best_acc, best = val_metric, (model.hidden.clone(), model.head.clone())
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, total / n, val_metric))
    if best is not None:
        model.hidden, model.head = best
    model.project_head()
    return run


def reference_step2(model, ds, cfg):
    """The head-stage loop as it stood on its own; returns a TrainRun."""
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    u_train = model.features(train_ds.x)
    u_val = model.features(val_ds.x) if val_ds is not None else None
    n = len(train_ds)
    run = TrainRun(stage="step2", config=cfg.echo())
    best_acc, best_head = -np.inf, None
    for epoch in range(cfg.head_epochs):
        perm = substream(cfg.seed, "shuffle", "step2", epoch).permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            u = u_train[idx]
            loss, dscores = head_loss_batch(
                cfg.head_loss, model.head.scores(u), train_ds.y[idx], model.class_count
            )
            model.head.weights -= cfg.head_rate * (dscores.T @ u)
            if model.head.biases is not None:
                model.head.biases -= cfg.head_rate * dscores.sum(axis=0)
            total += loss * len(idx)
        val_metric = None
        if val_ds is not None:
            val_metric = _reference_projected_accuracy(model, u_val, val_ds.y)
            if val_metric > best_acc:
                best_acc, best_head = val_metric, model.head.clone()
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, cfg.head_rate, total / n, val_metric))
    if best_head is not None:
        model.head = best_head
    model.project_head()
    return run


def _jitter(x, rng):
    return x + 0.05 * rng.normal(size=x.shape)


def _model(seed=3):
    return TwoPartClassifier.build(2, [16], 2, 2, rng=substream(seed, "init"))


def _blobs(n_per_class=60, seed=5):
    return generate_synthetic("blobs", n_per_class=n_per_class, noise=0.8, seed=seed)


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def assert_matches(model, ref_model, run, ref_trace):
    for got, want in zip(model.hidden.param_arrays(), ref_model.hidden.param_arrays()):
        assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)
    assert len(run.trace) == len(ref_trace)
    for rec, (train_loss, val_metric) in zip(run.trace, ref_trace):
        assert _close(rec.train_loss, train_loss)
        assert (rec.val_metric is None) == (val_metric is None)
        if val_metric is not None:
            assert _close(rec.val_metric, val_metric)


@pytest.mark.parametrize("augment", [None, _jitter], ids=["plain", "augment"])
@pytest.mark.parametrize("loss", LOSSES)
def test_step1_matches_reference(loss, augment):
    ds = _blobs()
    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=600, seed=5))
    cfg = TrainConfig(batch_size=32, schedule=SCHEDULE, seed=7, pair_loss=loss, augment=augment)
    model, ref = _model(), _model()
    run = train_step1(model, pairs, cfg)
    assert_matches(model, ref, run, reference_step1(ref, pairs, cfg))


@pytest.mark.parametrize("augment", [None, _jitter], ids=["plain", "augment"])
@pytest.mark.parametrize("loss", LOSSES)
def test_online_matches_reference(loss, augment):
    ds = _blobs()
    labeled = stratified_subset(ds, 2, seed=7)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, pair_loss=loss, augment=augment,
                      head_epochs=1)
    model, ref = _model(), _model()
    run, _ = train_online(model, ds, labeled, cfg)
    assert_matches(model, ref, run, reference_online(ref, ds, cfg))


def _with_zero_rows(ds, k=4):
    """The dataset plus k all-zero rows, which a fresh model maps to a
    zero-norm representation (every bias starts at zero)."""
    x = np.vstack([ds.x, np.zeros((k, ds.dim))])
    y = np.concatenate([ds.y, np.arange(k) % ds.class_count])
    return FullyLabeledDataset.from_arrays(x, y, ds.class_count)


@pytest.mark.parametrize("loss", LOSSES)
def test_norm_floor_batch_matches_reference(loss):
    """One whole-set batch holding rows that take the NORM_FLOOR branch."""
    ds = _with_zero_rows(_blobs(n_per_class=20))
    assert np.linalg.norm(_model().hidden.forward(np.zeros((1, 2)))) < NORM_EPSILON
    cfg = TrainConfig(batch_size=len(ds), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0, head_epochs=1)
    model, ref = _model(), _model()
    run, _ = train_online(model, ds, stratified_subset(ds, 2, seed=7), cfg)
    assert_matches(model, ref, run, reference_online(ref, ds, cfg))

    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=200, seed=5))
    zero_ids = ds.ids[-4:]
    assert np.isin(pairs.a_ids, zero_ids).any() or np.isin(pairs.b_ids, zero_ids).any()
    cfg = TrainConfig(batch_size=len(pairs), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0)
    model, ref = _model(), _model()
    run = train_step1(model, pairs, cfg)
    assert_matches(model, ref, run, reference_step1(ref, pairs, cfg))


@pytest.mark.parametrize("floor", [False, True], ids=["plain", "norm_floor"])
@pytest.mark.parametrize("loss", LOSSES)
def test_online_rep_dim_8_matches_reference(loss, floor):
    """The online step at representation width 8, on shuffled batches and on
    one whole-set batch holding NORM_FLOOR rows."""
    ds = _blobs(n_per_class=20) if floor else _blobs()
    if floor:
        ds = _with_zero_rows(ds)
        cfg = TrainConfig(batch_size=len(ds), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                          val_fraction=0.0, head_epochs=1)
    else:
        cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, pair_loss=loss,
                          head_epochs=1)
    model, ref = (TwoPartClassifier.build(2, [16], 8, 2, rng=substream(3, "init"))
                  for _ in range(2))
    run, _ = train_online(model, ds, stratified_subset(ds, 2, seed=7), cfg)
    assert_matches(model, ref, run, reference_online(ref, ds, cfg))


def _class_model(classes, head_loss, seed=3):
    binary = classes == 2 and head_loss == "hinge"
    return TwoPartClassifier.build(2, [16], 2, classes, binary_head=binary,
                                   rng=substream(seed, "init"))


def assert_bitwise(model, ref_model, run, ref_run):
    assert params_equal(model, ref_model)
    assert run.best_epoch == ref_run.best_epoch
    assert [repr(r.to_dict()) for r in run.trace] == [repr(r.to_dict()) for r in ref_run.trace]


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("head_loss", ["hinge", "xent"])
@pytest.mark.parametrize("augment", [None, _jitter], ids=["plain", "augment"])
def test_baseline_matches_reference_bitwise(augment, head_loss, classes):
    ds = generate_synthetic("blobs", n_per_class=40, noise=1.5, seed=5, class_count=classes)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, head_loss=head_loss,
                      augment=augment)
    model, ref = _class_model(classes, head_loss), _class_model(classes, head_loss)
    run = train_baseline_full(model, ds, cfg)
    ref_run = reference_baseline(ref, ds, cfg)
    assert ref_run.best_epoch is not None
    assert_bitwise(model, ref, run, ref_run)


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("head_loss", ["hinge", "xent"])
@pytest.mark.parametrize("loss", LOSSES)
def test_step2_matches_reference_bitwise(loss, head_loss, classes):
    ds = generate_synthetic("blobs", n_per_class=40, noise=1.5, seed=5, class_count=classes)
    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=300, seed=5))
    labeled = stratified_subset(ds, 24, seed=7)
    cfg = TrainConfig(batch_size=8, schedule=SCHEDULE, seed=7, pair_loss=loss,
                      head_loss=head_loss, head_epochs=6)
    model = _class_model(classes, head_loss)
    train_step1(model, pairs, cfg)
    ref = model.clone()
    run = train_step2(model, labeled, cfg)
    ref_run = reference_step2(ref, labeled, cfg)
    assert ref_run.best_epoch is not None
    assert_bitwise(model, ref, run, ref_run)


@pytest.mark.parametrize("beta", [None, -0.3])
@pytest.mark.parametrize("loss", LOSSES)
def test_empirical_risk_pairs_matches_reference(loss, beta):
    """Exact within one chunk; chunk totals may round apart beyond it."""
    ds = generate_synthetic("blobs", n_per_class=70, noise=1.5, seed=5)
    pairs = pair_exhaustive(ds)
    assert len(pairs) > RISK_CHUNK
    model = _model()
    for n in (37, RISK_CHUNK):
        part = pairs.take(np.arange(n))
        got = empirical_risk_pairs(model, part, loss, beta=beta)
        assert got == reference_empirical_risk_pairs(model, part, loss, beta=beta)
    got = empirical_risk_pairs(model, pairs, loss, beta=beta)
    want = reference_empirical_risk_pairs(model, pairs, loss, beta=beta)
    assert abs(got - want) <= TOL * abs(want)
