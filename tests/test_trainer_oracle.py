"""Frozen reference pair-stage trainers, and the shipped ones checked against them.

``reference_step1`` and ``reference_online`` keep the original loops: stage 1
gathers each batch by id and runs one forward and one backward pass per pair
side, summing the two gradient lists; the online step expands a batch with
``u[ii]``/``u[jj]`` and scatters the pair gradients with ``np.add.at``.  The
shipped trainers batch both sides into one pass and scatter with
``np.bincount``, which can change floating-point summation order, so the two
must agree to 1e-12: hidden parameters relative in norm, and per-epoch
``train_loss`` and ``val_metric``.
"""

import numpy as np
import pytest

from samediff import (
    PairingConfig,
    TrainConfig,
    TwoPartClassifier,
    empirical_risk_pairs,
    generate_synthetic,
    pair_sampled,
    pair_risk_batch,
    stratified_subset,
    substream,
    train_online,
    train_step1,
)
from samediff.data import FullyLabeledDataset
from samediff.model import NORM_EPSILON
from samediff.trainer import _epoch_plan, _split_examples, _split_pairs

TOL = 1e-12
LOSSES = ("sqdist", "ncs", "contrastive", "mse")
SCHEDULE = ((0.1, 3), (0.01, 2))


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
            val_metric = empirical_risk_pairs(model, val_pairs, loss_name, beta=cfg.beta)
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
    assert np.linalg.norm(_model().forward_hidden(np.zeros(2))) < NORM_EPSILON
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
