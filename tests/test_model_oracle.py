"""The shipped model arithmetic checked against a frozen copy of the old one.

The trainer oracles in ``test_trainer_oracle.py`` drive the shipped model
surface, so they cannot see a change in the model's own arithmetic.  Here
``FrozenHidden`` and ``FrozenClassifier`` keep the forward pass, backward
pass, sphere normalisation and SGD update as they stood while each layer
held its weights and bias apart: ``a @ w + b`` forward, ``g.sum(axis=0)``
for the bias gradient and ``np.linalg.norm`` row norms.

The shipped trainers run once on a shipped model and once on a frozen copy
of it.  Folding the bias into each layer's matmul changes floating-point
summation order, so every parameter array must agree to 1e-12 relative in
norm and every trace field to 1e-12 relative; ``best_epoch`` must be equal.

``frozen_whole_forward`` keeps inference as it stood before it ran in
blocks of ``_EVAL_ROWS`` rows: the whole batch in one pass.  A batch of at
most one block must match it bit for bit.  A larger one must match it bit
for bit on each block; against the whole batch at once it may round apart,
because the BLAS picks its kernel by matrix size (a one-row block takes
gemv, and OpenBLAS leaves its small-matrix kernel above m*k*n = 10^6), so
there it must agree to 1e-12 and predict the same classes.
"""

import numpy as np
import pytest

from samediff import (
    HiddenNetwork,
    Layer,
    PairingConfig,
    TrainConfig,
    TwoPartClassifier,
    generate_synthetic,
    pair_sampled,
    stratified_subset,
    substream,
    train_baseline_full,
    train_online,
    train_step1,
)
from samediff.data import FullyLabeledDataset
from samediff.model import _EVAL_ROWS, NORM_EPSILON, NORM_FLOOR, phi_normalize
from conftest import augmented, param_arrays

TOL = 1e-12
LOSSES = ("sqdist", "ncs", "contrastive", "mse")
SCHEDULE = ((0.1, 3), (0.01, 2))


def frozen_phi_denominators(v):
    norms = np.linalg.norm(v, axis=1)
    degenerate = norms < NORM_EPSILON
    if np.any(degenerate):
        norms = np.where(degenerate, norms + NORM_FLOOR, norms)
    return norms


def frozen_phi_normalize(v, radius, denom):
    return v * (radius / denom)[:, None]


def frozen_phi_backward(v, g, radius, denom):
    vg = np.sum(v * g, axis=1) / (denom * denom)
    return (radius / denom)[:, None] * (g - v * vg[:, None])


class FrozenHidden(HiddenNetwork):
    """F1 with the forward, backward and update of separate weights and bias."""

    def forward_cached(self, x, ws=None):
        a = np.asarray(x, dtype=np.float64)
        cache = []
        for layer in self.layers:
            z = a @ layer.wb[:-1] + layer.wb[-1]
            cache.append((a, z))
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        return a, cache

    def backward(self, cache, grad_out):
        g = np.asarray(grad_out, dtype=np.float64)
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            a_in, z = cache[i]
            if layer.activation == "relu":
                g = g * (z > 0.0)
            grads[i] = (a_in.T @ g, g.sum(axis=0))
            g = g @ layer.wb[:-1].T
        return grads, g

    def sgd_step(self, grads, lr):
        for layer, (dw, db) in zip(self.layers, grads):
            layer.wb[:-1] -= lr * dw
            layer.wb[-1] -= lr * db

    def clone(self):
        return FrozenHidden(HiddenNetwork.clone(self).layers)


class FrozenClassifier(TwoPartClassifier):
    """The classifier surface the trainers call, on the frozen arithmetic."""

    def features(self, x):
        v = self.hidden.forward(x)
        return frozen_phi_normalize(v, self.radius, frozen_phi_denominators(v))

    def features_cached(self, x):
        v, hidden_cache = self.hidden.forward_cached(x)
        denom = frozen_phi_denominators(v)
        return frozen_phi_normalize(v, self.radius, denom), (hidden_cache, v, denom)

    def backward_features(self, cache, grad_u):
        hidden_cache, v, denom = cache
        grads, _ = self.hidden.backward(
            hidden_cache, frozen_phi_backward(v, grad_u, self.radius, denom))
        return grads

    def clone(self):
        return FrozenClassifier(self.hidden.clone(), self.radius, self.head.clone(),
                                self.class_count)


def frozen(model):
    hidden = FrozenHidden([Layer(l.wb, l.activation) for l in model.hidden.layers])
    return FrozenClassifier(hidden, model.radius, model.head.clone(), model.class_count)


def _close(a, b):
    return abs(a - b) <= TOL * abs(b)


def assert_runs_match(model, ref, runs, ref_runs):
    for got, want in zip(param_arrays(model), param_arrays(ref), strict=True):
        assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)
    for run, ref_run in zip(runs, ref_runs, strict=True):
        assert run.best_epoch == ref_run.best_epoch
        assert len(run.trace) == len(ref_run.trace)
        for rec, want in zip(run.trace, ref_run.trace):
            assert (rec.epoch, rec.lr) == (want.epoch, want.lr)
            assert _close(rec.train_loss, want.train_loss)
            assert (rec.val_metric is None) == (want.val_metric is None)
            if want.val_metric is not None:
                assert _close(rec.val_metric, want.val_metric)


def _model(rep_dim=2, classes=2, binary_head=None):
    return TwoPartClassifier.build(2, [16], rep_dim, classes, binary_head=binary_head,
                                   rng=substream(3, "init"))


def _blobs(n_per_class=60):
    return generate_synthetic("blobs", n_per_class=n_per_class, noise=0.8, seed=5)


def _with_zero_rows(ds, k=4):
    """The dataset plus k all-zero rows, which a fresh model maps to a
    zero-norm representation, so phi floors them."""
    x = np.vstack([ds.x, np.zeros((k, ds.dim))])
    y = np.concatenate([ds.y, np.arange(k) % ds.class_count])
    return FullyLabeledDataset.from_arrays(x, y, ds.class_count)


def test_frozen_copy_is_not_the_shipped_arithmetic():
    """Guards the test itself: the two forward passes round apart somewhere."""
    model = _model()
    rng = np.random.default_rng(0)
    for layer in model.hidden.layers:
        layer.wb[-1] = rng.normal(size=layer.wb[-1].shape)
    x = rng.normal(size=(256, 2))
    got, want = model.hidden.forward(x), frozen(model).hidden.forward(x)
    assert not np.array_equal(got, want)
    assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)


@pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment"])
@pytest.mark.parametrize("loss", LOSSES)
def test_step1_matches_frozen_model(loss, augment):
    ds = augmented(_blobs(), 7) if augment else _blobs()
    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=600, seed=5))
    cfg = TrainConfig(batch_size=32, schedule=SCHEDULE, seed=7, pair_loss=loss)
    model = _model()
    ref = frozen(model)
    run, ref_run = train_step1(model, pairs, cfg), train_step1(ref, pairs, cfg)
    assert run.best_epoch is not None
    assert_runs_match(model, ref, [run], [ref_run])


@pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment"])
@pytest.mark.parametrize("loss", LOSSES)
def test_online_matches_frozen_model(loss, augment):
    ds = augmented(_blobs(), 7) if augment else _blobs()
    labeled = stratified_subset(ds, 24, seed=7)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, pair_loss=loss, head_epochs=3)
    model = _model()
    ref = frozen(model)
    runs, ref_runs = train_online(model, ds, labeled, cfg), train_online(ref, ds, labeled, cfg)
    assert_runs_match(model, ref, runs, ref_runs)


@pytest.mark.parametrize("rep_dim", [2, 8])
@pytest.mark.parametrize("loss", LOSSES)
def test_norm_floor_batches_match_frozen_model(loss, rep_dim):
    """Whole-set batches holding rows that take the NORM_FLOOR branch, in the
    online step and in stage 1."""
    ds = _with_zero_rows(_blobs(n_per_class=20))
    assert np.linalg.norm(_model(rep_dim).hidden.forward(np.zeros((1, 2)))) < NORM_EPSILON
    cfg = TrainConfig(batch_size=len(ds), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0, head_epochs=1)
    labeled = stratified_subset(ds, 2, seed=7)
    model = _model(rep_dim)
    ref = frozen(model)
    runs, ref_runs = train_online(model, ds, labeled, cfg), train_online(ref, ds, labeled, cfg)
    assert_runs_match(model, ref, runs, ref_runs)

    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=200, seed=5))
    assert np.isin(pairs.a_ids, ds.ids[-4:]).any() or np.isin(pairs.b_ids, ds.ids[-4:]).any()
    cfg = TrainConfig(batch_size=len(pairs), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0)
    model = _model(rep_dim)
    ref = frozen(model)
    run, ref_run = train_step1(model, pairs, cfg), train_step1(ref, pairs, cfg)
    assert_runs_match(model, ref, [run], [ref_run])


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("head_loss", ["hinge", "xent"])
@pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment"])
def test_baseline_matches_frozen_model(augment, head_loss, classes):
    ds = generate_synthetic("blobs", n_per_class=40, noise=1.5, seed=5, class_count=classes)
    if augment:
        ds = augmented(ds, 7)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, head_loss=head_loss)
    model = _model(classes=classes, binary_head=classes == 2 and head_loss == "hinge")
    ref = frozen(model)
    run, ref_run = train_baseline_full(model, ds, cfg), train_baseline_full(ref, ds, cfg)
    assert run.best_epoch is not None
    assert_runs_match(model, ref, [run], [ref_run])


def frozen_whole_forward(net, x):
    """The network output in one pass over the whole batch, each layer input
    carrying a trailing ones column."""
    a = np.empty((len(x), net.in_dim + 1))
    a[:, :-1], a[:, -1] = x, 1.0
    for i, layer in enumerate(net.layers):
        z = a @ layer.wb
        v = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if i + 1 == len(net.layers):
            return v
        a = np.empty((len(x), z.shape[1] + 1))
        a[:, :-1], a[:, -1] = v, 1.0


def frozen_inference(model, v):
    """(features, predictions) from network outputs v, by the shipped phi
    and head, which blocking leaves as they were."""
    u = phi_normalize(v, model.radius)
    s = model.head.scores(u)
    pred = (s[:, 0] > 0.0) if model.head.binary else np.argmax(s, axis=1)
    return u, pred.astype(np.int64)


B = _EVAL_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3, 20_000])
@pytest.mark.parametrize("hidden, rep_dim", [([32], 2), ([16, 16], 2), ([32], 8)])
def test_blocked_inference_matches_whole_batch_forward(hidden, rep_dim, n):
    model = TwoPartClassifier.build(2, hidden, rep_dim, 4, rng=substream(3, "init"))
    rng = np.random.default_rng(n)
    x = 2.0 * rng.normal(size=(n, 2))
    x[rng.permutation(n)[:n // 50 + 1]] = 0.0   # zero rows at zero biases: phi floors them
    v = model.hidden.forward(x)
    assert v.shape == (n, rep_dim)
    assert n == 0 or np.linalg.norm(v[~x.any(axis=1)], axis=1).max() < NORM_EPSILON
    whole = frozen_whole_forward(model.hidden, x)
    # up to n = B the one block is the whole batch
    blocks = np.concatenate([whole[:0]] + [frozen_whole_forward(model.hidden, x[lo:lo + B])
                                           for lo in range(0, n, B)])
    u, pred = frozen_inference(model, blocks)
    assert v.tobytes() == blocks.tobytes()
    assert model.features(x).tobytes() == u.tobytes()
    assert model.predict(x).tobytes() == pred.tobytes()
    np.testing.assert_allclose(v, whole, rtol=TOL, atol=TOL)
    np.testing.assert_array_equal(model.predict(x), frozen_inference(model, whole)[1])


@pytest.mark.parametrize("n", [0, 3, B + 1])
def test_blocked_inference_keeps_its_input_errors(n):
    model = TwoPartClassifier.build(2, [32], 2, 4, rng=substream(3, "init"))
    for call in (model.hidden.forward, model.features, model.predict):
        with pytest.raises(ValueError, match=r"^forward expects a \(n, d\) batch$"):
            call(np.zeros(n))
        with pytest.raises(ValueError, match="^feature dimension mismatch: model expects 2, "
                                             "got 3$"):
            call(np.zeros((n, 3)))
