"""The shipped training step checked bit for bit against a frozen copy of it.

The frozen copy keeps the step surface as it stood before the step was cut
to fewer numpy calls: ``features_cached`` and ``backward_features`` divide
radius by the row norms in phi's forward and again in its backward,
``HiddenNetwork.backward`` converts its adjoint and fills a list of
placeholders, the aligned pair risk returns two fresh side gradients that
stage 1 concatenates (and the floored online route too), each target
comes from ``np.where`` and the phi floor test from ``ndarray.min``.  The
shipped step computes the same numbers with fewer calls, so it must match
the frozen one bitwise: every parameter array, ``best_epoch`` and the repr
of every trace record.

Helpers this change left alone (the forward pass, the class-sum and Gram
routes' own arithmetic, the epoch driver and the held-out split) are
shared by both sides.  Stage 1 runs the frozen epoch body; online training
and the baseline run the shipped trainers with the frozen pair risk and
the frozen classifier swapped in.
"""

import math

import numpy as np
import pytest

import samediff.trainer as trainer
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
from samediff.data import FullyLabeledDataset, sufficient_label
from samediff.losses import _gram_buffers, _off_sphere, _sqdist_class_sums, _triu_pairs
from samediff.model import NORM_EPSILON, NORM_FLOOR
from conftest import param_arrays

LOSSES = ("sqdist", "ncs", "contrastive", "mse")
SCHEDULE = ((0.1, 2), (0.01, 1))


# -- the frozen step surface ---------------------------------------------


def frozen_row_sums(a, out=None):
    if not 0 < a.shape[1] < 8:
        return np.add.reduce(a, axis=1, out=out)
    out = np.add(a[:, 0], 0.0, out=out)
    for j in range(1, a.shape[1]):
        np.add(out, a[:, j], out=out)
    return out


def frozen_phi_denominators(v, sq=None, out=None):
    norms = frozen_row_sums(np.multiply(v, v, out=sq), out=out)
    np.sqrt(norms, out=norms)
    if norms.min(initial=NORM_EPSILON) < NORM_EPSILON:
        np.add(norms, NORM_FLOOR, out=norms, where=norms < NORM_EPSILON)
    return norms


def frozen_phi_normalize(v, radius, denom, out=None):
    return np.multiply(v, (radius / denom)[:, None], out=out)


def frozen_phi_backward(v, grad_u, radius, denom, out=None):
    res = np.multiply(v, grad_u, out=out)
    vg = frozen_row_sums(res)
    vg /= denom * denom
    np.multiply(v, vg[:, None], out=res)
    np.subtract(grad_u, res, out=res)
    np.multiply((radius / denom)[:, None], res, out=res)
    return res


class FrozenStepHidden(HiddenNetwork):
    """F1 with the reverse pass as it stood."""

    def backward(self, cache, grad_out):
        if cache.adjoints is None:
            cache.masks = [np.empty_like(z) for z in cache.z[:-1]]
            cache.adjoints = [np.empty_like(z) for z in cache.z]
        g = np.asarray(grad_out, dtype=np.float64)
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if i < len(self.layers) - 1:   # ReLU after every layer but the last
                mask = np.greater(cache.z[i], 0.0, out=cache.masks[i])
                g = np.multiply(g, mask, out=cache.adjoints[i])
            grads[i] = cache.inputs[i].T @ g
            if i:
                g = np.matmul(g, layer.wb[:-1].T, out=cache.adjoints[i - 1])
        return grads

    def clone(self):
        return FrozenStepHidden(HiddenNetwork.clone(self).layers)


class FrozenStepClassifier(TwoPartClassifier):
    """The classifier's phi forward and backward, each computing its scale."""

    def features(self, x):
        v = self.hidden.forward(x)
        return frozen_phi_normalize(v, self.radius, frozen_phi_denominators(v))

    def features_cached(self, x):
        hidden = self.hidden
        ws, hidden._spare = hidden._spare, None
        v, ws = hidden.forward_cached(x, ws)
        if ws.u is None:
            ws.sq, ws.u, ws.grad_v = np.empty_like(v), np.empty_like(v), np.empty_like(v)
            ws.denom = np.empty(len(v))
        denom = frozen_phi_denominators(v, ws.sq, ws.denom)
        return frozen_phi_normalize(v, self.radius, denom, out=ws.u), ws

    def backward_features(self, cache, grad_u):
        grad_v = frozen_phi_backward(cache.v, grad_u, self.radius, cache.denom, out=cache.grad_v)
        grads = self.hidden.backward(cache, grad_v)
        self.hidden._spare = cache
        return grads

    def clone(self):
        return FrozenStepClassifier(self.hidden.clone(), self.radius, self.head.clone(),
                                    self.class_count)


def frozen(model):
    hidden = FrozenStepHidden([Layer(l.wb) for l in model.hidden.layers])
    return FrozenStepClassifier(hidden, model.radius, model.head.clone(), model.class_count)


def frozen_row_dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def frozen_pair_values(name, ua, ub):
    if name == "sqdist":
        diff = ua - ub
        return frozen_row_dots(diff, diff)
    return frozen_row_dots(ua, ub)


def frozen_reduce(name, values, t, radius, beta):
    n = len(values)
    if name == "sqdist":
        sign = np.where(t == 1, 1.0, -1.0)
        return float(np.mean(sign * values)), sign * (1.0 / n)
    if beta is None:
        beta = -radius * radius
    target = np.where(t == 1, radius * radius, beta)
    if name == "ncs":
        kn = math.sqrt(values @ values)
        sn = math.sqrt(target @ target)
        dot = float(np.dot(values, target))
        return -dot / (kn * sn), -target / (kn * sn) + dot * values / (kn ** 3 * sn)
    if name == "contrastive":
        pos = t == 1
        m = float(values.max())
        e = np.exp(values - m)
        log_all = m + np.log(np.sum(e))
        log_pos = m + np.log(np.sum(np.exp(values[pos] - m)))
        e_pos = np.where(pos, e, 0.0)
        return float(log_all - log_pos), e / e.sum() - e_pos / e_pos.sum()
    resid = values - target
    return float(np.mean(resid * resid)), (2.0 / n) * resid


def frozen_pair_terms(name, ua, ub, dv):
    if name == "sqdist":
        dua = (2.0 * dv)[:, None] * (ua - ub)
        return dua, -dua
    return dv[:, None] * ub, dv[:, None] * ua


def frozen_within_batch(name, u, y, radius, beta):
    b = len(u)
    q = frozen_row_dots(u, u)
    floored = _off_sphere(q, radius).any()
    if name == "sqdist" and not floored:
        return _sqdist_class_sums(u, y, q)
    ii, jj, flat = _triu_pairs(b)
    t = sufficient_label(y.take(ii), y.take(jj))
    if floored:
        ua, ub = u.take(ii, axis=0), u.take(jj, axis=0)
        risk, dv = frozen_reduce(name, frozen_pair_values(name, ua, ub), t, radius, beta)
        both = np.concatenate([ii, jj])
        terms = np.concatenate(frozen_pair_terms(name, ua, ub, dv))
        return risk, np.column_stack(
            [np.bincount(both, weights=terms[:, c], minlength=b) for c in range(u.shape[1])])
    gram, dmat = _gram_buffers(b)
    np.matmul(u, u.T, out=gram)
    risk, dv = frozen_reduce(name, gram.ravel().take(flat), t, radius, beta)
    dmat.ravel()[flat] = dv
    return risk, dmat @ u + dmat.T @ u


def frozen_pair_risk_batch(name, ua, ub, t, radius=1.0, beta=None):
    ua, t = np.asarray(ua, dtype=np.float64), np.asarray(t)
    if ub is None:
        return (*frozen_within_batch(name, ua, t, radius, beta), None)
    ub = np.asarray(ub, dtype=np.float64)
    risk, dv = frozen_reduce(name, frozen_pair_values(name, ua, ub), t, radius, beta)
    return (risk, *frozen_pair_terms(name, ua, ub, dv))


def frozen_step1(model, pairs, cfg):
    """Stage 1's epoch body and validation risk on the frozen surface."""
    loss_name = cfg.resolved_pair_loss(model)
    keep, held = trainer._holdout(len(pairs), cfg, "pairs")
    if held is not None and loss_name == "contrastive" and not np.any(pairs.t[held] == 1):
        keep, held = np.arange(len(pairs)), None
    train_pairs, val_pairs = pairs.take(keep), None if held is None else pairs.take(held)
    pos_a, pos_b = train_pairs.positions()
    x = train_pairs.source.x
    t_all = np.asarray(train_pairs.t, dtype=np.int64)
    n, bs = len(train_pairs), cfg.batch_size
    pos = np.arange(n)
    start = pos - pos % bs
    to_a = start + pos
    to_b = to_a + np.minimum(bs, n - start)

    def epoch_body(lr, perm):
        rows = np.empty(2 * n, dtype=np.intp)
        rows[to_a] = pos_a.take(perm)
        rows[to_b] = pos_b.take(perm)
        x_ep, t_ep = x.take(rows, axis=0), t_all.take(perm)
        for lo in range(0, n, bs):
            t = t_ep[lo:lo + bs]
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            m = len(t)
            u, cache = model.features_cached(x_ep[2 * lo:2 * (lo + m)])
            risk, dua, dub = frozen_pair_risk_batch(
                loss_name, u[:m], u[m:], t, radius=model.radius, beta=cfg.beta)
            du = np.concatenate([dua, dub])
            model.apply_grads(lr, hidden=model.backward_features(cache, du))
            yield risk, m

    def val_score():
        xa, xb, t = val_pairs.gather()
        values = frozen_pair_values(loss_name, model.features(xa), model.features(xb))
        return frozen_reduce(loss_name, values, t, model.radius, cfg.beta)[0]

    return trainer._run_epochs("step1", model, cfg, cfg.schedule, "step1", n, epoch_body,
                               None if val_pairs is None else val_score, x)


# -- the gate ------------------------------------------------------------


def assert_bitwise(model, ref, runs, ref_runs):
    for got, want in zip(param_arrays(model), param_arrays(ref), strict=True):
        assert np.array_equal(got, want)
    for run, ref_run in zip(runs, ref_runs, strict=True):
        assert (run.stage, run.best_epoch) == (ref_run.stage, ref_run.best_epoch)
        assert (run.skipped_batches, run.max_pair_buffer) == (
            ref_run.skipped_batches, ref_run.max_pair_buffer)
        assert [repr(r) for r in run.trace] == [repr(r) for r in ref_run.trace]


def _model(hidden=(32,), rep_dim=2, classes=3, binary_head=None, radius=1.0):
    return TwoPartClassifier.build(2, list(hidden), rep_dim, classes, radius=radius,
                                   binary_head=binary_head, rng=substream(3, "init"))


def _blobs(n_per_class=40, classes=3):
    return generate_synthetic("blobs", n_per_class=n_per_class, noise=0.8, seed=5,
                              class_count=classes)


def _with_zero_rows(ds, k=4):
    """The dataset plus k all-zero rows, which a fresh model maps to a
    zero-norm representation, so phi floors them."""
    x = np.vstack([ds.x, np.zeros((k, ds.dim))])
    y = np.concatenate([ds.y, np.arange(k) % ds.class_count])
    return FullyLabeledDataset.from_arrays(x, y, ds.class_count)


@pytest.mark.parametrize("rep_dim", [2, 8])
@pytest.mark.parametrize("hidden", [(32,), (16, 16), (32, 32)], ids=["32", "16-16", "32-32"])
@pytest.mark.parametrize("loss", LOSSES)
def test_step1_matches_frozen_step(loss, hidden, rep_dim):
    """At radius 1.5, so that the scale is not 1 / denom.  The inner
    adjoint of [32, 32] over 16 rows is a shape on which the BLAS rounds a
    product with a contiguous copy of the weights apart from one with
    their strided view; [16, 16]'s is not."""
    pairs = pair_sampled(_blobs(), PairingConfig(mode="sampled", n_pairs=480, seed=5))
    cfg = TrainConfig(batch_size=8, schedule=SCHEDULE, seed=7, pair_loss=loss)
    model = _model(hidden, rep_dim, radius=1.5)
    ref = frozen(model)
    run, ref_run = train_step1(model, pairs, cfg), frozen_step1(ref, pairs, cfg)
    assert run.best_epoch is not None
    assert_bitwise(model, ref, [run], [ref_run])


@pytest.mark.parametrize("rep_dim", [2, 8])
@pytest.mark.parametrize("loss", LOSSES)
def test_floored_batches_match_frozen_step(loss, rep_dim, monkeypatch):
    """One whole-set batch holding rows that phi floors, in stage 1 and in
    the online step's aligned route."""
    ds = _with_zero_rows(_blobs(n_per_class=20, classes=2))
    assert np.linalg.norm(_model(rep_dim=rep_dim).hidden.forward(np.zeros((1, 2)))) < NORM_EPSILON
    pairs = pair_sampled(ds, PairingConfig(mode="sampled", n_pairs=200, seed=5))
    assert np.isin(pairs.a_ids, ds.ids[-4:]).any() or np.isin(pairs.b_ids, ds.ids[-4:]).any()
    cfg = TrainConfig(batch_size=len(pairs), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0)
    model = _model(rep_dim=rep_dim)
    ref = frozen(model)
    run, ref_run = train_step1(model, pairs, cfg), frozen_step1(ref, pairs, cfg)
    assert_bitwise(model, ref, [run], [ref_run])

    cfg = TrainConfig(batch_size=len(ds), schedule=((0.01, 1),), seed=7, pair_loss=loss,
                      val_fraction=0.0, head_epochs=1)
    labeled = stratified_subset(ds, 2, seed=7)
    model = _model(rep_dim=rep_dim)
    ref = frozen(model)
    runs = train_online(model, ds, labeled, cfg)
    monkeypatch.setattr(trainer, "pair_risk_batch", frozen_pair_risk_batch)
    assert_bitwise(model, ref, runs, train_online(ref, ds, labeled, cfg))


@pytest.mark.parametrize("hidden", [(32,), (16, 16)], ids=["32", "16-16"])
@pytest.mark.parametrize("loss", LOSSES)
def test_online_matches_frozen_step(loss, hidden, monkeypatch):
    ds = _blobs(n_per_class=30)
    labeled = stratified_subset(ds, 6, seed=7)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, pair_loss=loss, head_epochs=3)
    model = _model(hidden, rep_dim=8)
    ref = frozen(model)
    runs = train_online(model, ds, labeled, cfg)
    monkeypatch.setattr(trainer, "pair_risk_batch", frozen_pair_risk_batch)
    ref_runs = train_online(ref, ds, labeled, cfg)
    assert runs[0].best_epoch is not None
    assert_bitwise(model, ref, runs, ref_runs)


@pytest.mark.parametrize("classes, head_loss", [(2, "hinge"), (3, "xent")])
@pytest.mark.parametrize("hidden", [(32,), (16, 16)], ids=["32", "16-16"])
def test_baseline_matches_frozen_step(hidden, classes, head_loss):
    ds = generate_synthetic("blobs", n_per_class=40, noise=1.5, seed=5, class_count=classes)
    cfg = TrainConfig(batch_size=16, schedule=SCHEDULE, seed=7, head_loss=head_loss)
    model = _model(hidden, classes=classes, binary_head=classes == 2)
    ref = frozen(model)
    run, ref_run = train_baseline_full(model, ds, cfg), train_baseline_full(ref, ds, cfg)
    assert run.best_epoch is not None
    assert_bitwise(model, ref, [run], [ref_run])


def test_frozen_step_is_not_the_shipped_step():
    """Guards the gate itself: the frozen classifier and network replace the
    shipped step methods."""
    ref = frozen(_model())
    for cls, name in ((FrozenStepClassifier, "features_cached"),
                      (FrozenStepClassifier, "backward_features"),
                      (FrozenStepHidden, "backward")):
        assert name in vars(cls)
    assert type(ref.clone()) is FrozenStepClassifier
    assert type(ref.clone().hidden) is FrozenStepHidden
