"""Shared helpers: finite-difference gradients, tiny dataset builders and
a jitter-augmented copy, bitwise model equality, the theory tests'
per-hypothesis references, risk target and constant-map problems, and the
grid risk and bisection that check the suite's dense-search cross-checks.

Hypothesis runs under the profile named by ``HYPOTHESIS_PROFILE``: unset
means hypothesis's own default; ``ci`` draws ten times the examples, in
a fixed order (``derandomize``), so a CI failure reproduces.
"""

import os
import struct
import zlib

import numpy as np
import pytest

from samediff import FullyLabeledDataset, TwoPartClassifier, substream
import samediff.theory as theory
from samediff.theory import FiniteProblem, _directions, generate_problem, signed_mean

try:
    from hypothesis import settings
except ImportError:   # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", max_examples=1000, derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rel_err(a, b):
    """Symmetric relative error between two gradient tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12)


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f() with respect to array x,
    mutating x in place entry by entry."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def far_from_kinks(model, x, margin=1e-3, min_raw_norm=1e-2):
    """True when no relu preactivation sits within margin of zero (so a
    finite-difference step cannot cross a kink) and every raw representation
    has a safely nonzero norm (so the normalization stays smooth)."""
    v, cache = model.hidden.forward_cached(np.asarray(x, dtype=np.float64))
    if np.any(np.linalg.norm(v, axis=1) < min_raw_norm):
        return False
    for z in cache.z[:-1]:   # the last layer is linear
        if np.any(np.abs(z) < margin):
            return False
    return True


def hidden_param_arrays(hidden):
    """Each hidden layer's weight rows and bias row, views of its ``wb``,
    in layer order."""
    return [p for layer in hidden.layers for p in (layer.wb[:-1], layer.wb[-1])]


def param_arrays(model):
    """Every parameter array of a classifier: hidden layers, then the head."""
    head = model.head
    return hidden_param_arrays(model.hidden) + [head.weights] + (
        [] if head.biases is None else [head.biases])


def params_equal(a, b):
    """Bitwise parameter equality of two classifiers."""
    mine, theirs = param_arrays(a), param_arrays(b)
    return len(mine) == len(theirs) and all(np.array_equal(p, q) for p, q in zip(mine, theirs))


def frozen_min_head_risk(h, prob):
    """Smallest true hinge risk over heads with norm at most 1/r, one
    hypothesis at a time: -||E[Y rep(X)]|| / r."""
    return -float(np.linalg.norm(signed_mean(h, prob))) / prob.radius


def frozen_pair_objective_value(h, prob):
    """Expected negated squared representation distance across classes,
    one hypothesis at a time, conditioned on the two independent draws
    carrying different labels."""
    h = np.asarray(h, dtype=np.float64)
    alpha = prob.alpha
    diff = h[:, None, :] - h[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    cross = np.outer(prob.pmf[:, 0], prob.pmf[:, 1])
    return float(np.sum(cross * (-d2)) / (alpha * (1.0 - alpha)))


def half_best_gamma(prob):
    """Half the best achievable true risk: a canonically attainable target."""
    best = min(frozen_min_head_risk(h, prob) for h in prob.hypotheses)
    if best >= 0:
        raise ValueError("no hypothesis achieves negative risk on this problem")
    return 0.5 * best


def min_head_risk_grid(h: np.ndarray, prob: FiniteProblem, n_dirs: int = 10_000) -> float:
    """Dense-search cross-check of the best-head risk.

    Scans heads on the boundary of the norm ball along near-uniform
    directions (plus the zero head) and returns the best risk found.
    """
    dirs, _ = _directions(prob.rep_dim, n_dirs)
    return min(-float(np.max(dirs @ signed_mean(h, prob))) / prob.radius, 0.0)


def required_head_norm_bisect(
    h: np.ndarray,
    prob: FiniteProblem,
    gamma: float,
    n_dirs: int = 10_000,
    iters: int = 80,
) -> float:
    """Independent route to ``required_head_norm``: bisection over the norm
    budget with a dense direction search for the best head inside each ball."""
    if gamma >= 0:
        raise ValueError("trivial risk: target must be negative")
    e = signed_mean(h, prob)
    dirs, _ = _directions(prob.rep_dim, n_dirs)
    best_dot = max(float(np.max(dirs @ e)), 0.0)
    cap = 1.0 / prob.radius

    def best_risk(budget: float) -> float:
        return -budget * best_dot

    if best_risk(cap) > gamma:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    lo, hi = 0.0, cap
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if best_risk(mid) <= gamma:
            hi = mid
        else:
            lo = mid
    return hi


def tiny_model(rng, in_dim=3, hidden=(4,), rep_dim=2, class_count=2, radius=1.0,
               binary_head=None):
    seed = int(rng.integers(2**31))
    return TwoPartClassifier.build(
        in_dim, list(hidden), rep_dim, class_count, radius=radius,
        binary_head=binary_head, rng=substream(seed, "init"),
    )


def labeled_grid(n_classes=3, per_class=4, dim=3, seed=0):
    """Small deterministic labeled dataset with well-spread features."""
    rng = substream(seed, "tests", "grid")
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(rng.normal(loc=3.0 * c, scale=1.0, size=(per_class, dim)))
        ys.append(np.full(per_class, c, dtype=np.int64))
    return FullyLabeledDataset.from_arrays(np.vstack(xs), np.concatenate(ys), n_classes)


def augmented(ds, seed, scale=0.05):
    """The dataset followed by a jittered copy of every row, with the same
    labels: data augmentation done once, before training."""
    rng = np.random.default_rng(seed)
    x = np.vstack([ds.x, ds.x + scale * rng.normal(size=ds.x.shape)])
    return FullyLabeledDataset.from_arrays(x, np.concatenate([ds.y, ds.y]), ds.class_count)


def with_constant_map(seed):
    """``generate_problem(seed)`` with one more hypothesis, a constant map.

    Its point is the next unit direction of the generator's own stream,
    times the radius, so a problem is the same bit for bit from run to run.
    Its one-point image breaks the support-size assumption, so a
    verification must withhold its verdict.
    """
    streams = []

    def kept(*key):
        streams.append(substream(*key))
        return streams[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "substream", kept)
        prob = generate_problem(seed)
    point = theory._unit(streams[0], prob.rep_dim) * prob.radius
    return FiniteProblem(pmf=prob.pmf, radius=prob.radius,
                         hypotheses=(*prob.hypotheses, np.tile(point, (len(prob.pmf), 1))))


@pytest.fixture
def rng42():
    return np.random.default_rng(42)


def checkpoint_bytes(layers, head_weights, head_biases=None, radius=1.0, seed=0, class_count=2):
    """A checkpoint built field by field from docs/formats.md.

    ``layers`` lists each hidden layer as (weights, biases, activation
    code), the weights shaped (fan_in, fan_out).
    """
    def f64(values):
        values = np.ravel(values)   # row-major
        return struct.pack(f"<{len(values)}d", *values)

    parts = [b"SDCK", struct.pack("<HHdqII", 1, 0 if head_biases is None else 1,
                                  radius, seed, class_count, len(layers))]
    for weights, biases, act in layers:
        fan_in, fan_out = np.shape(weights)
        parts += [struct.pack("<IIB", fan_in, fan_out, act), f64(weights), f64(biases)]
    parts += [struct.pack("<II", *np.shape(head_weights)), f64(head_weights)]
    if head_biases is not None:
        parts.append(f64(head_biases))
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))
