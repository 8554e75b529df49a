"""Loss surfaces: independent oracles, gradients, risk reducers."""

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cosine as scipy_cosine

from samediff import (
    FullyLabeledDataset,
    empirical_risk_pairs,
    head_loss_batch,
    pair_exhaustive,
    pair_risk_batch,
    sufficient_label,
)
from samediff import losses

from conftest import numeric_grad, rel_err, tiny_model


# -- scalar and per-pair surfaces, kept here as oracles for the batched code


def hinge_unbounded(y_hat, y):
    """Unbounded hinge -y * yhat for y in {-1, +1}."""
    if y not in (-1, 1):
        raise ValueError(f"hinge target must be -1 or +1, got {y}")
    return -float(y) * float(y_hat)


def cross_entropy(scores, y):
    """Softmax cross-entropy of one score vector, max-subtracted for stability."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("cross_entropy expects a single score vector")
    if not 0 <= y < len(s):
        raise ValueError(f"label {y} outside score vector of length {len(s)}")
    shifted = s - s.max()
    return float(np.log(np.sum(np.exp(shifted))) - shifted[y])


def pair_loss_sqdist(u, u_prime, t):
    """Signed squared distance: positive sign for same-class pairs."""
    d = np.asarray(u, dtype=np.float64) - np.asarray(u_prime, dtype=np.float64)
    sign = 1.0 if t == 1 else -1.0
    return float(sign * np.dot(d, d))


def kernel_and_target(ua, ub, t, radius=1.0, beta=None):
    """Kernel values <u_i, u'_i> and targets: r^2 for t=1, beta (default
    -r^2, the kernel minimum) otherwise."""
    if beta is None:
        beta = -radius * radius
    return np.sum(ua * ub, axis=1), np.where(np.asarray(t) == 1, radius * radius, beta)


def pair_loss_ncs(kernel, target, i):
    """Per-pair share -n * k_i * k*_i / (||K|| ||K*||) of the negated cosine
    similarity, so the batch mean equals -cos(K, K*)."""
    kn = float(np.linalg.norm(kernel))
    sn = float(np.linalg.norm(target))
    return float(-len(kernel) * kernel[i] * target[i] / (kn * sn))


def pair_loss_mse(kernel, target, i):
    """Squared kernel residual for one pair."""
    d = kernel[i] - target[i]
    return float(d * d)


def contrastive_risk(kernel, t):
    """``pair_risk_batch``'s contrastive risk on given kernel values: the
    one-wide features k_i and 1 have exactly the kernel k_i."""
    k = np.asarray(kernel, dtype=np.float64)[:, None]
    return pair_risk_batch("contrastive", k, np.ones_like(k), np.asarray(t))[0]


def mp_cross_entropy(scores, y):
    """Extended-precision softmax cross-entropy."""
    with mpmath.workdps(60):
        exps = [mpmath.e ** mpmath.mpf(float(s)) for s in scores]
        return float(mpmath.log(mpmath.fsum(exps)) - mpmath.log(exps[y]))


def mp_contrastive(kernel, t):
    """Extended-precision contrastive objective."""
    with mpmath.workdps(60):
        exps = [mpmath.e ** mpmath.mpf(float(k)) for k in kernel]
        pos = [e for e, ti in zip(exps, t) if ti == 1]
        return float(mpmath.log(mpmath.fsum(exps)) - mpmath.log(mpmath.fsum(pos)))


def random_features(rng, n, p):
    """Feature rows with norms kept safely away from zero."""
    u = rng.normal(size=(n, p))
    u += np.sign(u) * 0.2
    return u


class TestScalarSurfaces:
    def test_hinge_values(self):
        assert hinge_unbounded(0.7, 1) == pytest.approx(-0.7)
        assert hinge_unbounded(0.7, -1) == pytest.approx(0.7)
        assert hinge_unbounded(-2.0, 1) == pytest.approx(2.0)
        loss, _ = head_loss_batch("hinge", np.array([[0.7], [0.7], [-2.0]]), np.array([1, 0, 1]), 2)
        assert loss == pytest.approx(np.mean([-0.7, 0.7, 2.0]))

    def test_hinge_rejects_bad_target(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            hinge_unbounded(0.0, 0)

    def test_cross_entropy_against_extended_precision(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            s = rng.normal(size=c) * rng.uniform(0.5, 20)
            y = int(rng.integers(c))
            assert cross_entropy(s, y) == pytest.approx(mp_cross_entropy(s, y), rel=1e-12)

    def test_cross_entropy_stable_for_huge_scores(self):
        s = np.array([1000.0, 0.0, -1000.0])
        val = cross_entropy(s, 0)
        assert np.isfinite(val)
        assert val == pytest.approx(mp_cross_entropy(s, 0), rel=1e-12)

    def test_cross_entropy_label_domain(self):
        with pytest.raises(ValueError, match="outside score vector"):
            cross_entropy(np.zeros(3), 3)


class TestSqdist:
    def test_frozen_orthonormal_values(self):
        """Unit vectors at right angles: squared distance 2, signed by t."""
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert pair_loss_sqdist(u, v, 1) == pytest.approx(2.0)
        assert pair_loss_sqdist(u, v, 0) == pytest.approx(-2.0)
        risk, _, _ = pair_risk_batch("sqdist", np.array([u, u]), np.array([v, v]), np.array([1, 0]))
        assert risk == 0.0

    def test_same_point_is_zero(self):
        u = np.array([0.6, 0.8])
        assert pair_loss_sqdist(u, u, 1) == 0.0

    def test_perfect_embedding_risk(self):
        """Collapsed classes at antipodes: risk is -4 r^2 times the
        disagreeing-pair fraction (unit radius here)."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            t = rng.integers(0, 2, size=n)
            p = np.array([0.6, 0.8])
            ua = np.tile(p, (n, 1))
            ub = np.where(t[:, None] == 1, p, -p)
            risk, _, _ = pair_risk_batch("sqdist", ua, ub, t)
            assert risk == pytest.approx(-4.0 * np.mean(t == 0), abs=1e-12)


class TestNcs:
    def test_batch_mean_is_negated_cosine(self):
        """Per-pair shares average to -cos(K, K*); scipy provides the cosine."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            ua = random_features(rng, n, 3)
            ub = random_features(rng, n, 3)
            t = rng.integers(0, 2, size=n)
            k, target = kernel_and_target(ua, ub, t, radius=1.0)
            shares = [pair_loss_ncs(k, target, i) for i in range(n)]
            expected = scipy_cosine(k, target) - 1.0
            assert np.mean(shares) == pytest.approx(expected, rel=1e-10)
            assert pair_risk_batch("ncs", ua, ub, t)[0] == pytest.approx(expected, rel=1e-10)

    def test_default_beta_is_kernel_minimum(self):
        """Kernels (1, 1) against targets (r^2, -r^2) = (4, -4) at r = 2."""
        args = (np.eye(2), np.eye(2), np.array([1, 0]))
        risk = pair_risk_batch("mse", *args, radius=2.0)[0]
        assert risk == pair_risk_batch("mse", *args, radius=2.0, beta=-4.0)[0]
        assert risk == pytest.approx(((1.0 - 4.0) ** 2 + (1.0 + 4.0) ** 2) / 2)

    def test_degenerate_kernel_batch_raises(self):
        ua = np.array([[1.0, 0.0]])
        ub = np.array([[0.0, 1.0]])  # orthogonal: kernel vector is all zeros
        with pytest.raises(ValueError, match="degenerate kernel batch"):
            pair_risk_batch("ncs", ua, ub, np.array([1]))


class TestContrastive:
    def test_against_extended_precision(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            k = rng.normal(size=n) * rng.uniform(0.5, 30)
            t = rng.integers(0, 2, size=n)
            t[rng.integers(n)] = 1  # guarantee a positive
            assert contrastive_risk(k, t) == pytest.approx(mp_contrastive(k, t), rel=1e-12)

    def test_needs_a_positive_pair(self):
        with pytest.raises(ValueError, match="at least one same-class pair"):
            contrastive_risk(np.zeros(3), np.zeros(3, dtype=int))

    def test_all_positive_batch_is_zero(self):
        assert contrastive_risk([3.0, -1.0], np.ones(2, dtype=int)) == pytest.approx(
            0.0, abs=1e-15)


class TestMse:
    def test_per_pair_residual(self):
        k, target = np.array([0.5, -0.5]), np.array([1.0, -1.0])
        assert pair_loss_mse(k, target, 0) == pytest.approx(0.25)
        assert pair_loss_mse(k, target, 1) == pytest.approx(0.25)
        risk, _, _ = pair_risk_batch("mse", k[:, None], np.ones((2, 1)), np.array([1, 0]))
        assert risk == pytest.approx(0.25)

    def test_batch_risk_is_mean(self):
        rng = np.random.default_rng(42)
        ua = random_features(rng, 8, 3)
        ub = random_features(rng, 8, 3)
        t = rng.integers(0, 2, size=8)
        k, target = kernel_and_target(ua, ub, t)
        risk, _, _ = pair_risk_batch("mse", ua, ub, t)
        assert risk == pytest.approx(np.mean([pair_loss_mse(k, target, i) for i in range(8)]))


class TestPairRiskGradients:
    """Finite differences through the batched risk for every pair loss.

    The batch-level losses must include the flow through their shared
    normalizer and partition terms, which the element-wise check catches.
    """

    @pytest.mark.parametrize("name", ["sqdist", "ncs", "contrastive", "mse"])
    def test_feature_gradients(self, name):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(3, 10))
            p = int(rng.integers(2, 5))
            ua = random_features(rng, n, p)
            ub = random_features(rng, n, p)
            t = rng.integers(0, 2, size=n)
            t[rng.integers(n)] = 1
            _, dua, dub = pair_risk_batch(name, ua, ub, t, radius=1.0)

            def risk_only():
                return pair_risk_batch(name, ua, ub, t, radius=1.0)[0]

            assert rel_err(dua, numeric_grad(risk_only, ua)) < 1e-7
            assert rel_err(dub, numeric_grad(risk_only, ub)) < 1e-7

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty pair batch"):
            pair_risk_batch("sqdist", np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown pair loss"):
            pair_risk_batch("huber", np.ones((1, 2)), np.ones((1, 2)), np.ones(1))

    @pytest.mark.parametrize("name", ["sqdist", "ncs", "contrastive", "mse"])
    def test_one_sgd_step_descends(self, name):
        """A small step along the returned gradients lowers the risk."""
        rng = np.random.default_rng(42)
        for trial in range(5):
            n = 12
            ua = random_features(rng, n, 3)
            ub = random_features(rng, n, 3)
            t = rng.integers(0, 2, size=n)
            t[0] = 1
            risk0, dua, dub = pair_risk_batch(name, ua, ub, t)
            lr = 1e-3
            risk1, _, _ = pair_risk_batch(name, ua - lr * dua, ub - lr * dub, t)
            assert risk1 < risk0


def aligned_scatter(name, u, t, radius, beta=None):
    """The within-batch risk the long way: both sides of every pair i < j
    gathered, the aligned form, then np.add.at over ii and then jj."""
    ii, jj = np.triu_indices(len(u), k=1)
    risk, dua, dub = pair_risk_batch(name, u[ii], u[jj], t, radius=radius, beta=beta)
    du = np.zeros_like(u)
    np.add.at(du, ii, dua)
    np.add.at(du, jj, dub)
    return risk, du


def batch_bits(rng, b):
    """Agreement bits of b rows from three classes, with rows 0 and 1 in
    one class so every batch has a same-class pair."""
    y = rng.integers(0, 3, size=b)
    y[1] = y[0]
    ii, jj = np.triu_indices(b, k=1)
    return sufficient_label(y[ii], y[jj])


def integer_rows(rng, b, p):
    """Rows of integers on the radius-5 sphere (squared norms sum to 25).
    Every kernel value is an exact small integer, so the Gram and aligned
    forms see bitwise equal values."""
    patterns = [[5], [3, 4], [4, 2, 2, 1], [3, 2, 2, 2, 2], [2, 2, 2, 2, 2, 2, 1]]
    patterns = [q for q in patterns if len(q) <= p]
    u = np.zeros((b, p))
    for row in u:
        q = patterns[rng.integers(len(patterns))]
        row[rng.choice(p, size=len(q), replace=False)] = np.array(q) * rng.choice([-1, 1], len(q))
    return u


class TestWithinBatch:
    """``pair_risk_batch(name, u, None, t)``: every pair i < j of u's rows,
    scored on one Gram matrix, against the aligned form plus np.add.at."""

    @pytest.mark.parametrize("p", [2, 8, 32])
    @pytest.mark.parametrize("b", [2, 3, 17, 128])
    @pytest.mark.parametrize("name", ["sqdist", "ncs", "contrastive", "mse"])
    def test_matches_aligned_scatter(self, name, b, p):
        rng = np.random.default_rng([b, p])
        radius = 1.5
        u = random_features(rng, b, p)
        u *= radius / np.linalg.norm(u, axis=1, keepdims=True)
        t = batch_bits(rng, b)
        risk, du, none = pair_risk_batch(name, u, None, t, radius=radius)
        want_risk, want_du = aligned_scatter(name, u, t, radius)
        assert none is None
        assert abs(risk - want_risk) <= 1e-12 * abs(want_risk)
        if name == "ncs" and b == 2:
            # One pair: the cosine is +-1 whatever u, so the exact gradient
            # is 0 and both forms may return only rounding noise.
            assert max(np.linalg.norm(du), np.linalg.norm(want_du)) <= 1e-12
        else:
            assert np.linalg.norm(du - want_du) <= 1e-12 * np.linalg.norm(want_du)

    @pytest.mark.parametrize("p", [2, 8, 32])
    @pytest.mark.parametrize("name", ["sqdist", "ncs", "contrastive", "mse"])
    def test_off_sphere_rows_match_bitwise(self, name, p):
        """Rows off the sphere (zero rows and unit rows at radius 5) take the
        aligned terms in np.add.at's order: bitwise equal, not just close."""
        rng = np.random.default_rng([7, p])
        b = 40
        u = integer_rows(rng, b, p)
        off = rng.choice(b, size=6, replace=False)
        u[off[:3]] = 0.0
        u[off[3:]] = np.eye(p)[rng.integers(p, size=3)]
        t = batch_bits(rng, b)
        risk, du, _ = pair_risk_batch(name, u, None, t, radius=5.0)
        want_risk, want_du = aligned_scatter(name, u, t, 5.0)
        assert risk == want_risk
        assert np.array_equal(du[off], want_du[off])
        assert np.linalg.norm(du - want_du) <= 1e-12 * np.linalg.norm(want_du)

    @pytest.mark.parametrize("name", ["sqdist", "ncs"])
    def test_reused_buffers_match_fresh_ones(self, name):
        """Alternating batch sizes reuse the cached buffers without leaking
        one call's values into the next."""
        rng = np.random.default_rng(3)
        batches = [(u, batch_bits(rng, len(u)))
                   for u in (random_features(rng, b, 8) for b in (128, 35, 128))]
        fresh = []
        for u, t in batches:
            losses._gram_buffers.cache_clear()
            fresh.append(pair_risk_batch(name, u, None, t))
        for _ in range(2):
            for (u, t), (want_risk, want_du, _) in zip(batches, fresh):
                risk, du, _ = pair_risk_batch(name, u, None, t)
                assert risk == want_risk
                assert np.array_equal(du, want_du)

    def test_bit_count_must_match_rows(self):
        with pytest.raises(ValueError, match="4 rows have 6 pairs, got 5"):
            pair_risk_batch("sqdist", np.ones((4, 2)), None, np.ones(5))


class TestHeadLossBatch:
    def test_binary_hinge_maps_labels_to_signs(self):
        s = np.array([[0.5], [0.5]])
        loss, ds = head_loss_batch("hinge", s, np.array([1, 0]), 2)
        # class 1 -> target +1 (loss -0.5), class 0 -> target -1 (loss +0.5)
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(ds, [[-0.5], [0.5]])

    def test_multiclass_hinge_frozen_case(self):
        """One-vs-rest sum: true class pulls +1, the rest push -1."""
        s = np.array([[1.0, 2.0, 3.0]])
        loss, ds = head_loss_batch("hinge", s, np.array([2]), 3)
        assert loss == pytest.approx(1.0 + 2.0 - 3.0)
        np.testing.assert_allclose(ds, [[1.0, 1.0, -1.0]])

    def test_hinge_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for cols in (1, 4):
            s = rng.normal(size=(6, cols))
            y = rng.integers(0, 2 if cols == 1 else cols, size=6)
            _, ds = head_loss_batch("hinge", s, y, 2 if cols == 1 else cols)
            num = numeric_grad(lambda: head_loss_batch("hinge", s, y, 2 if cols == 1 else cols)[0], s)
            assert rel_err(ds, num) < 1e-9

    def test_xent_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=(6, 4)) * 3
        y = rng.integers(0, 4, size=6)
        _, ds = head_loss_batch("xent", s, y, 4)
        num = numeric_grad(lambda: head_loss_batch("xent", s, y, 4)[0], s)
        assert rel_err(ds, num) < 1e-7

    def test_xent_against_scalar_surface(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        loss, _ = head_loss_batch("xent", s, y, 3)
        assert loss == pytest.approx(np.mean([cross_entropy(s[i], int(y[i])) for i in range(5)]))

    def test_xent_needs_multiple_columns(self):
        with pytest.raises(ValueError, match="one score column per class"):
            head_loss_batch("xent", np.zeros((2, 1)), np.array([0, 1]), 2)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            head_loss_batch("hinge", np.zeros((0, 1)), np.zeros(0, dtype=int), 2)


class TestEmpiricalRisks:
    def _dataset(self, n=24, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3)) + np.sign(rng.normal(size=(n, 3)))
        y = rng.integers(0, 2, size=n)
        return FullyLabeledDataset.from_arrays(x, y, 2)

    @pytest.mark.parametrize("name", ["sqdist", "ncs", "contrastive", "mse"])
    def test_pair_risk_chunking_matches_single_batch(self, name):
        """The reducer accumulates kernels chunk by chunk but must agree with
        treating the entire pair set as one batch (9730 pairs here, past the
        8192-pair chunk size)."""
        rng = np.random.default_rng(42)
        model = tiny_model(rng, in_dim=2)
        n = 140  # 9730 pairs > one 8192 chunk
        x = rng.normal(size=(n, 2)) + np.sign(rng.normal(size=(n, 2)))
        y = rng.integers(0, 2, size=n)
        ds = FullyLabeledDataset.from_arrays(x, y, 2)
        pairs = pair_exhaustive(ds)
        assert len(pairs) > 8192
        xa, xb, t = pairs.gather()
        want, _, _ = pair_risk_batch(name, model.features(xa), model.features(xb), t,
                                     radius=model.radius)
        got = empirical_risk_pairs(model, pairs, name)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_inputs_rejected(self):
        model = tiny_model(np.random.default_rng(0))
        empty = pair_exhaustive(self._dataset(n=4)).take(np.arange(0))
        with pytest.raises(ValueError, match="empty pair set"):
            empirical_risk_pairs(model, empty)
