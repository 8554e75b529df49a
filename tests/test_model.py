"""Model forward/backward: hidden MLP, sphere normalization, capped head."""

import tracemalloc

import numpy as np
import pytest

from samediff import (
    HiddenNetwork,
    Layer,
    LinearHead,
    TwoPartClassifier,
    phi_backward,
    phi_normalize,
    project_head,
    substream,
)

from samediff.model import _EVAL_ROWS, _row_sums
from conftest import (far_from_kinks, hidden_param_arrays, numeric_grad, params_equal, rel_err,
                      tiny_model)


def naive_forward(layers, x):
    """Reference forward pass written as explicit loops: ReLU after every
    layer but the last."""
    a = np.array(x, dtype=np.float64)
    for pos, layer in enumerate(layers, start=1):
        w, b = layer.wb[:-1], layer.wb[-1]
        out = np.empty((a.shape[0], w.shape[1]))
        for i in range(a.shape[0]):
            for j in range(w.shape[1]):
                s = b[j]
                for k in range(a.shape[1]):
                    s += a[i, k] * w[k, j]
                out[i, j] = max(s, 0.0) if pos < len(layers) else s
        a = out
    return a


@pytest.mark.parametrize("build, message", [
    (lambda: HiddenNetwork([]), "network needs at least one layer"),
    (lambda: HiddenNetwork.init([3], substream(0, "init")),
     "dims must list at least input and output width"),
    (lambda: LinearHead(np.zeros(2)), r"head weights must be \(rows, rep_dim\)"),
    (lambda: LinearHead(np.zeros((2, 2)), np.zeros(3)), "head bias shape must match weight rows"),
    (lambda: TwoPartClassifier(HiddenNetwork.init([2, 2], substream(0, "init")), 1.0,
                               LinearHead(np.zeros((3, 2)), np.zeros(3)), 2),
     "head must have one row per class"),
], ids=["no-layers", "one-width", "head-1d", "head-bias", "head-rows"])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestHiddenNetwork:
    def test_forward_matches_naive_loops(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            dims = [3, 5, 4, 2]
            net = HiddenNetwork.init(dims, np.random.default_rng(rng.integers(2**31)))
            x = rng.normal(size=(6, 3))
            np.testing.assert_allclose(net.forward(x), naive_forward(net.layers, x), rtol=1e-12)

    def test_default_activations(self):
        """ReLU after the inner layer, none after the last: the output keeps
        negative entries and the next layer's input does not."""
        net = HiddenNetwork.init([3, 4, 2], np.random.default_rng(0))
        v, cache = net.forward_cached(np.random.default_rng(1).normal(size=(50, 3)))
        assert v is cache.z[-1] and np.any(v < 0.0)
        np.testing.assert_array_equal(cache.inputs[1][:, :-1], np.maximum(cache.z[0], 0.0))
        assert np.any(cache.z[0] < 0.0)

    def test_dimension_mismatch_message(self):
        net = HiddenNetwork.init([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            net.forward(np.zeros((2, 5)))

    def test_mismatched_chain_rejected(self):
        l1 = Layer(np.zeros((4, 4)))
        l2 = Layer(np.zeros((6, 2)))
        with pytest.raises(ValueError, match="do not chain"):
            HiddenNetwork([l1, l2])

    def test_backward_needs_cache(self):
        net = HiddenNetwork.init([2, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="no recorded forward state"):
            net.backward(None, np.zeros((1, 2)))

    def test_glorot_init_range(self):
        layer = Layer.init(10, 6, np.random.default_rng(42))
        limit = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(layer.wb[:-1]) <= limit)
        np.testing.assert_array_equal(layer.wb[-1], np.zeros(6))

    def test_clone_is_independent(self):
        net = HiddenNetwork.init([2, 3], np.random.default_rng(1))
        copy = net.clone()
        copy.layers[0].wb += 1.0
        assert not np.array_equal(net.layers[0].wb, copy.layers[0].wb)


class TestNormalization:
    def test_rows_land_on_sphere(self):
        rng = np.random.default_rng(42)
        for r in (1.0, 2.0, 0.5):
            v = rng.normal(size=(50, 4)) * 10
            u = phi_normalize(v, radius=r)
            np.testing.assert_allclose(np.linalg.norm(u, axis=1), r, rtol=1e-12)

    def test_backward_frozen_value(self):
        """At v = (3, 4) with unit radius the adjoint e1 maps to exactly
        (16/125, -12/125)."""
        g = phi_backward(np.array([[3.0, 4.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(g, [[0.128, -0.096]], rtol=0, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            r = float(rng.uniform(0.5, 2.0))
            v = rng.normal(size=(4, 3))
            v += np.sign(v) * 0.1  # keep norms well away from zero
            adj = rng.normal(size=(4, 3))
            analytic = phi_backward(v, adj, radius=r)
            num = numeric_grad(lambda: float(np.sum(adj * phi_normalize(v, r))), v)
            assert rel_err(analytic, num) < 1e-6

    def test_orthogonal_to_input(self):
        """The normalization Jacobian kills the radial direction."""
        rng = np.random.default_rng(42)
        v = rng.normal(size=(10, 5))
        g = phi_backward(v, np.broadcast_to(v, v.shape).copy())
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_training_mode_floors_zero_rows(self):
        u = phi_normalize(np.zeros((1, 3)))
        assert np.all(np.isfinite(u))

    @pytest.mark.parametrize("cols", range(11))
    def test_row_sums_match_numpy_reduction(self, cols):
        """``_row_sums`` is ``np.add.reduce(axis=1)`` bit for bit, signed
        zeros, infinities and NaN included."""
        rng = np.random.default_rng(cols)
        a = rng.normal(size=(400, cols)) * np.exp(8.0 * rng.normal(size=(400, cols)))
        pick = rng.random(size=a.shape)
        a[pick < 0.15] = 0.0
        a[(pick >= 0.15) & (pick < 0.3)] = -0.0
        a[pick > 0.995] = np.inf
        a[(pick > 0.99) & (pick <= 0.995)] = -np.inf
        a[(pick > 0.985) & (pick <= 0.99)] = np.nan
        a[:100] = a[:100, :1] * np.where(np.arange(cols) % 2, -1.0, 1.0)  # exact cancellation
        with np.errstate(invalid="ignore"):
            want = np.add.reduce(a, axis=1)
            assert _row_sums(a).tobytes() == want.tobytes()
            out = np.empty(len(a))
            assert _row_sums(a, out=out) is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("floored", [True, False], ids=["floored-batch", "plain-batch"])
    def test_out_matches_fresh_result(self, floored):
        """Writing into ``out`` gives the fresh result bit for bit, on a batch
        with a NORM_FLOOR row and on one without."""
        rng = np.random.default_rng(11)
        v, g = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        if floored:
            v[2] = 0.0
        for fn, args in ((phi_normalize, (v, 1.5)), (phi_backward, (v, g, 1.5))):
            out = np.full(v.shape, np.nan)
            got = fn(*args, out=out)
            want = fn(*args)
            assert np.shares_memory(got, out)
            assert out.tobytes() == want.tobytes()
            assert got.tobytes() == want.tobytes()


class TestLinearHead:
    def test_binary_means_single_unbiased_row(self):
        binary = LinearHead(weights=np.ones((1, 3)))
        multi = LinearHead(weights=np.ones((3, 3)), biases=np.zeros(3))
        assert binary.binary and not multi.binary

    def test_scores_include_bias(self):
        head = LinearHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), biases=np.array([5.0, -5.0]))
        s = head.scores(np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(s, [[7.0, -2.0]])

    def test_projection_caps_rows(self):
        rng = np.random.default_rng(42)
        for r in (1.0, 2.0):
            head = LinearHead(weights=rng.normal(size=(4, 3)) * 5, biases=rng.normal(size=4))
            capped = project_head(head, radius=r)
            norms = np.linalg.norm(capped.weights, axis=1)
            assert np.all(norms <= 1.0 / r + 1e-12)
            np.testing.assert_array_equal(capped.biases, head.biases)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(42)
        head = LinearHead(weights=rng.normal(size=(3, 2)) * 4)
        once = project_head(head, 1.0)
        twice = project_head(once, 1.0)
        np.testing.assert_array_equal(once.weights, twice.weights)

    def test_projection_keeps_small_rows_exact(self):
        head = LinearHead(weights=np.array([[0.1, 0.2]]))
        out = project_head(head, 1.0)
        np.testing.assert_array_equal(out.weights, head.weights)


class TestTwoPartClassifier:
    def test_binary_scores_bounded_after_projection(self):
        """|score| <= 1 for any input once the head row is inside its ball."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            r = float(rng.choice([0.5, 1.0, 2.0]))
            model = tiny_model(rng, in_dim=3, rep_dim=4, radius=r)
            model.head.weights *= 10
            model.project_head()
            x = rng.normal(size=(40, 3)) * rng.uniform(0.1, 10)
            s = model.head.scores(model.features(x))
            assert np.all(np.abs(s) <= 1.0 + 1e-9)

    def test_binary_prediction_thresholds_at_zero(self):
        rng = np.random.default_rng(42)
        model = tiny_model(rng)
        x = rng.normal(size=(30, 3))
        s = model.head.scores(model.features(x))[:, 0]
        np.testing.assert_array_equal(model.predict(x), (s > 0).astype(np.int64))

    def test_multiclass_argmax_with_low_index_ties(self):
        model = tiny_model(np.random.default_rng(0), class_count=3, binary_head=False)
        model.head.weights[:] = 0.0
        model.head.biases[:] = 0.0
        # all scores tie at zero, every prediction must be class 0
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(model.predict(x), np.zeros(5, dtype=np.int64))

    def test_head_width_must_match(self):
        rng = substream(0, "init")
        hidden = HiddenNetwork.init([3, 4], rng)
        head = LinearHead(weights=np.zeros((1, 7)))
        with pytest.raises(ValueError, match="head width"):
            TwoPartClassifier(hidden, 1.0, head, 2)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            tiny_model(np.random.default_rng(0), radius=radius)

    def test_binary_head_needs_two_classes(self):
        with pytest.raises(ValueError, match="binary head requires exactly 2"):
            tiny_model(np.random.default_rng(0), class_count=3, binary_head=True)

    def test_full_backward_matches_finite_differences(self):
        """End-to-end parameter gradients against central differences."""
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            model = tiny_model(rng, in_dim=3, hidden=(4,), rep_dim=3,
                               class_count=3, binary_head=False)
            x = rng.normal(size=(5, 3))
            if not far_from_kinks(model, x):
                continue
            adj = rng.normal(size=(5, 3))

            def objective():
                return float(np.sum(adj * model.head.scores(model.features(x))))

            u, cache = model.features_cached(x)
            head_w, head_b, du = model.head.backward(u, adj)
            layer_grads = model.backward_features(cache, du)
            for arr, analytic in [
                (model.hidden.layers[0].wb[:-1], layer_grads[0][:-1]),
                (model.hidden.layers[0].wb[-1], layer_grads[0][-1]),
                (model.hidden.layers[1].wb[:-1], layer_grads[1][:-1]),
                (model.hidden.layers[1].wb[-1], layer_grads[1][-1]),
                (model.head.weights, head_w),
                (model.head.biases, head_b),
            ]:
                assert rel_err(analytic, numeric_grad(objective, arr)) < 1e-6
            checked += 1

    def test_clone_and_params_equal(self):
        model = tiny_model(np.random.default_rng(3))
        twin = model.clone()
        assert params_equal(model, twin)
        twin.head.weights += 1e-12
        assert not params_equal(model, twin)

    def test_apply_grads_head_only_freezes_hidden(self):
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        before = [a.copy() for a in hidden_param_arrays(model.hidden)]
        head_before = model.head.weights.copy()
        u, _ = model.features_cached(rng.normal(size=(4, 3)))
        dw, db, _ = model.head.backward(u, rng.normal(size=(4, 1)))
        model.apply_grads(0.1, head=(dw, db))
        for a, b in zip(before, hidden_param_arrays(model.hidden)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.head.weights, head_before - 0.1 * dw)

    def test_single_vector_is_refused(self):
        """The model takes (n, d) batches only."""
        model = tiny_model(np.random.default_rng(6))
        for call in (model.features, model.predict):
            with pytest.raises(ValueError, match=r"\(n, d\) batch"):
                call(np.zeros(3))

    def test_features_lie_on_sphere(self):
        rng = np.random.default_rng(5)
        model = tiny_model(rng, radius=2.0)
        x = rng.normal(size=(20, 3))
        v = model.hidden.forward(x)
        live = np.linalg.norm(v, axis=1) > 1e-6  # dead-relu rows stay at zero
        assert np.sum(live) >= 10
        u = model.features(x)
        np.testing.assert_allclose(np.linalg.norm(u[live], axis=1), 2.0, rtol=1e-12)


class TestInference:
    """Inference runs in blocks of ``_EVAL_ROWS`` rows through one workspace."""

    def test_predict_memory_stays_bounded(self):
        """A single whole-batch pass traced 112 MB at this size; blocks trace 16 MB."""
        model = TwoPartClassifier.build(2, [32], 2, 4, rng=substream(3, "init"))
        x = np.random.default_rng(0).normal(size=(200_000, 2))
        tracemalloc.start()
        try:
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_training_spare_is_left_alone(self):
        rng = np.random.default_rng(24)
        model = tiny_model(rng)
        x = rng.normal(size=(6, 3))
        _, cache = model.features_cached(x)
        model.backward_features(cache, rng.normal(size=(6, 2)))
        model.predict(rng.normal(size=(3 * _EVAL_ROWS + 6, 3)))
        assert model.features_cached(x)[1] is cache


def _bits(arrays):
    """The bytes of every array, so signed zeros count."""
    return [a.tobytes() for a in arrays]


class TestWorkspace:
    """A training step writes into one reused workspace per row count."""

    def test_live_caches_backpropagate_in_any_order(self):
        rng = np.random.default_rng(21)
        model = tiny_model(rng, hidden=(5, 4), rep_dim=3)
        x1, x2 = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        d1, d2 = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))

        def fresh_grads(x, d):
            m = model.clone()
            return m.backward_features(m.features_cached(x)[1], d)

        fresh = [fresh_grads(x1, d1), fresh_grads(x2, d2)]
        for order in ((0, 1), (1, 0)):
            twin = model.clone()
            # a spent step leaves a spare workspace of this row count behind
            twin.backward_features(twin.features_cached(x2)[1], d2)
            (u1, c1), (_, c2) = twin.features_cached(x1), twin.features_cached(x2)
            assert _bits([u1]) == _bits([model.features(x1)])
            caches, adjoints = (c1, c2), (d1, d2)
            grads = [None, None]
            for k in order:
                grads[k] = twin.backward_features(caches[k], adjoints[k])
            for got, want in zip(grads, fresh):
                assert _bits(got) == _bits(want)

    def test_spent_workspace_is_reused_and_clone_shares_none(self):
        rng = np.random.default_rng(22)
        model = tiny_model(rng)
        x, d = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        u, cache = model.features_cached(x)
        grads = model.backward_features(cache, d)
        kept = _bits(grads)
        u_next, cache_next = model.features_cached(x + 1.0)
        assert cache_next is cache
        assert np.shares_memory(u_next, u)
        model.backward_features(cache_next, -d)
        assert _bits(grads) == kept  # returned gradients are fresh
        u_twin, _ = model.clone().features_cached(x)
        assert not np.shares_memory(u_twin, u)
        u_other, _ = model.features_cached(x[:5])
        assert not np.shares_memory(u_other, u)

    def test_float_mask_keeps_signed_zeros(self):
        """The masked adjoint equals ``g * (z > 0.0)`` bit for bit, g being
        the adjoint the linear last layer (here the identity) hands back."""
        net = HiddenNetwork([Layer(np.array([[1.0] * 6, [0.0] * 6])),
                             Layer(np.vstack([np.eye(6), np.zeros(6)]))])
        _, cache = net.forward_cached(np.ones((2, 1)))
        z = np.array([[0.0, -0.0, 1.0, -1.0, 0.0, 2.0],
                      [-0.0, 0.0, -3.0, 4.0, 1.0, -0.0]])
        g = np.array([[-0.0, -0.0, -0.0, -0.0, -2.0, -0.0],
                      [-1.0, 3.0, -0.0, -5.0, -0.0, -7.0]])
        cache.z[0][...] = z
        net.backward(cache, g)
        assert cache.adjoints[0].tobytes() == ((g @ np.eye(6)) * (z > 0.0)).tobytes()

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_workspace_scale_is_phi_scale(self, radius):
        """The forward writes radius / denom into the workspace once, as an
        (n, 1) column, and the backward reuses it: the gradients equal
        those of ``phi_backward`` computing its own scale."""
        rng = np.random.default_rng(24)
        model = tiny_model(rng, radius=radius)
        x, du = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        x[2] = 0.0   # a row phi floors
        u, cache = model.features_cached(x)
        assert cache.scale.shape == (6, 1)
        assert cache.scale.tobytes() == (radius / cache.denom)[:, None].tobytes()
        assert u.tobytes() == (cache.v * (radius / cache.denom)[:, None]).tobytes()
        v, denom = cache.v.copy(), cache.denom.copy()
        grads = model.backward_features(cache, du)
        ref = model.clone()
        _, ref_cache = ref.features_cached(x)
        want = ref.hidden.backward(ref_cache, phi_backward(v, du, radius, denom))
        assert _bits(grads) == _bits(want)

    def test_backward_leaves_grad_out_unchanged(self):
        rng = np.random.default_rng(23)
        net = HiddenNetwork([Layer.init(3, 4, rng), Layer.init(4, 2, rng)])
        _, cache = net.forward_cached(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 2))
        before = g.tobytes()
        net.backward(cache, g)
        assert g.tobytes() == before
        model = tiny_model(rng)
        _, cache = model.features_cached(rng.normal(size=(5, 3)))
        du = rng.normal(size=(5, 2))
        before = du.tobytes()
        model.backward_features(cache, du)
        assert du.tobytes() == before
