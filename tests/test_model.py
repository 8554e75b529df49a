"""Model forward/backward: hidden MLP, sphere normalization, capped head."""

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

from conftest import far_from_kinks, numeric_grad, params_equal, rel_err, tiny_model


def naive_forward(layers, x):
    """Reference forward pass written as explicit loops."""
    a = np.array(x, dtype=np.float64)
    for layer in layers:
        out = np.empty((a.shape[0], layer.w.shape[1]))
        for i in range(a.shape[0]):
            for j in range(layer.w.shape[1]):
                s = layer.b[j]
                for k in range(a.shape[1]):
                    s += a[i, k] * layer.w[k, j]
                out[i, j] = max(s, 0.0) if layer.activation == "relu" else s
        a = out
    return a


class TestHiddenNetwork:
    def test_forward_matches_naive_loops(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            dims = [3, 5, 4, 2]
            net = HiddenNetwork.init(dims, np.random.default_rng(rng.integers(2**31)))
            x = rng.normal(size=(6, 3))
            np.testing.assert_allclose(net.forward(x), naive_forward(net.layers, x), rtol=1e-12)

    def test_default_activations(self):
        net = HiddenNetwork.init([3, 4, 2], np.random.default_rng(0))
        assert [l.activation for l in net.layers] == ["relu", "identity"]

    def test_dimension_mismatch_message(self):
        net = HiddenNetwork.init([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            net.forward(np.zeros((2, 5)))

    def test_mismatched_chain_rejected(self):
        l1 = Layer(w=np.zeros((3, 4)), b=np.zeros(4))
        l2 = Layer(w=np.zeros((5, 2)), b=np.zeros(2))
        with pytest.raises(ValueError, match="do not chain"):
            HiddenNetwork([l1, l2])

    def test_backward_needs_cache(self):
        net = HiddenNetwork.init([2, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="no recorded forward state"):
            net.backward(None, np.zeros((1, 2)))

    def test_glorot_init_range(self):
        layer = Layer.init(10, 6, "relu", np.random.default_rng(42))
        limit = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(layer.w) <= limit)
        np.testing.assert_array_equal(layer.b, np.zeros(6))

    def test_clone_is_independent(self):
        net = HiddenNetwork.init([2, 3], np.random.default_rng(1))
        copy = net.clone()
        copy.layers[0].w += 1.0
        assert not np.array_equal(net.layers[0].w, copy.layers[0].w)


class TestNormalization:
    def test_rows_land_on_sphere(self):
        rng = np.random.default_rng(42)
        for r in (1.0, 2.0, 0.5):
            v = rng.normal(size=(50, 4)) * 10
            u = phi_normalize(v, radius=r)
            np.testing.assert_allclose(np.linalg.norm(u, axis=1), r, rtol=1e-12)

    def test_single_vector_shape(self):
        u = phi_normalize(np.array([3.0, 4.0]))
        np.testing.assert_allclose(u, [0.6, 0.8])

    def test_backward_frozen_value(self):
        """At v = (3, 4) with unit radius the adjoint e1 maps to exactly
        (16/125, -12/125)."""
        g = phi_backward(np.array([3.0, 4.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [0.128, -0.096], rtol=0, atol=1e-15)

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
                (model.hidden.layers[0].w, layer_grads[0][0]),
                (model.hidden.layers[0].b, layer_grads[0][1]),
                (model.hidden.layers[1].w, layer_grads[1][0]),
                (model.hidden.layers[1].b, layer_grads[1][1]),
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
        before = [a.copy() for a in model.hidden.param_arrays()]
        head_before = model.head.weights.copy()
        u, _ = model.features_cached(rng.normal(size=(4, 3)))
        dw, db, _ = model.head.backward(u, rng.normal(size=(4, 1)))
        model.apply_grads(0.1, head=(dw, db))
        for a, b in zip(before, model.hidden.param_arrays()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.head.weights, head_before - 0.1 * dw)

    def test_features_lie_on_sphere(self):
        rng = np.random.default_rng(5)
        model = tiny_model(rng, radius=2.0)
        x = rng.normal(size=(20, 3))
        v = model.hidden.forward(x)
        live = np.linalg.norm(v, axis=1) > 1e-6  # dead-relu rows stay at zero
        assert np.sum(live) >= 10
        u = model.features(x)
        np.testing.assert_allclose(np.linalg.norm(u[live], axis=1), 2.0, rtol=1e-12)
