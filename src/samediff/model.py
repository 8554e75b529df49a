"""Two-part classifier: hidden MLP, sphere-normalized feature map, linear head.

The full model is f2(phi(F1(x))).  F1 is a plain fully-connected network,
phi rescales its output onto the sphere of radius r, and the head is linear
with per-class weight norm capped at 1/r.  Together the cap and the sphere
keep every binary score inside [-1, 1].  The model stores r, which must be
finite and positive, and applies phi through ``phi_normalize`` and
``phi_backward``.

Every trainer uses one training surface: ``features_cached`` (forward
through F1 and phi), ``LinearHead.backward`` (the only head gradient; it
also returns the adjoint at the features), ``backward_features`` (back
through phi and F1) and ``apply_grads`` (the only SGD update, for the
hidden layers, the head or both).

All parameters and activations are float64 and every gradient is computed
in closed form, including the normalization Jacobian
(r/||v||) (I - v v^T / ||v||^2), so finite-difference checks can hold to
tight tolerances and repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Layer",
    "HiddenNetwork",
    "LinearHead",
    "TwoPartClassifier",
    "phi_normalize",
    "phi_backward",
    "project_head",
]

NORM_EPSILON = 1e-12   # below this the activation counts as degenerate
NORM_FLOOR = 1e-8      # added to degenerate norms

_ACTIVATIONS = ("identity", "relu")


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ValueError(f"inputs must be 1-d or 2-d, got {x.ndim}-d")
    return x, False


@dataclass
class Layer:
    """One affine layer with an elementwise activation."""

    w: np.ndarray          # (fan_in, fan_out)
    b: np.ndarray          # (fan_out,)
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)

    @classmethod
    def init(cls, fan_in: int, fan_out: int, activation: str, rng: np.random.Generator) -> "Layer":
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return cls(w=w, b=np.zeros(fan_out), activation=activation)


class HiddenNetwork:
    """The representation network F1: a stack of affine+activation layers."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.w.shape[1] != nxt.w.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")
        self.layers = list(layers)

    @classmethod
    def init(
        cls,
        dims: Sequence[int],
        rng: np.random.Generator,
        activations: Sequence[str] | None = None,
    ) -> "HiddenNetwork":
        """Build from a dims chain [in, h1, ..., out].

        Default activations: relu everywhere except an identity output layer.
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError("one activation per layer required")
        layers = [
            Layer.init(dims[i], dims[i + 1], activations[i], rng)
            for i in range(n_layers)
        ]
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Forward pass keeping (input, preactivation) per layer for backward."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("forward expects a (n, d) batch")
        if a.shape[1] != self.in_dim:
            raise ValueError(
                f"feature dimension mismatch: model expects {self.in_dim}, got {a.shape[1]}"
            )
        cache = []
        for layer in self.layers:
            z = a @ layer.w + layer.b
            cache.append((a, z))
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        return a, cache

    def backward(
        self, cache: list, grad_out: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Reverse pass; returns per-layer (dW, db) and the input gradient."""
        if cache is None:
            raise ValueError("no recorded forward state to backpropagate through")
        g = np.asarray(grad_out, dtype=np.float64)
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            a_in, z = cache[i]
            if layer.activation == "relu":
                g = g * (z > 0.0)
            grads[i] = (a_in.T @ g, g.sum(axis=0))
            g = g @ layer.w.T
        return grads, g

    def sgd_step(self, grads: list[tuple[np.ndarray, np.ndarray]], lr: float) -> None:
        for layer, (dw, db) in zip(self.layers, grads):
            layer.w -= lr * dw
            layer.b -= lr * db

    def param_arrays(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend([layer.w, layer.b])
        return out

    def clone(self) -> "HiddenNetwork":
        return HiddenNetwork(
            [Layer(w=l.w.copy(), b=l.b.copy(), activation=l.activation) for l in self.layers]
        )


def _phi_denominators(v: np.ndarray) -> np.ndarray:
    """Row norms, with NORM_FLOOR added to the degenerate ones."""
    norms = np.linalg.norm(v, axis=1)
    degenerate = norms < NORM_EPSILON
    if np.any(degenerate):
        norms = np.where(degenerate, norms + NORM_FLOOR, norms)
    return norms


def phi_normalize(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Rescale each row of v onto the sphere of the given radius."""
    v, single = _as_batch(v)
    u = v * (radius / _phi_denominators(v))[:, None]
    return u[0] if single else u


def phi_backward(v: np.ndarray, grad_u: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Jacobian-transpose product of the normalization at v.

    For nondegenerate rows this is exactly
    (r/||v||) (g - v <v, g> / ||v||^2).
    """
    v, single = _as_batch(v)
    g, _ = _as_batch(grad_u)
    denom = _phi_denominators(v)
    vg = np.sum(v * g, axis=1) / (denom * denom)
    out = (radius / denom)[:, None] * (g - v * vg[:, None])
    return out[0] if single else out


@dataclass
class LinearHead:
    """Linear output stage; one weight row per class, or a single bias-free
    row in binary mode (scores are then thresholded at zero)."""

    weights: np.ndarray               # (k, p)
    biases: np.ndarray | None = None  # (k,) or None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("head weights must be (rows, rep_dim)")
        if self.biases is not None:
            self.biases = np.asarray(self.biases, dtype=np.float64)
            if self.biases.shape != (self.weights.shape[0],):
                raise ValueError("head bias shape must match weight rows")

    @classmethod
    def init(
        cls, rep_dim: int, class_count: int, binary: bool, rng: np.random.Generator
    ) -> "LinearHead":
        rows = 1 if binary else class_count
        limit = np.sqrt(6.0 / (rep_dim + rows))
        w = rng.uniform(-limit, limit, size=(rows, rep_dim))
        return cls(weights=w, biases=None if binary else np.zeros(rows))

    @property
    def binary(self) -> bool:
        return self.weights.shape[0] == 1 and self.biases is None

    @property
    def rep_dim(self) -> int:
        return self.weights.shape[1]

    def scores(self, u: np.ndarray) -> np.ndarray:
        s = u @ self.weights.T
        if self.biases is not None:
            s = s + self.biases
        return s

    def backward(
        self, u: np.ndarray, dscores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """(dW, db, du) given the adjoint at the scores of features u; db is
        None for a bias-free head."""
        db = None if self.biases is None else dscores.sum(axis=0)
        return dscores.T @ u, db, dscores @ self.weights

    def clone(self) -> "LinearHead":
        return LinearHead(
            weights=self.weights.copy(),
            biases=None if self.biases is None else self.biases.copy(),
        )


def project_head(head: LinearHead, radius: float) -> LinearHead:
    """Clamp each weight row back into the norm ball ||w|| <= 1/r.

    Rows already inside the ball pass through untouched, so projection is
    idempotent.  Biases are unconstrained.
    """
    cap = 1.0 / radius
    norms = np.linalg.norm(head.weights, axis=1)
    scale = np.where(norms > cap, cap / np.where(norms > 0, norms, 1.0), 1.0)
    return LinearHead(
        weights=head.weights * scale[:, None],
        biases=None if head.biases is None else head.biases.copy(),
    )


class TwoPartClassifier:
    """f = head(phi_r(F1(x))).

    Training goes through one surface: ``features_cached`` for the forward
    pass, ``LinearHead.backward`` for the head, ``backward_features`` for
    the hidden layers and ``apply_grads`` for the SGD update.
    """

    def __init__(
        self,
        hidden: HiddenNetwork,
        radius: float,
        head: LinearHead,
        class_count: int,
    ):
        radius = float(radius)
        if not 0.0 < radius < np.inf:
            raise ValueError(f"radius must be finite and positive, got {radius!r}")
        if head.rep_dim != hidden.out_dim:
            raise ValueError("head width does not match representation width")
        if class_count < 2:
            raise ValueError("class_count must be at least 2")
        if head.binary and class_count != 2:
            raise ValueError("binary head requires exactly 2 classes")
        if not head.binary and head.weights.shape[0] != class_count:
            raise ValueError("head must have one row per class")
        self.hidden = hidden
        self.radius = radius
        self.head = head
        self.class_count = class_count

    @classmethod
    def build(
        cls,
        in_dim: int,
        hidden_dims: Sequence[int],
        rep_dim: int,
        class_count: int,
        radius: float = 1.0,
        binary_head: bool | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TwoPartClassifier":
        """Construct with fresh parameters.

        ``binary_head=None`` selects the bias-free single-row head exactly
        when there are two classes.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        if binary_head is None:
            binary_head = class_count == 2
        dims = [in_dim, *hidden_dims, rep_dim]
        hidden = HiddenNetwork.init(dims, rng)
        head = LinearHead.init(rep_dim, class_count, binary_head, rng)
        return cls(hidden, radius, head, class_count)

    def features(self, x: np.ndarray) -> np.ndarray:
        x, single = _as_batch(x)
        u = phi_normalize(self.hidden.forward(x), self.radius)
        return u[0] if single else u

    def predict(self, x: np.ndarray):
        """Predicted class indices; ties resolve to the lowest index."""
        x, single = _as_batch(x)
        s = self.head.scores(self.features(x))
        if self.head.binary:
            labels = (s[:, 0] > 0.0).astype(np.int64)
        else:
            labels = np.argmax(s, axis=1).astype(np.int64)
        return int(labels[0]) if single else labels

    # training surface ----------------------------------------------------

    def features_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Normalized features and the forward state ``backward_features`` needs."""
        v, hidden_cache = self.hidden.forward_cached(x)
        return phi_normalize(v, self.radius), (hidden_cache, v)

    def backward_features(self, cache: tuple, grad_u: np.ndarray) -> list:
        """Gradients of the hidden layers given an adjoint at the normalized
        features; the head is not involved."""
        hidden_cache, v = cache
        layer_grads, _ = self.hidden.backward(hidden_cache, phi_backward(v, grad_u, self.radius))
        return layer_grads

    def apply_grads(self, lr: float, hidden: list | None = None, head: tuple | None = None) -> None:
        """One SGD step: ``hidden`` holds per-layer (dW, db), ``head`` is the
        (dW, db) of ``LinearHead.backward``; a part left None stays put."""
        if hidden is not None:
            self.hidden.sgd_step(hidden, lr)
        if head is not None:
            dw, db = head
            self.head.weights -= lr * dw
            if db is not None:
                self.head.biases -= lr * db

    # bookkeeping ---------------------------------------------------------

    def project_head(self) -> None:
        """In-place projection of the head into its norm ball."""
        self.head = project_head(self.head, self.radius)

    def projected(self) -> "TwoPartClassifier":
        out = self.clone()
        out.project_head()
        return out

    def clone(self) -> "TwoPartClassifier":
        return TwoPartClassifier(self.hidden.clone(), self.radius, self.head.clone(),
                                 self.class_count)

    def param_arrays(self) -> list[np.ndarray]:
        arrays = self.hidden.param_arrays() + [self.head.weights]
        if self.head.biases is not None:
            arrays.append(self.head.biases)
        return arrays

    def params_equal(self, other: "TwoPartClassifier") -> bool:
        """Bitwise parameter equality."""
        mine, theirs = self.param_arrays(), other.param_arrays()
        if len(mine) != len(theirs):
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b) for a, b in zip(mine, theirs)
        )
