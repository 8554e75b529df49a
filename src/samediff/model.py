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

A hidden layer is one (fan_in + 1, fan_out) matrix ``wb``, its weights
with the bias as the last row, and each layer input carries a trailing ones
column: the forward pass is one matmul per layer, and so is each layer's
gradient ``dwb``, a matrix shaped like ``wb``.  An SGD step is one subtract
per layer.  The model takes (n, d) batches only.

A training step writes into one workspace: every array one forward and
backward pass over n rows writes, built once per row count.  The cache
``features_cached`` returns is that workspace, and its features ``u`` live
in it.  Live caches are independent, so they backpropagate in any order;
``backward_features`` spends a cache and its ``u``, handing the workspace
back to the network as its one spare for the next call of that row count.
Returned gradients are always fresh arrays.  phi's forward writes its
per-row scale radius / denom into the workspace once, and its backward
multiplies by that same column instead of dividing again.  Like
``pair_risk_batch``, the surface is not reentrant across threads.

Inference is separate from that workspace, and the model alone bounds its
memory: nothing outside it chunks.  ``HiddenNetwork.forward``, and through
it ``features``, ``predict``, the whole-set pair risk and every validation
and accuracy pass, walks its rows in blocks of ``_EVAL_ROWS`` through one
workspace of its own, built per call and never the training spare, and
writes one (n, out_dim) output.  Each block's buffers stay in cache where a
whole large batch would write fresh ones of n rows.  Blocking changes no
row's arithmetic, but the BLAS picks its kernel by matrix size, so a batch
above one block can round apart from a single whole-batch pass in the last
bit.

All parameters and activations are float64 and every gradient is computed
in closed form, including the normalization Jacobian
(r/||v||) (I - v v^T / ||v||^2), so finite-difference checks can hold to
tight tolerances and repeated runs are bit-reproducible.  ``all_finite``
is the one test that a model's parameters hold no inf or nan: the epoch
driver refuses a stage that ends without it, and ``load_model`` a
checkpoint.
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

# Rows per inference block.  Of 1,024, 2,048 and 4,096, 1,024 measured
# fastest for predict on 20,000 rows with hidden [32] (one thread).
_EVAL_ROWS = 1024


class Layer:
    """One affine layer with an elementwise activation.

    Its parameters are one (fan_in + 1, fan_out) matrix ``wb``, the weights
    with the bias as the last row, so an input with a ones column appended
    meets both in a single matmul.  Its gradient ``dwb`` has the same shape,
    and an SGD step is ``wb -= lr * dwb``.  The layer keeps its own copy of
    the matrix it is given.
    """

    def __init__(self, wb: np.ndarray, activation: str = "relu"):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        wb = np.array(wb, dtype=np.float64)
        if wb.ndim != 2 or wb.shape[0] < 2 or wb.shape[1] < 1:
            raise ValueError(
                f"layer parameters must be (fan_in + 1, fan_out) with both widths"
                f" at least 1, got shape {wb.shape}"
            )
        self.wb = wb
        self.activation = activation

    @classmethod
    def init(cls, fan_in: int, fan_out: int, activation: str, rng: np.random.Generator) -> "Layer":
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        wb = np.zeros((fan_in + 1, fan_out))
        wb[:-1] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return cls(wb, activation)


class _Workspace:
    """Every array one forward and backward pass over n rows writes.

    Per layer: its input with a trailing ones column (written once, here)
    and its preactivation ``z``; ``v`` is the network output.  The backward
    buffers (a float ReLU mask per relu layer and the adjoint at each layer
    output) and phi's (squared entries ``sq``, row denominators ``denom``,
    the (n, 1) column ``scale`` = radius / denom, features ``u`` and phi's
    backward output ``grad_v``) are built on first use, so a forward-only
    pass never allocates them.
    """

    def __init__(self, layers: Sequence[Layer], n: int):
        self.n = n
        self.inputs = [np.empty((n, layer.wb.shape[0])) for layer in layers]
        for a in self.inputs:
            a[:, -1] = 1.0
        self.z = [np.empty((n, layer.wb.shape[1])) for layer in layers]
        self.v = np.empty_like(self.z[-1]) if layers[-1].activation == "relu" else self.z[-1]
        self.masks = self.adjoints = None
        self.sq = self.denom = self.scale = self.u = self.grad_v = None


class HiddenNetwork:
    """The representation network F1: a stack of affine+activation layers.

    It keeps one spare workspace, the last one a classifier spent, for the
    next training step of the same row count; ``clone`` copies none.
    """

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.wb.shape[1] != nxt.wb.shape[0] - 1:
                raise ValueError("adjacent layer dimensions do not chain")
        self.layers = list(layers)
        self._spare: _Workspace | None = None

    @classmethod
    def init(cls, dims: Sequence[int], rng: np.random.Generator) -> "HiddenNetwork":
        """Build from a dims chain [in, h1, ..., out]: relu everywhere
        except an identity output layer."""
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        if min(dims) < 1:
            raise ValueError(f"every layer width must be at least 1, got {list(dims)}")
        n_layers = len(dims) - 1
        return cls([
            Layer.init(dims[i], dims[i + 1], "relu" if i < n_layers - 1 else "identity", rng)
            for i in range(n_layers)
        ])

    @property
    def in_dim(self) -> int:
        return self.layers[0].wb.shape[0] - 1

    @property
    def out_dim(self) -> int:
        return self.layers[-1].wb.shape[1]

    def _batch(self, x) -> np.ndarray:
        """x as a float64 (n, in_dim) batch, or a ValueError."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("forward expects a (n, d) batch")
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"feature dimension mismatch: model expects {self.in_dim}, got {x.shape[1]}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output of a (n, d) batch, checked once and computed
        ``_EVAL_ROWS`` rows at a time, each block one ``forward_cached`` call
        into one workspace, into one fresh (n, out_dim) output; the training
        spare is not touched.
        """
        x = self._batch(x)
        out, ws = np.empty((len(x), self.out_dim)), None
        for lo in range(0, len(x), _EVAL_ROWS):
            v, ws = self.forward_cached(x[lo:lo + _EVAL_ROWS], ws)
            out[lo:lo + _EVAL_ROWS] = v
        return out

    def forward_cached(
        self, x: np.ndarray, ws: _Workspace | None = None
    ) -> tuple[np.ndarray, _Workspace]:
        """Forward pass into the workspace ``ws``, which is also the cache.

        A fresh workspace is built when ``ws`` is None or holds another row
        count.  Each layer input carries a trailing ones column, so
        ``a @ wb`` adds the bias inside the matmul; an inner layer's
        activation writes straight into the next layer's input.
        """
        x = self._batch(x)
        if ws is None or ws.n != len(x):
            ws = _Workspace(self.layers, len(x))
        ws.inputs[0][:, :-1] = x
        for i, layer in enumerate(self.layers):
            z = np.matmul(ws.inputs[i], layer.wb, out=ws.z[i])
            nxt = ws.inputs[i + 1][:, :-1] if i + 1 < len(self.layers) else ws.v
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=nxt)
            elif nxt is not z:
                nxt[...] = z
        return ws.v, ws

    def backward(self, cache: _Workspace, grad_out: np.ndarray) -> list[np.ndarray]:
        """Reverse pass; returns each layer's ``dwb``, one fresh matmul each.

        ``grad_out`` is a float64 (n, out_dim) array and is only read; the
        adjoints are written into the cache.  Each adjoint meets the strided
        view of the layer's transposed weights: a contiguous copy multiplies
        faster but rounds apart from it on many shapes where the layer has
        16 or more units, and on single-row batches.  The gradient at the
        network's input is never formed.
        """
        if cache is None:
            raise ValueError("no recorded forward state to backpropagate through")
        if cache.adjoints is None:
            cache.masks = [np.empty_like(z) if layer.activation == "relu" else None
                           for layer, z in zip(self.layers, cache.z)]
            cache.adjoints = [np.empty_like(z) for z in cache.z]
        g, grads = grad_out, []
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == "relu":
                mask = np.greater(cache.z[i], 0.0, out=cache.masks[i])
                g = np.multiply(g, mask, out=cache.adjoints[i])
            grads.append(cache.inputs[i].T @ g)
            if i:
                g = np.matmul(g, layer.wb[:-1].T, out=cache.adjoints[i - 1])
        grads.reverse()
        return grads

    def sgd_step(self, grads: list[np.ndarray], lr: float) -> None:
        for layer, dwb in zip(self.layers, grads):
            layer.wb -= lr * dwb

    def clone(self) -> "HiddenNetwork":
        return HiddenNetwork([Layer(l.wb, l.activation) for l in self.layers])


def _row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.add.reduce(a, axis=1)``, bit for bit.

    Below 8 columns numpy sums each row in column order starting from +0.0
    (its pairwise summation starts at 8), so one add per column gives the
    same bits without numpy's per-row reduction loop, which costs several
    times more on rows this narrow.
    """
    if not 0 < a.shape[1] < 8:
        return np.add.reduce(a, axis=1, out=out)
    out = np.add(a[:, 0], 0.0, out=out)
    for j in range(1, a.shape[1]):
        np.add(out, a[:, j], out=out)
    return out


def _phi_denominators(
    v: np.ndarray, sq: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Row norms, with NORM_FLOOR added to the degenerate ones.

    ``sq`` takes the squared entries and ``out`` the norms when given.
    """
    norms = _row_sums(np.multiply(v, v, out=sq), out=out)
    np.sqrt(norms, out=norms)   # what np.linalg.norm computes
    if np.minimum.reduce(norms, initial=NORM_EPSILON) < NORM_EPSILON:
        np.add(norms, NORM_FLOOR, out=norms, where=norms < NORM_EPSILON)
    return norms


def _phi_scale(radius: float, denom: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (n, 1) column radius / denom that phi multiplies each row by."""
    return np.divide(radius, denom[:, None], out=out)


def phi_normalize(
    v: np.ndarray,
    radius: float = 1.0,
    scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rescale each row of the (n, d) batch v onto the sphere of the given radius.

    ``scale`` takes the (n, 1) column radius / ``_phi_denominators(v)``
    when the caller already holds it; ``out``, shaped like v, takes the
    result.
    """
    if scale is None:
        scale = _phi_scale(radius, _phi_denominators(v))
    return np.multiply(v, scale, out=out)


def phi_backward(
    v: np.ndarray,
    grad_u: np.ndarray,
    radius: float = 1.0,
    denom: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Jacobian-transpose product of the normalization at v.

    For nondegenerate rows this is exactly
    (r/||v||) (g - v <v, g> / ||v||^2).  ``denom`` takes the row
    denominators ``_phi_denominators(v)`` and ``scale`` the column
    radius / denom that ``phi_normalize`` multiplied by, when the caller
    already holds them; ``out``, shaped like v, takes the result and must
    not overlap v or grad_u.
    """
    if denom is None:
        denom = _phi_denominators(v)
    if scale is None:
        scale = _phi_scale(radius, denom)
    res = np.multiply(v, grad_u, out=out)
    vg = _row_sums(res)
    vg /= denom * denom
    np.multiply(v, vg[:, None], out=res)
    np.subtract(grad_u, res, out=res)
    np.multiply(scale, res, out=res)
    return res


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
        """Weight gradient, bias gradient and the adjoint at the features u,
        given the adjoint at their scores; the bias gradient is None for a
        bias-free head."""
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
    the hidden layers and ``apply_grads`` for the SGD update.  Each step
    writes into one reused workspace per row count.  Live caches
    backpropagate in any order; ``backward_features`` spends a cache and
    its features ``u``; returned gradients are always fresh.  Like
    ``pair_risk_batch``, the surface is not reentrant across threads.
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
        """Normalized features of a (n, d) batch."""
        return phi_normalize(self.hidden.forward(x), self.radius)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices of a (n, d) batch; ties resolve to the
        lowest index."""
        s = self.head.scores(self.features(x))
        if self.head.binary:
            return (s[:, 0] > 0.0).astype(np.int64)
        return np.argmax(s, axis=1).astype(np.int64)

    # training surface ----------------------------------------------------

    def features_cached(self, x: np.ndarray) -> tuple[np.ndarray, _Workspace]:
        """Normalized features and the forward state ``backward_features``
        needs, one workspace that also holds the features.

        The network's spare workspace is taken when it holds x's row count.
        """
        hidden = self.hidden
        ws, hidden._spare = hidden._spare, None
        v, ws = hidden.forward_cached(x, ws)
        if ws.u is None:
            ws.sq, ws.u, ws.grad_v = np.empty_like(v), np.empty_like(v), np.empty_like(v)
            ws.denom, ws.scale = np.empty(len(v)), np.empty((len(v), 1))
        denom = _phi_denominators(v, ws.sq, ws.denom)
        scale = _phi_scale(self.radius, denom, out=ws.scale)
        return phi_normalize(v, self.radius, scale, out=ws.u), ws

    def backward_features(self, cache: _Workspace, grad_u: np.ndarray) -> list:
        """Gradients of the hidden layers given an adjoint at the normalized
        features; the head is not involved.

        This spends the cache and its features: its workspace becomes the
        network's spare.  The gradients are fresh arrays.
        """
        grad_v = phi_backward(cache.v, grad_u, self.radius, cache.denom, out=cache.grad_v,
                              scale=cache.scale)
        grads = self.hidden.backward(cache, grad_v)
        self.hidden._spare = cache
        return grads

    def apply_grads(self, lr: float, hidden: list | None = None, head: tuple | None = None) -> None:
        """One SGD step: ``hidden`` holds each layer's ``dwb``, updating each
        ``wb`` with one subtract; ``head`` holds the weight and bias
        gradients of ``LinearHead.backward``.  A part left None stays put."""
        if hidden is not None:
            self.hidden.sgd_step(hidden, lr)
        if head is not None:
            dw, db = head
            self.head.weights -= lr * dw
            if db is not None:
                self.head.biases -= lr * db

    # bookkeeping ---------------------------------------------------------

    def all_finite(self) -> bool:
        """Whether every parameter, hidden and head, is finite."""
        head = self.head
        parts = [layer.wb for layer in self.hidden.layers] + [head.weights]
        if head.biases is not None:
            parts.append(head.biases)
        return all(np.isfinite(p).all() for p in parts)

    def project_head(self) -> None:
        """In-place projection of the head into its norm ball."""
        self.head = project_head(self.head, self.radius)

    def clone(self) -> "TwoPartClassifier":
        return TwoPartClassifier(self.hidden.clone(), self.radius, self.head.clone(),
                                 self.class_count)
