"""Losses for both training stages and the empirical-risk reducers.

Stage 1 consumes pairs of normalized features (u, u') with the agreement
bit t and never sees class labels:

* sqdist:      (-1)^(t+1) ||u - u'||^2, pulls same-class pairs together
               and pushes different-class pairs apart.
* ncs:         negated cosine similarity between the batch kernel vector
               K (entries <u_i, u'_i>) and the target vector K* (entries
               r^2 for t=1, beta otherwise); per-pair values average to
               -cos(K, K*) over the batch.
* contrastive: -log( sum_{t=1} exp(k_i) / sum_all exp(k_j) ).
* mse:         (k_i - k*_i)^2.

The ncs and contrastive objectives are batch-level: gradients flow through
the norm and partition-sum terms, so the batch is the unit of optimization,
not the single pair.

Stage 2 (and the fully-supervised baseline) trains the head with either the
unbounded hinge -y*yhat (one-vs-rest sum in multi-class mode) or softmax
cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FullyLabeledDataset, PairDataset
from .model import TwoPartClassifier

__all__ = [
    "PairBatchContext",
    "hinge_unbounded",
    "cross_entropy",
    "pair_loss_sqdist",
    "pair_loss_ncs",
    "pair_loss_contrastive",
    "pair_loss_mse",
    "pair_risk_batch",
    "head_loss_batch",
    "empirical_risk_full",
    "empirical_risk_pairs",
]

PAIR_LOSSES = ("sqdist", "ncs", "contrastive", "mse")
HEAD_LOSSES = ("hinge", "xent")

_RISK_CHUNK = 8192


# -- scalar surfaces ------------------------------------------------------


def hinge_unbounded(y_hat: float, y: int) -> float:
    """Unbounded hinge -y * yhat for y in {-1, +1}."""
    if y not in (-1, 1):
        raise ValueError(f"hinge target must be -1 or +1, got {y}")
    return -float(y) * float(y_hat)


def cross_entropy(scores: np.ndarray, y: int) -> float:
    """Softmax cross-entropy of one score vector, max-subtracted for stability."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("cross_entropy expects a single score vector")
    if not 0 <= y < len(s):
        raise ValueError(f"label {y} outside score vector of length {len(s)}")
    shifted = s - s.max()
    return float(np.log(np.sum(np.exp(shifted))) - shifted[y])


def pair_loss_sqdist(u: np.ndarray, u_prime: np.ndarray, t: int) -> float:
    """Signed squared distance: positive sign for same-class pairs."""
    d = np.asarray(u, dtype=np.float64) - np.asarray(u_prime, dtype=np.float64)
    sign = 1.0 if t == 1 else -1.0
    return float(sign * np.dot(d, d))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products <a_i, b_i>; cheaper than np.sum(a * b, axis=1)
    for the narrow feature widths used here."""
    return np.einsum("ij,ij->i", a, b)


@dataclass(frozen=True)
class PairBatchContext:
    """Kernel values and targets for one batch of pairs.

    ``kernel[i]`` is <u_i, u'_i>; ``target[i]`` is r^2 for agreeing pairs
    and beta (default -r^2, the kernel minimum) otherwise.
    """

    kernel: np.ndarray
    target: np.ndarray
    t: np.ndarray
    radius: float
    beta: float

    @classmethod
    def from_features(
        cls,
        ua: np.ndarray,
        ub: np.ndarray,
        t: np.ndarray,
        radius: float = 1.0,
        beta: float | None = None,
    ) -> "PairBatchContext":
        ua = np.asarray(ua, dtype=np.float64)
        ub = np.asarray(ub, dtype=np.float64)
        t = np.asarray(t)
        if beta is None:
            beta = -radius * radius
        k = _row_dots(ua, ub)
        target = np.where(t == 1, radius * radius, beta)
        return cls(kernel=k, target=target, t=t, radius=radius, beta=float(beta))

    def __len__(self) -> int:
        return len(self.kernel)


def _ncs_norms(ctx: PairBatchContext) -> tuple[float, float]:
    kn = float(np.linalg.norm(ctx.kernel))
    sn = float(np.linalg.norm(ctx.target))
    if kn < 1e-300 or sn < 1e-300:
        raise ValueError("degenerate kernel batch: zero-norm kernel or target vector")
    return kn, sn


def pair_loss_ncs(ctx: PairBatchContext, i: int) -> float:
    """Per-pair share of the negated cosine similarity.

    Defined as -n * k_i * k*_i / (||K|| ||K*||) so the batch mean equals
    -cos(K, K*).
    """
    kn, sn = _ncs_norms(ctx)
    n = len(ctx)
    return float(-n * ctx.kernel[i] * ctx.target[i] / (kn * sn))


def pair_loss_contrastive(ctx: PairBatchContext) -> float:
    """Batch-level contrastive objective over the kernel values."""
    pos = ctx.t == 1
    if not np.any(pos):
        raise ValueError("contrastive loss needs at least one same-class pair in the batch")
    m = float(ctx.kernel.max())
    log_all = m + np.log(np.sum(np.exp(ctx.kernel - m)))
    log_pos = m + np.log(np.sum(np.exp(ctx.kernel[pos] - m)))
    return float(log_all - log_pos)


def pair_loss_mse(ctx: PairBatchContext, i: int) -> float:
    """Squared kernel residual for one pair."""
    d = ctx.kernel[i] - ctx.target[i]
    return float(d * d)


# -- batched training surfaces -------------------------------------------


def _kernel_grad_to_features(dk, ua, ub):
    return dk[:, None] * ub, dk[:, None] * ua


def pair_risk_batch(
    name: str,
    ua: np.ndarray,
    ub: np.ndarray,
    t: np.ndarray,
    radius: float = 1.0,
    beta: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch risk and its gradients with respect to both feature sides.

    Pairs carry uniform weight 1/n; for the batch-level losses the returned
    gradients include the flow through the shared normalizers.
    """
    if name not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {name!r}")
    ua = np.asarray(ua, dtype=np.float64)
    ub = np.asarray(ub, dtype=np.float64)
    t = np.asarray(t)
    n = len(t)
    if n == 0:
        raise ValueError("empty pair batch")

    if name == "sqdist":
        diff = ua - ub
        sign = np.where(t == 1, 1.0, -1.0)
        risk = float(np.mean(sign * _row_dots(diff, diff)))
        dua = (2.0 / n) * sign[:, None] * diff
        return risk, dua, -dua

    ctx = PairBatchContext.from_features(ua, ub, t, radius=radius, beta=beta)
    k, ks = ctx.kernel, ctx.target

    if name == "ncs":
        kn, sn = _ncs_norms(ctx)
        dot = float(np.dot(k, ks))
        risk = -dot / (kn * sn)
        dk = -ks / (kn * sn) + dot * k / (kn ** 3 * sn)
    elif name == "contrastive":
        risk = pair_loss_contrastive(ctx)
        pos = ctx.t == 1
        m = float(k.max())
        e = np.exp(k - m)
        soft_all = e / e.sum()
        e_pos = np.where(pos, e, 0.0)
        soft_pos = e_pos / e_pos.sum()
        dk = soft_all - soft_pos
    else:  # mse
        resid = k - ks
        risk = float(np.mean(resid * resid))
        dk = (2.0 / n) * resid

    dua, dub = _kernel_grad_to_features(dk, ua, ub)
    return float(risk), dua, dub


def head_loss_batch(
    name: str, scores: np.ndarray, y: np.ndarray, class_count: int
) -> tuple[float, np.ndarray]:
    """Mean head loss over a batch and its gradient at the scores.

    Binary-mode scores have one column and hinge targets map 0 -> -1,
    1 -> +1.  Multi-class hinge sums one-versus-rest terms with +1 for the
    true class and -1 elsewhere.
    """
    if name not in HEAD_LOSSES:
        raise ValueError(f"unknown head loss {name!r}")
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n == 0:
        raise ValueError("empty batch")

    if name == "hinge":
        if s.shape[1] == 1:
            sign = np.where(y == 1, 1.0, -1.0)
            loss = float(np.mean(-sign * s[:, 0]))
            ds = (-sign / n)[:, None]
            return loss, ds
        targets = -np.ones_like(s)
        targets[np.arange(n), y] = 1.0
        loss = float(np.mean(np.sum(-targets * s, axis=1)))
        return loss, -targets / n

    if s.shape[1] < 2:
        raise ValueError("cross-entropy requires one score column per class")
    shifted = s - s.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    loss = float(np.mean(np.log(z) - shifted[np.arange(n), y]))
    soft = exp / z[:, None]
    soft[np.arange(n), y] -= 1.0
    return loss, soft / n


# -- empirical risks ------------------------------------------------------


def empirical_risk_full(
    model: TwoPartClassifier, ds: FullyLabeledDataset, loss: str = "hinge"
) -> float:
    """Mean head loss of the model over a fully-labeled dataset."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    total = 0.0
    for lo in range(0, len(ds), _RISK_CHUNK):
        sl = slice(lo, min(lo + _RISK_CHUNK, len(ds)))
        u = model.features(ds.x[sl])
        s = model.head.scores(u)
        chunk_loss, _ = head_loss_batch(loss, s, ds.y[sl], model.class_count)
        total += chunk_loss * (sl.stop - sl.start)
    return total / len(ds)


def empirical_risk_pairs(
    model: TwoPartClassifier,
    pairs: PairDataset,
    loss: str = "sqdist",
    beta: float | None = None,
) -> float:
    """Pair risk of the model over a whole pair set, uniform 1/n weighting.

    For the batch-level losses the entire set is the batch: kernel values
    are accumulated chunk by chunk and reduced once at the end.
    """
    if loss not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {loss!r}")
    n = len(pairs)
    if n == 0:
        raise ValueError("empty pair set")
    r = model.radius
    if beta is None:
        beta = -r * r

    sq_total = 0.0
    kernel_parts: list[np.ndarray] = []
    for lo in range(0, n, _RISK_CHUNK):
        part = pairs.take(np.arange(lo, min(lo + _RISK_CHUNK, n)))
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
    ctx = PairBatchContext(kernel=k, target=target, t=t_all, radius=r, beta=float(beta))
    if loss == "ncs":
        kn, sn = _ncs_norms(ctx)
        return float(-np.dot(k, target) / (kn * sn))
    if loss == "contrastive":
        return pair_loss_contrastive(ctx)
    return float(np.mean((k - target) ** 2))
