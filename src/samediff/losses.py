"""Losses for both training stages and the whole-set pair risk.

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

``pair_risk_batch`` takes a batch in one of two forms.  Aligned sides (ua,
ub) are materialised pairs, one row each; their gradients are written into
one fresh (2n, d) array, the a-sides' rows and then the b-sides', so stage
1, whose batch is stacked the same way, backpropagates it whole.
``ub=None`` is the online form: every pair i < j of the B rows of ``u``,
given the rows' B class labels, which fix every pair's agreement bit.
Each online batch takes exactly one route.  sqdist reduces from per-class
sums (count, feature sum and squared-norm sum) in O(B d).  The other
losses take the Gram route: it reads the kernel values off K = U U^T, in
``np.triu_indices`` order, writes the value gradient into a B x B matrix D
and returns dU = D U + D^T U; ncs on it is negated kernel-target
alignment.  K and D are buffers reused per batch size, so the online form
is not reentrant.  A batch holding a row that phi floored takes neither,
whatever its loss: it expands all B(B-1)/2 pairs into the aligned form and
sums each row's side gradients from that stacked array in np.add.at's
order (ii, then jj), because phi's backward multiplies a floored row's
adjoint by r/NORM_FLOOR, which magnifies any change in summation order; it
then equals the aligned form bit for bit.  Every route but the class sums
reduces per-pair values through ``_reduce_pair_values``.

Stage 2 (and the fully-supervised baseline) trains the head with either the
unbounded hinge -y*yhat (one-vs-rest sum in multi-class mode) or softmax
cross-entropy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .data import PairDataset, sufficient_label
from .model import TwoPartClassifier

__all__ = [
    "PAIR_LOSSES",
    "HEAD_LOSSES",
    "pair_risk_batch",
    "head_loss_batch",
    "empirical_risk_pairs",
]

PAIR_LOSSES = ("sqdist", "ncs", "contrastive", "mse")
HEAD_LOSSES = ("hinge", "xent")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products <a_i, b_i>; cheaper than np.sum(a * b, axis=1)
    for the narrow feature widths used here."""
    return np.einsum("ij,ij->i", a, b)


def _pair_values(name: str, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Per-pair values of aligned sides: the squared distances ||u - u'||^2
    for sqdist and the kernel values <u, u'> for every other loss."""
    if name == "sqdist":
        diff = ua - ub
        return _row_dots(diff, diff)
    return _row_dots(ua, ub)


def _reduce_pair_values(
    name: str, values: np.ndarray, t: np.ndarray, radius: float, beta: float | None
) -> tuple[float, np.ndarray]:
    """Risk of one batch of pairs and its gradient with respect to the values.

    The per-pair values are the squared distances ||u - u'||^2 for sqdist
    and the kernel values <u, u'> for every other loss: ``_pair_values``
    for aligned sides, the Gram matrix on the online Gram route.  The
    training batch and the whole-set risk both reduce through it; only
    sqdist's class-sum route writes its formula again, summed by class.
    """
    n = len(values)
    if name == "sqdist":
        sign = np.array([-1.0, 1.0]).take(t)
        return float(np.mean(sign * values)), sign * (1.0 / n)
    if beta is None:
        beta = -radius * radius
    target = np.array([beta, radius * radius]).take(t)
    if name == "ncs":
        kn = math.sqrt(values @ values)
        sn = math.sqrt(target @ target)
        if kn < 1e-300 or sn < 1e-300:
            raise ValueError("degenerate kernel batch: zero-norm kernel or target vector")
        dot = float(np.dot(values, target))
        return -dot / (kn * sn), -target / (kn * sn) + dot * values / (kn ** 3 * sn)
    if name == "contrastive":
        pos = t == 1
        if not np.any(pos):
            raise ValueError("contrastive loss needs at least one same-class pair in the batch")
        m = float(values.max())
        e = np.exp(values - m)
        log_all = m + np.log(np.sum(e))
        log_pos = m + np.log(np.sum(np.exp(values[pos] - m)))
        e_pos = np.where(pos, e, 0.0)
        return float(log_all - log_pos), e / e.sum() - e_pos / e_pos.sum()
    resid = values - target   # mse
    return float(np.mean(resid * resid)), (2.0 / n) * resid


def _pair_terms(name: str, ua: np.ndarray, ub: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per-pair gradients at both sides, given the gradient dv at the values:
    one fresh (2n, d) array, the n a-sides' rows and then the b-sides'."""
    n = len(dv)
    du = np.empty((2 * n, ua.shape[1]))
    dua, dub = du[:n], du[n:]
    if name == "sqdist":
        np.multiply((2.0 * dv)[:, None], np.subtract(ua, ub, out=dua), out=dua)
        np.negative(dua, out=dub)
    else:
        col = dv[:, None]
        np.multiply(col, ub, out=dua)
        np.multiply(col, ua, out=dub)
    return du


def _aligned_risk(
    name: str, ua: np.ndarray, ub: np.ndarray, t: np.ndarray, radius: float,
    beta: float | None
) -> tuple[float, np.ndarray]:
    """Risk of the aligned pairs (ua[i], ub[i]) with bits t and the stacked
    gradient ``_pair_terms`` at [ua; ub]."""
    risk, dv = _reduce_pair_values(name, _pair_values(name, ua, ub), t, radius, beta)
    return risk, _pair_terms(name, ua, ub, dv)


@functools.lru_cache(maxsize=8)
def _triu_pairs(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ii, jj, ii*b + jj) for the b(b-1)/2 pairs i < j of b rows, in
    ``np.triu_indices`` order; cached per batch size and read-only."""
    ii, jj = np.triu_indices(b, k=1)
    flat = ii * b + jj
    for a in (ii, jj, flat):
        a.flags.writeable = False
    return ii, jj, flat


@functools.lru_cache(maxsize=8)
def _gram_buffers(b: int) -> tuple[np.ndarray, np.ndarray]:
    """The b x b kernel and gradient matrices, reused across calls.

    A 128 x 128 float64 matrix is 128 KiB, glibc's mmap threshold, so fresh
    ones per batch cost a page fault per page.  D starts at zero and only
    its upper triangle is ever written.
    """
    return np.empty((b, b)), np.zeros((b, b))


def _off_sphere(q: np.ndarray, radius: float) -> np.ndarray:
    """Rows whose squared norms q put them off the radius sphere.

    Every row phi did not floor lies on the sphere, and every floored one
    within 1e-4 r of the origin, so a quarter of r^2 separates them.
    """
    return q < 0.25 * radius * radius


def _sqdist_class_sums(u: np.ndarray, y: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    """sqdist over every pair i < j of u's rows, from per-class sums.

    With n_c rows, feature sum S_c and squared-norm sum Q_c in class c,
    S = sum_c S_c and n = B(B-1)/2 pairs,

        n * risk = sum_c (2 n_c - B) Q_c - (2 sum_c ||S_c||^2 - ||S||^2)
        du_i     = (2/n) [(2 n_{y_i} - B) u_i - (2 S_{y_i} - S)].

    This grouping cancels terms of size B r^2; the textbook one,
    2 sum_c (n_c Q_c - ||S_c||^2) - (B Q - ||S||^2), cancels B^2 r^2.
    """
    b = len(u)
    if y.min() < 0 or y.max() >= b:
        y = np.unique(y, return_inverse=True)[1]
    weight = (2 * np.bincount(y) - b).astype(np.float64)
    onehot = (y[:, None] == np.arange(len(weight))).astype(np.float64)
    s_c, q_c = onehot.T @ u, onehot.T @ q
    s = s_c.sum(axis=0)
    n = b * (b - 1) // 2
    risk = float(weight @ q_c - (2.0 * np.einsum("ij,ij->", s_c, s_c) - s @ s)) / n
    pull = 2.0 * s_c
    pull -= s
    du = weight.take(y)[:, None] * u
    du -= pull.take(y, axis=0)
    du *= 2.0 / n
    return risk, du


def _within_batch(
    name: str, u: np.ndarray, y: np.ndarray, radius: float, beta: float | None
) -> tuple[float, np.ndarray]:
    """Risk over every pair i < j of u's rows, labelled y, and its gradient at u,
    by the one route per batch that the module docstring sets out."""
    b = len(u)
    q = _row_dots(u, u)
    floored = _off_sphere(q, radius).any()
    if name == "sqdist" and not floored:
        return _sqdist_class_sums(u, y, q)
    ii, jj, flat = _triu_pairs(b)
    t = sufficient_label(y.take(ii), y.take(jj))
    if floored:
        ua, ub = u.take(ii, axis=0), u.take(jj, axis=0)
        risk, terms = _aligned_risk(name, ua, ub, t, radius, beta)
        both = np.concatenate([ii, jj])
        return risk, np.column_stack(
            [np.bincount(both, weights=terms[:, c], minlength=b) for c in range(u.shape[1])])
    gram, dmat = _gram_buffers(b)
    np.matmul(u, u.T, out=gram)
    risk, dv = _reduce_pair_values(name, gram.ravel().take(flat), t, radius, beta)
    dmat.ravel()[flat] = dv
    return risk, dmat @ u + dmat.T @ u


# -- batched training surfaces -------------------------------------------


def pair_risk_batch(
    name: str,
    ua: np.ndarray,
    ub: np.ndarray | None,
    t: np.ndarray,
    radius: float = 1.0,
    beta: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Batch risk and its gradients with respect to both feature sides.

    Pairs carry uniform weight 1/n; for the batch-level losses the returned
    gradients include the flow through the shared normalizers.  Aligned
    sides take ``t`` as the pairs' 0/1 agreement bits, integer or bool,
    and get (risk, du[:n], du[n:]): the halves of one fresh (2n, d) array,
    their common ``base``, that aliases neither input, so a caller whose
    sides are the two halves of one stacked batch backpropagates ``base``
    as it is.

    With ``ub=None`` the pairs are every i < j of ``ua``'s B rows, and
    ``t`` holds the B rows' integer class labels, from which every pair's
    agreement bit follows; the result is (risk, gradient at ua, None), by
    the one route per batch that the module docstring sets out (not
    reentrant: do not call it from two threads at once).
    """
    if name not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {name!r}")
    ua = np.asarray(ua, dtype=np.float64)
    t = np.asarray(t)
    if ub is None:
        if len(t) != len(ua):
            raise ValueError(f"{len(ua)} rows, got {len(t)} class labels")
        if len(t) < 2:
            raise ValueError("empty pair batch")
        return (*_within_batch(name, ua, t, radius, beta), None)
    if len(t) == 0:
        raise ValueError("empty pair batch")
    ub = np.asarray(ub, dtype=np.float64)
    risk, du = _aligned_risk(name, ua, ub, t, radius, beta)
    n = len(t)
    return risk, du[:n], du[n:]


def head_loss_batch(name: str, scores: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
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


# -- whole-set risk -------------------------------------------------------


def empirical_risk_pairs(
    model: TwoPartClassifier,
    pairs: PairDataset,
    loss: str = "sqdist",
    beta: float | None = None,
) -> float:
    """Pair risk of the model over a whole pair set, uniform 1/n weighting.

    For the batch-level losses the entire set is the batch: one gather and
    one ``features`` pass per side, whose rows the model walks in its own
    inference blocks, then one reduction.  The set's ids resolve once, on
    its first scoring.
    """
    if loss not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {loss!r}")
    if len(pairs) == 0:
        raise ValueError("empty pair set")
    xa, xb, t = pairs.gather()
    values = _pair_values(loss, model.features(xa), model.features(xb))
    return _reduce_pair_values(loss, values, t, model.radius, beta)[0]
