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

``pair_risk_batch`` takes a batch in one of two forms.  Aligned sides
(ua, ub) are materialised pairs, one row each.  ``ub=None`` is the online
form: every pair i < j of the B rows of ``u``.  That form never expands
the pairs.  It reads the kernel values off the Gram matrix K = U U^T,
writes the value gradient into a B x B matrix D and returns
dU = D U + D^T U; ncs on it is negated kernel-target alignment.  Both
forms reduce per-pair values through ``_reduce_pair_values``, the only
place the loss formulas are written, and build per-pair side gradients
with ``_pair_terms``.

Stage 2 (and the fully-supervised baseline) trains the head with either the
unbounded hinge -y*yhat (one-vs-rest sum in multi-class mode) or softmax
cross-entropy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .data import PairDataset
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

_RISK_CHUNK = 8192


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
    for aligned sides, the Gram matrix in the online form.  This is the only
    place the loss formulas are written; the training batch and the
    whole-set risk both reduce through it.
    """
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


def _pair_terms(
    name: str, ua: np.ndarray, ub: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair gradients at both sides, given the gradient dv at the values."""
    if name == "sqdist":
        dua = (2.0 * dv)[:, None] * (ua - ub)
        return dua, -dua
    return dv[:, None] * ub, dv[:, None] * ua


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


def _within_batch(
    name: str, u: np.ndarray, t: np.ndarray, radius: float, beta: float | None
) -> tuple[float, np.ndarray]:
    """Risk over every pair i < j of u's rows and its gradient at u."""
    b = len(u)
    ii, jj, flat = _triu_pairs(b)
    if len(t) != len(flat):
        raise ValueError(f"{b} rows have {len(flat)} pairs, got {len(t)} agreement bits")
    gram, dmat = _gram_buffers(b)
    np.matmul(u, u.T, out=gram)
    values = gram.ravel().take(flat)
    diag = gram.diagonal()
    if name == "sqdist":
        values = diag.take(ii) + diag.take(jj) - 2.0 * values
    risk, dv = _reduce_pair_values(name, values, t, radius, beta)
    dmat.ravel()[flat] = dv
    du = dmat @ u + dmat.T @ u
    if name == "sqdist":
        du = 2.0 * ((dmat.sum(axis=1) + dmat.sum(axis=0))[:, None] * u - du)
    # phi's backward multiplies the adjoint of a floored row by r/NORM_FLOOR,
    # which magnifies any change in its summation order.  Every unfloored
    # row lies on the radius sphere and every floored one within 1e-4 r of
    # the origin, so rows off the sphere take their gradient from the
    # aligned per-pair terms, summed in np.add.at's order (ii, then jj).
    off = diag < 0.25 * radius * radius
    if off.any():
        sel = np.flatnonzero(off.take(ii) | off.take(jj))
        si, sj = ii.take(sel), jj.take(sel)
        dua, dub = _pair_terms(name, u.take(si, axis=0), u.take(sj, axis=0), dv.take(sel))
        both, terms = np.concatenate([si, sj]), np.concatenate([dua, dub])
        for c in range(u.shape[1]):
            du[off, c] = np.bincount(both, weights=terms[:, c], minlength=b)[off]
    return risk, du


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
    gradients include the flow through the shared normalizers.

    With ``ub=None`` the pairs are every i < j of ``ua``'s B rows, in
    ``np.triu_indices`` order, and ``t`` holds their B(B-1)/2 bits; the
    result is (risk, gradient at ua, None).  That form reuses two cached
    B x B buffers, so it is not reentrant: do not call it from two threads
    at once.
    """
    if name not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {name!r}")
    ua = np.asarray(ua, dtype=np.float64)
    t = np.asarray(t)
    if len(t) == 0:
        raise ValueError("empty pair batch")
    if ub is None:
        return (*_within_batch(name, ua, t, radius, beta), None)
    ub = np.asarray(ub, dtype=np.float64)
    risk, dv = _reduce_pair_values(name, _pair_values(name, ua, ub), t, radius, beta)
    return (risk, *_pair_terms(name, ua, ub, dv))


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


# -- whole-set risk -------------------------------------------------------


def empirical_risk_pairs(
    model: TwoPartClassifier,
    pairs: PairDataset,
    loss: str = "sqdist",
    beta: float | None = None,
) -> float:
    """Pair risk of the model over a whole pair set, uniform 1/n weighting.

    For the batch-level losses the entire set is the batch: per-pair values
    are computed chunk by chunk and reduced once at the end.
    """
    if loss not in PAIR_LOSSES:
        raise ValueError(f"unknown pair loss {loss!r}")
    n = len(pairs)
    if n == 0:
        raise ValueError("empty pair set")
    values = []
    for lo in range(0, n, _RISK_CHUNK):
        part = pairs.take(np.arange(lo, min(lo + _RISK_CHUNK, n)))
        xa, xb, _ = part.gather()
        values.append(_pair_values(loss, model.features(xa), model.features(xb)))
    t = np.asarray(pairs.t, dtype=np.int64)
    return _reduce_pair_values(loss, np.concatenate(values), t, model.radius, beta)[0]
