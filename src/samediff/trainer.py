"""Two-stage training: pair-supervised representation, then a linear head.

Stage 1 fits the hidden network on same/different pair labels only; the
head never moves.  Stage 2 freezes the hidden network bit-for-bit and fits
the head on a (typically tiny) fully-labeled set against frozen features.
A fully-supervised joint baseline and an online variant, which expands each
shuffled minibatch into its B(B-1)/2 pairs on the fly, share the same
machinery.

Every pair-stage step is a few whole-batch numpy calls, because at these
tensor sizes per-call overhead, not arithmetic, sets the cost.  Stage 1
resolves pair ids to feature rows once per run and pushes each batch's
a-sides and b-sides through one forward and one backward pass.  The online
step and its validation risk share one expansion (``_BatchPairs``): cached
upper-triangle indices per batch size, ``take`` for the pair sides, and one
``np.bincount`` per feature column to sum pair gradients back onto rows.

Plain SGD throughout.  The default short schedule (0.1 x 20, 0.01 x 10,
0.001 x 5 epochs) is a tenth of the long recipe (200/100/50) for quick
runs; the head stage runs 50 epochs at 0.1.  All shuffling and splitting
derives from named substreams of one seed, so repeated runs produce
identical parameters.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import FullyLabeledDataset, PairDataset
from .losses import (
    HEAD_LOSSES,
    PAIR_LOSSES,
    empirical_risk_pairs,
    head_loss_batch,
    pair_risk_batch,
)
from .model import TwoPartClassifier, project_head
from .rng import substream

__all__ = [
    "TrainConfig",
    "TrainRun",
    "EpochRecord",
    "train_step1",
    "train_step2",
    "train_two_stage",
    "train_baseline_full",
    "train_online",
]

SHORT_SCHEDULE = ((0.1, 20), (0.01, 10), (0.001, 5))
LONG_SCHEDULE = ((0.1, 200), (0.01, 100), (0.001, 50))


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for every training entry point.

    ``pair_loss=None`` resolves to sqdist for a binary head and ncs
    otherwise.  ``augment`` receives (features, rng) and returns features;
    it applies to stage-1 and baseline batches, never to the frozen-feature
    head stage.
    """

    batch_size: int = 128
    schedule: tuple[tuple[float, int], ...] = SHORT_SCHEDULE
    head_rate: float = 0.1
    head_epochs: int = 50
    seed: int = 0
    pair_loss: str | None = None
    head_loss: str = "hinge"
    beta: float | None = None
    val_fraction: float = 1.0 / 12.0
    augment: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pair_loss is not None and self.pair_loss not in PAIR_LOSSES:
            raise ValueError(f"unknown pair loss {self.pair_loss!r}")
        if self.head_loss not in HEAD_LOSSES:
            raise ValueError(f"unknown head loss {self.head_loss!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def resolved_pair_loss(self, model: TwoPartClassifier) -> str:
        if self.pair_loss is not None:
            return self.pair_loss
        return "sqdist" if model.head.binary else "ncs"

    def echo(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "schedule": [[lr, ep] for lr, ep in self.schedule],
            "head_rate": self.head_rate,
            "head_epochs": self.head_epochs,
            "seed": self.seed,
            "pair_loss": self.pair_loss,
            "head_loss": self.head_loss,
            "beta": self.beta,
            "val_fraction": self.val_fraction,
        }


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float | None

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "lr": self.lr,
            "train_loss": self.train_loss,
            "val_metric": self.val_metric,
        }


@dataclass
class TrainRun:
    """Outcome of one training stage.

    ``best_epoch`` is the epoch whose snapshot the model ended on, or None
    when no validation set existed and the final parameters stand (the
    tiny-labeled-set rule: with at most one example per class there is
    nothing to hold out, so selection falls back to the final train loss).
    """

    stage: str
    config: dict
    trace: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    wall_seconds: float = 0.0
    max_pair_buffer: int = 0

    @property
    def final_train_loss(self) -> float:
        return self.trace[-1].train_loss if self.trace else float("nan")

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "config": self.config,
            "trace": [r.to_dict() for r in self.trace],
            "best_epoch": self.best_epoch,
            "wall_seconds": self.wall_seconds,
            "max_pair_buffer": self.max_pair_buffer,
        }


def _epoch_plan(schedule) -> list[tuple[int, float]]:
    plan = []
    e = 0
    for lr, epochs in schedule:
        for _ in range(epochs):
            plan.append((e, float(lr)))
            e += 1
    return plan


def _split_pairs(pairs: PairDataset, cfg: TrainConfig) -> tuple[PairDataset, PairDataset | None]:
    n = len(pairs)
    n_val = int(n * cfg.val_fraction)
    if n_val < 1 or n - n_val < 1:
        return pairs, None
    perm = substream(cfg.seed, "valsplit", "pairs").permutation(n)
    return pairs.take(perm[n_val:]), pairs.take(perm[:n_val])


def _split_examples(
    ds: FullyLabeledDataset, cfg: TrainConfig, class_count: int
) -> tuple[FullyLabeledDataset, FullyLabeledDataset | None]:
    n = len(ds)
    n_val = int(n * cfg.val_fraction)
    if n <= class_count or n_val < 1 or n - n_val < 1:
        return ds, None
    perm = substream(cfg.seed, "valsplit", "examples").permutation(n)
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


def _projected_accuracy(model: TwoPartClassifier, u: np.ndarray, y: np.ndarray) -> float:
    head = project_head(model.head, model.radius)
    s = head.scores(u)
    if head.binary:
        pred = (s[:, 0] > 0.0).astype(np.int64)
    else:
        pred = np.argmax(s, axis=1)
    return float(np.mean(pred == y))


def train_step1(model: TwoPartClassifier, pairs: PairDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 1: fit the hidden network on a materialized pair set.

    Only hidden-layer parameters move.  When enough pairs exist, a held-out
    fraction tracks validation pair risk and the best snapshot is restored
    at the end.
    """
    t0 = time.perf_counter()
    loss_name = cfg.resolved_pair_loss(model)
    train_pairs, val_pairs = _split_pairs(pairs, cfg)
    if (
        val_pairs is not None
        and loss_name == "contrastive"
        and not np.any(val_pairs.t == 1)
    ):
        val_pairs = None   # positive-free split cannot score this loss
    n_train = len(train_pairs)
    run = TrainRun(stage="step1", config=cfg.echo())
    # Ids resolve to feature rows once; each epoch permutes the row
    # positions and each batch slices them.
    pos_a, pos_b = train_pairs.positions()
    x = train_pairs.source.x
    t_all = np.asarray(train_pairs.t, dtype=np.int64)

    best_risk = np.inf
    best_hidden = None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "step1", epoch).permutation(n_train)
        ep_a, ep_b, ep_t = pos_a[perm], pos_b[perm], t_all[perm]
        total, seen = 0.0, 0
        for lo in range(0, n_train, cfg.batch_size):
            sl = slice(lo, lo + cfg.batch_size)
            t = ep_t[sl]
            xa = x.take(ep_a[sl], axis=0)
            xb = x.take(ep_b[sl], axis=0)
            if cfg.augment is not None:
                arng = substream(cfg.seed, "augment", epoch, lo)
                xa = cfg.augment(xa, arng)
                xb = cfg.augment(xb, arng)
            if loss_name == "contrastive" and not np.any(t == 1):
                continue
            # Both sides go through one forward and one backward pass: the
            # batch's rows are [a-sides; b-sides].
            m = len(t)
            u, cache = model.features_cached(np.concatenate([xa, xb]))
            risk, dua, dub = pair_risk_batch(
                loss_name, u[:m], u[m:], t, radius=model.radius, beta=cfg.beta
            )
            grads = model.backward_features(cache, np.concatenate([dua, dub]))
            model.hidden.sgd_step(grads, lr)
            total += risk * m
            seen += m
        train_loss = total / max(seen, 1)
        val_metric = None
        if val_pairs is not None:
            val_metric = empirical_risk_pairs(model, val_pairs, loss_name, beta=cfg.beta)
            if val_metric < best_risk:
                best_risk = val_metric
                best_hidden = model.hidden.clone()
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, train_loss, val_metric))
    if best_hidden is not None:
        model.hidden = best_hidden
    run.wall_seconds = time.perf_counter() - t0
    return run


def train_step2(model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig) -> TrainRun:
    """Stage 2: fit the head on frozen features from a fully-labeled set.

    The hidden network is not touched (features are computed once up
    front), so its parameters are bit-identical before and after.  The head
    trains unconstrained and is projected into its norm ball for every
    validation measurement and once more at the end.
    """
    if len(ds) == 0:
        raise ValueError("empty labeled set")
    t0 = time.perf_counter()
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    u_train = model.features(train_ds.x)
    u_val = model.features(val_ds.x) if val_ds is not None else None
    n = len(train_ds)
    run = TrainRun(stage="step2", config=cfg.echo())

    best_acc = -np.inf
    best_head = None
    for epoch in range(cfg.head_epochs):
        perm = substream(cfg.seed, "shuffle", "step2", epoch).permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            u = u_train[idx]
            loss, dscores = head_loss_batch(
                cfg.head_loss, model.head.scores(u), train_ds.y[idx], model.class_count
            )
            model.head.weights -= cfg.head_rate * (dscores.T @ u)
            if model.head.biases is not None:
                model.head.biases -= cfg.head_rate * dscores.sum(axis=0)
            total += loss * len(idx)
        train_loss = total / n
        val_metric = None
        if val_ds is not None:
            val_metric = _projected_accuracy(model, u_val, val_ds.y)
            if val_metric > best_acc:
                best_acc = val_metric
                best_head = model.head.clone()
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, cfg.head_rate, train_loss, val_metric))
    if best_head is not None:
        model.head = best_head
    model.project_head()
    run.wall_seconds = time.perf_counter() - t0
    return run


def train_two_stage(
    model: TwoPartClassifier,
    pairs: PairDataset,
    labeled: FullyLabeledDataset,
    cfg: TrainConfig,
) -> tuple[TrainRun, TrainRun]:
    """Stage 1 on pairs, then stage 2 on the small labeled set."""
    run1 = train_step1(model, pairs, cfg)
    run2 = train_step2(model, labeled, cfg)
    return run1, run2


def train_baseline_full(
    model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig
) -> TrainRun:
    """Fully-supervised reference: joint SGD on all parameters."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    t0 = time.perf_counter()
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    n = len(train_ds)
    run = TrainRun(stage="baseline", config=cfg.echo())

    best_acc = -np.inf
    best = None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "baseline", epoch).permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            x = train_ds.x[idx]
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            scores, cache = model.forward_cached(x)
            loss, dscores = head_loss_batch(
                cfg.head_loss, scores, train_ds.y[idx], model.class_count
            )
            grads = model.backward(cache, dscores)
            model.apply_grads(grads, lr)
            total += loss * len(idx)
        train_loss = total / n
        val_metric = None
        if val_ds is not None:
            val_metric = _projected_accuracy(model, model.features(val_ds.x), val_ds.y)
            if val_metric > best_acc:
                best_acc = val_metric
                best = (model.hidden.clone(), model.head.clone())
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, train_loss, val_metric))
    if best is not None:
        model.hidden, model.head = best
    model.project_head()
    run.wall_seconds = time.perf_counter() - t0
    return run


@functools.lru_cache(maxsize=8)
def _triu_pairs(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ii, jj, [ii; jj]) for the B(B-1)/2 pairs i < j of a batch of b rows.

    Cached per batch size and read-only, since every caller shares them.
    """
    ii, jj = np.triu_indices(b, k=1)
    both = np.concatenate([ii, jj])
    for a in (ii, jj, both):
        a.flags.writeable = False
    return ii, jj, both


class _BatchPairs:
    """A minibatch expanded into its B(B-1)/2 pairs at the feature level.

    Shared by the online training step and its validation risk.
    """

    def __init__(self, y: np.ndarray):
        self.size = len(y)
        self.ii, self.jj, self._both = _triu_pairs(self.size)
        self.t = (y.take(self.ii) == y.take(self.jj)).astype(np.int64)

    def risk(self, loss_name: str, u: np.ndarray, radius: float, beta: float | None):
        """``pair_risk_batch`` over the expanded pairs of features u."""
        return pair_risk_batch(
            loss_name, u.take(self.ii, axis=0), u.take(self.jj, axis=0), self.t,
            radius=radius, beta=beta,
        )

    def scatter(self, dua: np.ndarray, dub: np.ndarray) -> np.ndarray:
        """Sum the pair-side gradients back onto the batch rows.

        One bincount per feature column over [ii; jj] adds, for every row,
        its a-side terms and then its b-side terms in pair order: the same
        order, and so the same result, as np.add.at on ii then jj.
        """
        du = np.empty((self.size, dua.shape[1]))
        for c in range(dua.shape[1]):
            du[:, c] = np.bincount(
                self._both, weights=np.concatenate([dua[:, c], dub[:, c]]), minlength=self.size
            )
        return du


def _online_epoch_risk(model: TwoPartClassifier, ds: FullyLabeledDataset, cfg: TrainConfig, loss_name: str) -> float:
    """Pair risk over fixed-order minibatch expansions (no shuffling)."""
    total, seen = 0.0, 0
    for lo in range(0, len(ds), cfg.batch_size):
        sl = slice(lo, min(lo + cfg.batch_size, len(ds)))
        if sl.stop - sl.start < 2:
            continue
        pairs = _BatchPairs(ds.y[sl])
        if loss_name == "contrastive" and not np.any(pairs.t == 1):
            continue
        u = model.features(ds.x[sl])
        risk, _, _ = pairs.risk(loss_name, u, model.radius, cfg.beta)
        total += risk * len(pairs.t)
        seen += len(pairs.t)
    return total / max(seen, 1)


def train_online(
    model: TwoPartClassifier,
    ds: FullyLabeledDataset,
    labeled: FullyLabeledDataset,
    cfg: TrainConfig,
) -> tuple[TrainRun, TrainRun]:
    """Online two-stage training: pairs exist only inside the current batch.

    Each epoch reshuffles the examples; every minibatch of B examples is
    expanded to its B(B-1)/2 pairs at the feature level (the position-level
    image of ``online_epoch_pairs``), so the peak pair buffer is bounded by
    the batch size and never by the quadratic global pair count.  The batch
    takes one forward pass; the pair-side gradients are summed back onto
    its rows with a per-column ``np.bincount`` in the order ``np.add.at``
    would use, then one backward pass follows.  Validation expands its
    fixed-order batches the same way.
    """
    if len(ds) < 2:
        raise ValueError("online training needs at least 2 examples")
    t0 = time.perf_counter()
    loss_name = cfg.resolved_pair_loss(model)
    train_ds, val_ds = _split_examples(ds, cfg, model.class_count)
    n = len(train_ds)
    run = TrainRun(stage="step1-online", config=cfg.echo())

    best_risk = np.inf
    best_hidden = None
    for epoch, lr in _epoch_plan(cfg.schedule):
        perm = substream(cfg.seed, "shuffle", "online", epoch).permutation(n)
        total, seen = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            if len(idx) < 2:
                continue
            x = train_ds.x.take(idx, axis=0)
            if cfg.augment is not None:
                x = cfg.augment(x, substream(cfg.seed, "augment", epoch, lo))
            pairs = _BatchPairs(train_ds.y.take(idx))
            n_pairs = len(pairs.t)
            if loss_name == "contrastive" and not np.any(pairs.t == 1):
                continue
            run.max_pair_buffer = max(run.max_pair_buffer, n_pairs)
            u, cache = model.features_cached(x)
            risk, dua, dub = pairs.risk(loss_name, u, model.radius, cfg.beta)
            grads = model.backward_features(cache, pairs.scatter(dua, dub))
            model.hidden.sgd_step(grads, lr)
            total += risk * n_pairs
            seen += n_pairs
        train_loss = total / max(seen, 1)
        val_metric = None
        if val_ds is not None:
            val_metric = _online_epoch_risk(model, val_ds, cfg, loss_name)
            if val_metric < best_risk:
                best_risk = val_metric
                best_hidden = model.hidden.clone()
                run.best_epoch = epoch
        run.trace.append(EpochRecord(epoch, lr, train_loss, val_metric))
    if best_hidden is not None:
        model.hidden = best_hidden
    run.wall_seconds = time.perf_counter() - t0
    run2 = train_step2(model, labeled, cfg)
    return run, run2
